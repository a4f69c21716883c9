"""Algorithm 2's vocabulary, the rank-side state machine, and the job
options (:class:`JobOptions`) that select a checkpoint protocol.

Messages (coordinator → rank): ``intend-to-checkpoint``, ``extra-iteration``,
``do-ckpt``; rank states reported back: ``ready``, ``in-phase-1``,
``exit-phase-2`` (§2.5).

One disambiguation of the published pseudocode, recorded here and in
DESIGN.md: the *commit point* of a collective is the completion of its
trivial barrier.  Once every rank of the communicator has entered phase 1,
the barrier completes and all of them flow into phase 2 regardless of a
pending checkpoint intent — this is what makes a rank already inside the
real collective (Lemma 2 case b) able to finish, which Theorem 2's liveness
argument requires.  Conversely, under a pending intent no rank may *enter*
the wrapper (Algorithm 2 line 28, "wait before next coll. comm. call"), so
any trivial barrier that is incomplete when the last ack is collected can
never complete during the checkpoint window — which is what makes
``in-phase-1`` a safe state to checkpoint (the trivial barrier is the one
interruptible collective).  The coordinator loops extra iterations while any
rank reports ``exit-phase-2``, exactly as printed.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, replace
from typing import Optional


class CkptMsg(enum.Enum):
    """Control-plane message types (coordinator ↔ rank helper)."""

    INTEND_TO_CKPT = "intend-to-ckpt"
    EXTRA_ITERATION = "extra-iteration"
    DO_CKPT = "do-ckpt"
    # checkpoint pipeline (DMTCP-style, after do-ckpt)
    BOOKMARKS = "bookmarks"            # rank -> coord: per-peer send counts
    DRAIN = "drain"                    # coord -> rank: expected recv totals
    DRAINED = "drained"                # rank -> coord: drain complete + size
    WRITE = "write"                    # coord -> rank: write your image
    WRITE_DONE = "write-done"          # rank -> coord
    RESUME = "resume"                  # coord -> rank: continue computing
    # rank replies to intend/extra-iteration
    STATE_REPLY = "state-reply"
    #: unsolicited rank -> coordinator: "my in-phase-1 reply went stale —
    #: the trivial barrier completed and I am committing into phase 2; wait
    #: for my exit-phase-2".  Discovered necessary by the model checker: a
    #: reply can be overtaken by the barrier completion (Challenge I).
    REVISE_IN_PHASE_1 = "revise-in-phase-1"
    #: coordinator -> rank: revision processed; proceed into phase 2
    REVISE_ACK = "revise-ack"
    # topological-sort protocol (protocol v2; see docs/protocols.md)
    #: coordinator -> rank: freeze now and report state + counters in one
    #: round (the topo protocol has no extra iterations)
    TOPO_INTENT = "topo-intent"
    #: rank -> coordinator: state + collective info + send/receive bookmarks
    TOPO_STATE = "topo-state"


#: coordinator phase -> the name of the trace span covering it
#: (``repro.obs`` vocabulary; see docs/observability.md).  The coordinator
#: opens/closes these spans as the protocol advances; ``harness`` tests use
#: the same mapping to locate phases in a captured trace.
PHASE_SPANS = {
    "collect-states": "ckpt:intent",
    "bookmarks": "ckpt:quiesce",
    "drain": "ckpt:drain",
    "write": "ckpt:write",
}

#: the same mapping for the topological-sort protocol.  Kept separate from
#: :data:`PHASE_SPANS` on purpose: Algorithm-2 traces must stay byte-for-byte
#: identical whether or not the topo engine exists, and the topo drain/write
#: spans may overlap (per-wave writes start while later ranks still drain),
#: which the alg2 vocabulary never allows.
TOPO_PHASE_SPANS = {
    "topo-intent": "ckpt:topo-intent",
    "topo-drain": "ckpt:topo-drain",
    "topo-write": "ckpt:topo-write",
}

#: checkpoint protocols selectable via the ``protocol=`` knob
PROTOCOLS = ("alg2", "topo")


@dataclass(frozen=True)
class JobOptions:
    """How a MANA job checkpoints: the one place these options' names,
    defaults and checks live.  Every checkpoint stamps them into
    ``CheckpointSet.meta["options"]`` and ``restart`` inherits them from
    there (docs/architecture.md, "Job options")."""

    #: checkpoint protocol engine, one of :data:`PROTOCOLS`
    #: (docs/protocols.md)
    protocol: str = "alg2"
    #: compact the record log at checkpoint time (docs/record_replay.md)
    compact: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown checkpoint protocol {self.protocol!r} "
                             f"(choose from {list(PROTOCOLS)})")
        if not isinstance(self.compact, bool):
            raise TypeError(f"compact must be a bool, got {self.compact!r}")

    def as_dict(self) -> dict:
        """The ``meta["options"]`` entry, also the ``protocol=`` /
        ``compact=`` keywords of ``launch_mana``."""
        return asdict(self)

    def override(self, **changes) -> "JobOptions":
        """A copy with every keyword that is not None replaced."""
        return replace(self, **{k: v for k, v in changes.items()
                                if v is not None})


def ctrl_instant_name(msg: "CkptMsg") -> str:
    """Trace-instant name for a control-plane message arriving at a rank."""
    return f"ctrl:{msg.value}"


class RankCkptState(enum.Enum):
    """What a rank reports to the coordinator (Algorithm 2)."""

    READY = "ready"
    IN_PHASE_1 = "in-phase-1"
    EXIT_PHASE_2 = "exit-phase-2"


class WrapperPhase(enum.Enum):
    """Where a rank currently is relative to the collective wrapper."""

    NONE = "none"              # not inside any collective wrapper
    ENTRY_HELD = "entry-held"  # at wrapper entry, held by a pending intent
    PHASE_1 = "phase-1"        # inside the trivial barrier
    #: barrier completed after an in-phase-1 reply: the rank has sent a
    #: revision and parks here until the coordinator acknowledges it
    COMMIT_PENDING = "commit-pending"
    PHASE_2 = "phase-2"        # inside the real collective (committed)


class ProtocolMode(enum.Enum):
    """Where a rank stands in the checkpoint protocol."""
    NORMAL = "normal"
    PRE_CKPT = "pre-ckpt"      # intend acked; wrapper entry gated
    QUIESCED = "quiesced"      # do-ckpt received; rank frozen


@dataclass
class RankProtocol:
    """Per-rank protocol bookkeeping, owned by the rank runtime.

    The runtime consults :meth:`may_enter_wrapper` at wrapper entry and
    reports through :meth:`classify` when an intend/extra-iteration message
    arrives.  ``pending_reply`` is set while the rank is in phase 2 and owes
    the coordinator a deferred ``exit-phase-2`` answer.
    """

    mode: ProtocolMode = ProtocolMode.NORMAL
    phase: WrapperPhase = WrapperPhase.NONE
    #: a reply owed to the coordinator once the rank exits phase 2
    pending_reply: bool = False
    #: set when the rank exited phase 2 during the current intent window
    exited_phase2: bool = False
    #: last reply was in-phase-1 and has not been revised — committing into
    #: phase 2 while this is set requires sending REVISE_IN_PHASE_1
    replied_in_phase1: bool = False

    def may_enter_wrapper(self) -> bool:
        """Algorithm 2 line 28: under a pending intent, hold at entry."""
        return self.mode is ProtocolMode.NORMAL

    def classify(self) -> Optional[RankCkptState]:
        """State to report for an intend/extra-iteration message, or None if
        the reply must wait until the rank leaves phase 2."""
        if self.phase in (WrapperPhase.PHASE_2, WrapperPhase.COMMIT_PENDING):
            return None
        if self.exited_phase2:
            # exited a collective since the last round: report it (once)
            self.exited_phase2 = False
            return RankCkptState.EXIT_PHASE_2
        if self.phase is WrapperPhase.PHASE_1:
            return RankCkptState.IN_PHASE_1
        return RankCkptState.READY

    def note_phase2_exit(self) -> bool:
        """Called by the wrapper when the real collective finishes.

        Returns True if a deferred reply is owed (the coordinator asked
        while we were inside).
        """
        self.phase = WrapperPhase.NONE
        if self.pending_reply:
            # The deferred reply itself reports exit-phase-2; don't also
            # flag it for the next round.
            self.pending_reply = False
            return True
        if self.mode is not ProtocolMode.NORMAL:
            self.exited_phase2 = True
        return False
