"""Pluggable checkpoint-protocol engines (coordinator side).

The :class:`~repro.mana.coordinator.Coordinator` owns messaging (broadcast
fan-out, reply delivery, failure aborts) and delegates the protocol state
machine to a :class:`ProtocolEngine`:

* :class:`Alg2Protocol` — the paper's Algorithm 2: intent rounds with extra
  iterations until no rank reports ``exit-phase-2`` and no trivial barrier
  is fully entered, then a global quiesce → drain → write pipeline.  This
  is the original coordinator logic, moved verbatim; its event sequence
  (and therefore every trace and every golden fingerprint) is unchanged.

* :class:`TopoSortProtocol` — protocol v2 (after the topological-sort
  successor to MANA, arXiv:2408.02218): a *single* intent round that
  freezes every rank immediately, collects send/receive bookmarks in the
  same reply, orders ranks by their in-flight message dependency DAG and
  writes images in topological waves as each rank's local drain completes.
  Ranks caught inside a collective (laggards) and ranks stuck in a
  dependency cycle fall back to a bounded local drain and write last.
  There is no global quiesce wait: the time from intent to first drain is
  one control round, not ``2 + extra`` rounds.

Both engines produce the same consistent cut — bit-identical restart
fingerprints — which the conformance matrix checks differentially
(``repro conformance --protocol both``).  See docs/protocols.md.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.mana.protocol import CkptMsg, RankCkptState
from repro.obs.events import Category

__all__ = [
    "ProtocolEngine",
    "Alg2Protocol",
    "TopoSortProtocol",
    "build_inflight_dag",
    "topological_waves",
    "make_protocol",
]


# --------------------------------------------------------------- pure helpers


def build_inflight_dag(
    sent: dict[int, dict[int, int]],
    received: dict[int, dict[int, int]],
) -> dict[int, set[int]]:
    """The rank-level in-flight message dependency DAG.

    ``sent[j][i]`` is rank j's bookmark of messages sent to rank i;
    ``received[i][j]`` is rank i's bookmark of messages received from j.
    An edge ``j -> i`` means j has messages still in flight toward i, so
    i's local drain (and therefore its image) depends on j: i must be
    checkpointed **after** j.  Returns ``{j: {i, ...}}``.
    """
    edges: dict[int, set[int]] = {}
    for j, per_dst in sent.items():
        for i, count in per_dst.items():
            if i == j:
                continue
            if count - received.get(i, {}).get(j, 0) > 0:
                edges.setdefault(j, set()).add(i)
    return edges


def topological_waves(
    nodes: Iterable[int],
    edges: dict[int, set[int]],
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Kahn's algorithm, grouped into waves.

    Returns ``(waves, fallback)``: ``waves`` is a list of rank tuples such
    that every rank appears after all ranks it depends on (edge ``j -> i``
    puts i in a strictly later wave than j); ``fallback`` is the set of
    ranks on (or downstream of) a dependency cycle, which no linear order
    can serve — the protocol checkpoints them last via the bounded local
    drain.  Only edges between ``nodes`` are considered.
    """
    nodes = sorted(nodes)
    nodeset = set(nodes)
    indeg = {r: 0 for r in nodes}
    out: dict[int, list[int]] = {r: [] for r in nodes}
    for j, dsts in edges.items():
        if j not in nodeset:
            continue
        for i in sorted(dsts):
            if i in nodeset and i != j:
                indeg[i] += 1
                out[j].append(i)
    frontier = [r for r in nodes if indeg[r] == 0]
    waves: list[tuple[int, ...]] = []
    placed: set[int] = set()
    while frontier:
        waves.append(tuple(frontier))
        placed.update(frontier)
        nxt: list[int] = []
        for j in frontier:
            for i in out[j]:
                indeg[i] -= 1
                if indeg[i] == 0:
                    nxt.append(i)
        frontier = sorted(nxt)
    fallback = tuple(r for r in nodes if r not in placed)
    return waves, fallback


# ------------------------------------------------------------ engine protocol


class ProtocolEngine:
    """One checkpoint protocol's coordinator-side state machine.

    The coordinator calls :meth:`begin` when a checkpoint is requested and
    forwards every (non-stale) rank reply to :meth:`on_reply`; the engine
    drives broadcasts through the coordinator's control-plane helpers and
    finishes by calling ``Coordinator._resolve_report``.  :meth:`reset`
    drops in-flight protocol state on an abort.
    """

    name = "?"

    def __init__(self, coord) -> None:
        self.c = coord

    def begin(self) -> None:
        """Start the protocol (open spans, send the first broadcast)."""
        raise NotImplementedError

    def on_reply(self, rank: int, msg: CkptMsg, payload: Any) -> None:
        """Process one rank reply delivered by the coordinator."""
        raise NotImplementedError

    def reset(self) -> None:
        """Abort: drop any in-flight protocol state (default: nothing)."""


# ------------------------------------------------------------------ Algorithm 2


class Alg2Protocol(ProtocolEngine):
    """The paper's Algorithm 2 plus the DMTCP-style pipeline (original
    coordinator logic, moved here unchanged)."""

    name = "alg2"

    def begin(self) -> None:
        """Open the ckpt/intent spans and broadcast intend-to-ckpt."""
        c = self.c
        tr = c.engine.tracer
        if tr.enabled:
            c._spans = {
                "ckpt": tr.begin("ckpt", cat=Category.PROTOCOL),
                "ckpt:intent": tr.begin("ckpt:intent", cat=Category.PROTOCOL),
            }
        self._round(CkptMsg.INTEND_TO_CKPT)

    def on_reply(self, rank: int, msg: CkptMsg, payload: Any) -> None:
        """Collect replies for the current phase; advance when all are in."""
        c = self.c
        if msg is CkptMsg.REVISE_IN_PHASE_1:
            # The rank's earlier in-phase-1 reply went stale (its trivial
            # barrier completed).  Un-count it, acknowledge (the rank parks
            # until then), and wait for its deferred exit-phase-2.  The
            # fully-entered-barrier check guarantees this can only arrive
            # while the round is still collecting.
            if c._phase != "collect-states":
                raise RuntimeError(
                    f"revision from rank {rank} outside a state round "
                    f"(phase {c._phase!r})"
                )
            c._replies.pop(rank, None)
            rt = c.runtimes[rank]
            c.engine.call_after(
                c.control.reply_delay(), rt.on_ctrl, CkptMsg.REVISE_ACK,
                None, label=f"coord:revise-ack->r{rank}",
            )
            return
        if msg is not c._expect_kind:
            raise RuntimeError(
                f"coordinator in phase {c._phase!r} got {msg} from rank "
                f"{rank}, expected {c._expect_kind}"
            )
        if rank in c._replies:
            raise RuntimeError(f"duplicate {msg} reply from rank {rank}")
        c._replies[rank] = payload
        if len(c._replies) == len(c.runtimes):
            replies, c._replies = c._replies, {}
            self._phase_complete(replies)

    # -------------------------------------------------------- phase machine

    def _needs_extra_iteration(self, replies: dict[int, Any]) -> bool:
        """True if it is not yet safe to send do-ckpt.

        Unsafe when (a) some rank reported ``exit-phase-2`` — Algorithm 2's
        printed condition — or (b) every member of some communicator reports
        ``in-phase-1`` on the *same* trivial barrier: that barrier will
        complete and commit its ranks into phase 2 right after they replied
        (the Challenge-I race), so the collective must be allowed to flow
        through before checkpointing.
        """
        in_phase1: dict[int, tuple[set[int], tuple[int, ...]]] = {}
        for rank, reply in replies.items():
            if reply is RankCkptState.EXIT_PHASE_2:
                return True
            if isinstance(reply, tuple):
                state, (ctx, members) = reply
                assert state is RankCkptState.IN_PHASE_1
                entry = in_phase1.setdefault(ctx, (set(), tuple(members)))
                entry[0].add(rank)
        return any(
            waiting == set(members) for waiting, members in in_phase1.values()
        )

    def _round(self, msg: CkptMsg) -> None:
        c = self.c
        c._rounds += 1
        c._start_phase("collect-states", CkptMsg.STATE_REPLY)
        c._broadcast(msg, lambda i: None)

    def _phase_complete(self, replies: dict[int, Any]) -> None:
        c = self.c
        phase = c._phase
        if phase == "collect-states":
            if self._needs_extra_iteration(replies):
                # Algorithm 2 line 7 (plus the Challenge-I refinement):
                # iterate while anyone exited phase 2, or while some trivial
                # barrier is fully entered and therefore about to commit.
                self._round(CkptMsg.EXTRA_ITERATION)
                return
            # all ready or safely parked in-phase-1: checkpoint is safe
            c._trace_phase("ckpt:intent", "ckpt:quiesce", rounds=c._rounds)
            c._start_phase("bookmarks", CkptMsg.BOOKMARKS)
            c._broadcast(CkptMsg.DO_CKPT, lambda i: None)
        elif phase == "bookmarks":
            # expected receive total per rank = sum of everyone's sends to it
            expected = [0] * len(c.runtimes)
            for sent in replies.values():
                for dst, count in sent.items():
                    expected[dst] += count
            c._t_drain_start = c.engine.now
            c._trace_phase("ckpt:quiesce", "ckpt:drain",
                           expected_total=sum(expected))
            c._start_phase("drain", CkptMsg.DRAINED)
            c._broadcast(CkptMsg.DRAIN, lambda i: expected[i])
        elif phase == "drain":
            c._t_drain_end = c.engine.now
            c._trace_phase("ckpt:drain", "ckpt:write")
            sizes = [int(replies[r]) for r in range(len(c.runtimes))]
            report = c.storage.burst(sizes, c.node_of, rng=c.rng)
            c._t_write_start = c.engine.now
            c._start_phase("write", CkptMsg.WRITE_DONE)
            c._broadcast(CkptMsg.WRITE, lambda i: float(report.per_rank[i]))
        elif phase == "write":
            images = [replies[r] for r in range(len(c.runtimes))]
            t_write_end = c.engine.now
            c._start_phase("idle", None)
            c._broadcast(CkptMsg.RESUME, lambda i: None)
            total = t_write_end - c._t0
            drain = c._t_drain_end - c._t_drain_start
            write = t_write_end - c._t_write_start
            quiesce_wait = c._t_drain_start - c._t0
            tr = c.engine.tracer
            if tr.enabled:
                c._trace_phase("ckpt:write")
                c._trace_phase("ckpt", rounds=c._rounds,
                               drain_s=drain, write_s=write)
                tr.instant("ckpt:resume", cat=Category.PROTOCOL)
            c._resolve_report(
                total=total, drain=drain, write=write, images=images,
                quiesce_wait=quiesce_wait,
            )
        else:
            raise RuntimeError(f"unexpected phase completion in {phase!r}")


# ------------------------------------------------------- topological-sort v2


class TopoSortProtocol(ProtocolEngine):
    """Protocol v2: single-round intent, topological-wave image writes.

    One broadcast freezes every rank (``driver.quiesce()`` at intent
    receipt); because wrapper sends are bookmarked synchronously at call
    time and a quiesced driver issues no further calls, the send/receive
    counters in the single ``TOPO_STATE`` reply are final.  From that one
    round the coordinator derives

    * the expected receive total per rank (drain target),
    * the set of *laggards* — ranks inside a collective's phase 2, or
      in-phase-1 ranks whose trivial barrier has (or provably will have)
      committed — which must exit the collective before draining, and
    * the in-flight dependency DAG over the remaining (settled) ranks.

    Settled ranks drain immediately and write in Kahn waves as their local
    drains complete; ranks on a dependency cycle and laggards form the
    final waves (the bounded-local-drain fallback).  ``RESUME`` stays
    global — the cut is the single quiesce instant, so restarts are
    bit-identical to Algorithm 2's.
    """

    name = "topo"

    def begin(self) -> None:
        """Open the topo spans and broadcast the single topo-intent."""
        c = self.c
        self._states: dict[int, Any] = {}
        self._revised: set[int] = set()
        self._exited: set[int] = set()
        self._laggards: set[int] = set()
        self._expected: Optional[list[int]] = None
        self._sizes: dict[int, int] = {}
        self._drained: set[int] = set()
        self._images: dict[int, Any] = {}
        self._waves: list[tuple[int, ...]] = []
        self._wave_issued = 0
        self._fallback: tuple[int, ...] = ()
        self._quiesce_wait = 0.0
        self._t_drain_last = c._t0
        self._t_write_first: Optional[float] = None
        tr = c.engine.tracer
        if tr.enabled:
            c._spans = {
                "ckpt": tr.begin("ckpt", cat=Category.PROTOCOL),
                "ckpt:topo-intent": tr.begin(
                    "ckpt:topo-intent", cat=Category.PROTOCOL
                ),
            }
        c._rounds = 1
        c._start_phase("topo-intent", CkptMsg.TOPO_STATE)
        c._broadcast(CkptMsg.TOPO_INTENT, lambda i: None)

    def reset(self) -> None:
        """Abort: drop round state so late replies cannot advance it."""
        self._states = {}
        self._expected = None
        self._waves = []
        self._wave_issued = 0

    # ------------------------------------------------------------- replies

    def on_reply(self, rank: int, msg: CkptMsg, payload: Any) -> None:
        """Dispatch one rank reply by message kind (see class docstring)."""
        c = self.c
        if msg is CkptMsg.REVISE_IN_PHASE_1:
            # A trivial barrier completed under the intent: the rank is
            # committing into phase 2.  Ack immediately (topo never blocks
            # a commit) — the rank is a laggard and drains after its exit.
            if c._phase == "idle":
                # Post-resume straggler (found by the TopoSortModel checker):
                # another rank resumed first and completed the barrier
                # before this rank processed its own RESUME.  The checkpoint
                # is over; ack so the rank can commit, and ignore.
                rt = c.runtimes[rank]
                c.engine.call_after(
                    c.control.reply_delay(), rt.on_ctrl, CkptMsg.REVISE_ACK,
                    None, label=f"coord:revise-ack->r{rank}",
                )
                return
            if self._expected is not None and rank not in self._laggards:
                raise RuntimeError(
                    f"topo: revision from rank {rank} classified settled — "
                    "the per-communicator commit analysis missed a barrier"
                )
            self._revised.add(rank)
            rt = c.runtimes[rank]
            c.engine.call_after(
                c.control.reply_delay(), rt.on_ctrl, CkptMsg.REVISE_ACK,
                None, label=f"coord:revise-ack->r{rank}",
            )
        elif msg is CkptMsg.TOPO_STATE:
            if c._phase != "topo-intent":
                raise RuntimeError(
                    f"topo: state reply from rank {rank} outside the intent "
                    f"round (phase {c._phase!r})"
                )
            if rank in self._states:
                raise RuntimeError(f"duplicate {msg} reply from rank {rank}")
            self._states[rank] = payload
            if len(self._states) == len(c.runtimes):
                self._classify()
        elif msg is CkptMsg.STATE_REPLY:
            # a laggard's deferred exit-phase-2: its collective completed
            if payload is not RankCkptState.EXIT_PHASE_2:
                raise RuntimeError(
                    f"topo: unexpected state reply {payload!r} from rank {rank}"
                )
            if c._phase == "idle":
                return  # the post-resume straggler's exit: the round is over
            self._exited.add(rank)
            if self._expected is not None:
                if rank not in self._laggards:
                    raise RuntimeError(
                        f"topo: exit-phase-2 from settled rank {rank}"
                    )
                self._send_drain(rank)
        elif msg is CkptMsg.DRAINED:
            self._sizes[rank] = int(payload)
            self._drained.add(rank)
            self._t_drain_last = c.engine.now
            if len(self._drained) == len(c.runtimes):
                c._t_drain_end = c.engine.now
                c._trace_phase("ckpt:topo-drain")
            self._maybe_issue_waves()
        elif msg is CkptMsg.WRITE_DONE:
            self._images[rank] = payload
            if len(self._images) == len(c.runtimes):
                self._finish()
        else:
            raise RuntimeError(
                f"coordinator in phase {c._phase!r} got {msg} from rank "
                f"{rank} (topo protocol)"
            )

    # ------------------------------------------------------- classification

    def _classify(self) -> None:
        """The single round is complete: derive laggards, drain targets and
        the write-order waves, then start draining the settled ranks."""
        c = self.c
        n = len(c.runtimes)
        now = c.engine.now
        self._quiesce_wait = now - c._t0
        states = self._states
        # Per-communicator commit analysis.  A trivial barrier completes
        # (committing every member into phase 2) iff all members entered
        # phase 1 — so a barrier is doomed to commit if some member already
        # reports phase 2 on it, or if every member reports in-phase-1.
        # In-phase-1 ranks on such a barrier will revise and must be
        # treated as laggards; any other in-phase-1 rank is safely parked
        # (its barrier cannot complete while entries are gated).
        waiting: dict[int, set[int]] = {}
        committed: dict[int, set[int]] = {}
        members_of: dict[int, tuple[int, ...]] = {}
        laggards = set(self._revised) | set(self._exited)
        for r, p in states.items():
            if p["coll"] is not None:
                ctx, members = p["coll"]
                members_of[ctx] = tuple(members)
                bucket = waiting if p["state"] == "in-phase-1" else committed
                bucket.setdefault(ctx, set()).add(r)
            if p["state"] == "in-phase-2":
                laggards.add(r)
        for ctx, members in members_of.items():
            w = waiting.get(ctx, set())
            if committed.get(ctx) or w == set(members):
                laggards |= w
        self._laggards = laggards
        # Expected receive totals: every wrapper send is bookmarked at call
        # time and all drivers are quiesced, so these sums are final.
        expected = [0] * n
        for p in states.values():
            for dst, count in p["sent"].items():
                expected[dst] += count
        self._expected = expected
        settled = [r for r in range(n) if r not in laggards]
        edges = build_inflight_dag(
            {r: states[r]["sent"] for r in settled},
            {r: states[r]["received"] for r in settled},
        )
        waves, fallback = topological_waves(settled, edges)
        self._fallback = fallback
        self._waves = list(waves)
        if fallback:
            self._waves.append(fallback)
        if laggards:
            self._waves.append(tuple(sorted(laggards)))
        c._t_drain_start = now
        c._trace_phase("ckpt:topo-intent", "ckpt:topo-drain",
                       laggards=sorted(laggards),
                       waves=[list(w) for w in self._waves],
                       fallback=list(fallback))
        c._start_phase("topo-drain", CkptMsg.DRAINED)
        for index, r in enumerate(settled):
            self._send_drain(r, index=index)
        # laggards whose deferred exit raced the round: drain them now too
        for r in sorted(self._exited):
            self._send_drain(r)

    def _send_drain(self, rank: int, index: int = 0) -> None:
        c = self.c
        rt = c.runtimes[rank]
        c.engine.call_after(
            c.control.fanout_delay(index), rt.on_ctrl, CkptMsg.DRAIN,
            self._expected[rank], label=f"coord:{CkptMsg.DRAIN.value}->r{rank}",
        )

    # ------------------------------------------------------------- writing

    def _maybe_issue_waves(self) -> None:
        """Issue WRITEs for every leading wave whose ranks have all locally
        drained.  Waves are strictly ordered: a rank's write is never issued
        before the writes of every rank it depends on."""
        c = self.c
        while self._wave_issued < len(self._waves):
            wave = self._waves[self._wave_issued]
            if not all(r in self._drained for r in wave):
                return
            self._wave_issued += 1
            report = c.storage.burst(
                [self._sizes[r] for r in wave],
                [c.node_of[r] for r in wave],
                rng=c.rng,
            )
            if self._t_write_first is None:
                self._t_write_first = c.engine.now
                c._phase = "topo-write"
                tr = c.engine.tracer
                if tr.enabled:
                    c._spans["ckpt:topo-write"] = tr.begin(
                        "ckpt:topo-write", cat=Category.PROTOCOL
                    )
            for index, r in enumerate(wave):
                rt = c.runtimes[r]
                c.engine.call_after(
                    c.control.fanout_delay(index), rt.on_ctrl,
                    CkptMsg.WRITE, float(report.per_rank[index]),
                    label=f"coord:{CkptMsg.WRITE.value}->r{r}",
                )

    def _finish(self) -> None:
        c = self.c
        n = len(c.runtimes)
        t_end = c.engine.now
        images = [self._images[r] for r in range(n)]
        c._start_phase("idle", None)
        c._broadcast(CkptMsg.RESUME, lambda i: None)
        self.reset()
        total = t_end - c._t0
        drain = max(0.0, self._t_drain_last - c._t_drain_start)
        write = t_end - (
            self._t_write_first if self._t_write_first is not None else t_end
        )
        tr = c.engine.tracer
        if tr.enabled:
            c._trace_phase("ckpt:topo-write")
            c._trace_phase("ckpt", rounds=c._rounds, drain_s=drain,
                           write_s=write, quiesce_wait_s=self._quiesce_wait,
                           laggards=len(self._laggards),
                           fallback=len(self._fallback))
            tr.instant("ckpt:resume", cat=Category.PROTOCOL)
        c._resolve_report(
            total=total, drain=drain, write=write, images=images,
            quiesce_wait=self._quiesce_wait, fallback_ranks=self._fallback,
        )


_ENGINES = {
    Alg2Protocol.name: Alg2Protocol,
    TopoSortProtocol.name: TopoSortProtocol,
}


def make_protocol(name: str, coord) -> ProtocolEngine:
    """Instantiate the named protocol engine bound to ``coord``."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown checkpoint protocol {name!r} "
            f"(choose from {sorted(_ENGINES)})"
        ) from None
    return cls(coord)
