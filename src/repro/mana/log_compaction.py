"""Checkpoint-time compaction of the record-replay log.

MANA's record log grows with *call history*: a job that churns
communicators, datatypes or files for a month replays every one of those
calls at restart, even though almost all of them created handles that were
freed long ago.  The implementation-oblivious line of work (PAPERS.md,
arXiv:2309.14996) prunes the log at checkpoint time so restart cost tracks
*live* handles instead.  This module is that pass.

Three mechanisms, applied per rank over the rank-local log:

**Dead-handle elimination.**  A create whose result handle was freed again
before the checkpoint — and whose handle is not referenced by any entry the
compactor keeps — cancels together with its free.  Liveness flows backward
through the handle-dependency DAG: a kept entry pins the creates of every
virtual id it references (a live sub-sub-communicator pins its parent's
split, which pins the grandparent's dup, ...).

**Cross-rank-consistent collective cancellation.**  Communicator-management
entries are genuine collectives at replay: every member of the parent
communicator must replay the entry or none may, or the survivors block in
:meth:`~repro.mpilib.world.MpiWorld.collective_arrive` forever.  Each rank
compacts alone, so cancellation is restricted to predicates that are
provably *symmetric* across the participants under MPI semantics (frees of
collectively-created handles are themselves collective, MPI-2.2 §6.4.3):

* ``comm_dup`` / ``cart_create`` / ``graph_create`` / ``file_open``
  preserve the parent's membership — every participant holds a pair-freed
  create exactly when this rank does, so a pair-freed, unreferenced entry
  cancels everywhere.
* ``comm_split`` cancels only when the *recorded result membership* equals
  the parent's membership (single colour, nobody undefined): then the
  participant set saw identical histories.  Proper-subset splits and
  non-member entries (``result_vid is None``) are always kept — the
  non-members cannot observe the members' liveness, so nobody cancels.
* ``comm_create`` cancels only when the recorded target group equals the
  parent's membership, by the same argument.

Membership is tracked symbolically while walking the log (the world
communicator seeds it; every communicator result records its group), and the
:func:`check_collective_consistency` oracle re-derives the global replay
schedule from all ranks' compacted logs to verify that no rank is left
waiting on a cancelled participant — the conformance harness runs it on
every compacted checkpoint.

**Local-entry elision (the snapshot fast path).**  Datatype and
group-algebra entries are local in MPI: nothing in a kept collective entry
ever references them (``comm_create`` records resolved world ranks, not
group vids), so *all* of them leave the log.  Live GROUP/DATATYPE handles
are instead captured as value snapshots straight from the virtual-handle
table (a group is its world-rank tuple, a datatype its constructor recipe)
and restored by direct table binding at replay start — no re-execution,
and dead chains of ``group_incl``/``group_union``/... vanish entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mana.virtualize import VCOMM_WORLD, HandleKind

if TYPE_CHECKING:  # pragma: no cover - import cycle (record_replay imports us)
    from repro.mana.record_replay import LogEntry


#: Collective creates: replaying one is a real collective over the parent
#: communicator's membership in the fresh lower half.
COLLECTIVE_CREATE_OPS = frozenset({
    "comm_dup", "comm_split", "comm_create", "cart_create", "graph_create",
    "file_open",
})

#: Collective creates that provably preserve the parent's membership (and
#: whose frees are collective over that same membership): pair-freed,
#: unreferenced instances cancel symmetrically on every participant.
_MEMBERSHIP_PRESERVING = frozenset({
    "comm_dup", "cart_create", "graph_create", "file_open",
})

#: Purely local creates: elided wholesale by the snapshot fast path.
LOCAL_CREATE_OPS = frozenset({
    "type_create", "comm_group", "group_incl", "group_excl",
    "group_union", "group_intersection",
})

#: Free/retire ops, with the handle namespace they operate on (the kind's
#: value: compaction keys handles by ``(kind value, vid)``, as the
#: virtual-handle table does, because hashing an enum member is a
#: Python-level call).  A free's keep/cancel decision is always the same as
#: its create's.
FREE_OPS = {
    "comm_free": HandleKind.COMM.value,
    "file_close": HandleKind.FILE.value,
    "group_free": HandleKind.GROUP.value,
    "type_free": HandleKind.DATATYPE.value,
}

_COMM, _COMM_KEY, _GROUP_KEY = (
    HandleKind.COMM, HandleKind.COMM.value, HandleKind.GROUP.value)
#: namespaces whose live handles the snapshot fast path restores
_LOCAL_KINDS = frozenset({HandleKind.GROUP.value, HandleKind.DATATYPE.value})
_COMM_REF_OPS = frozenset({
    "comm_dup", "comm_group", "comm_split", "comm_create", "cart_create",
    "graph_create", "file_open",
})


def entry_refs(entry: "LogEntry") -> tuple:
    """(kind value, vid) pairs this entry's replay resolves (excluding its
    result)."""
    op = entry.op
    if op in _COMM_REF_OPS:
        return ((_COMM_KEY, entry.args[0]),)
    if op in ("group_incl", "group_excl"):
        return ((_GROUP_KEY, entry.args[0]),)
    if op in ("group_union", "group_intersection"):
        return ((_GROUP_KEY, entry.args[0]), (_GROUP_KEY, entry.args[1]))
    if op in FREE_OPS:
        return ((FREE_OPS[op], entry.args[0]),)
    return ()


@dataclass
class CompactionStats:
    """What one rank's compaction pass did (stored in the image)."""

    examined: int = 0
    kept: int = 0
    #: create+free pairs of collective handles cancelled together
    cancelled_pairs: int = 0
    #: local (datatype / group-algebra) entries elided by the fast path
    elided_local: int = 0
    #: live GROUP/DATATYPE handles captured as direct table bindings
    snapshot_bindings: int = 0

    def as_dict(self) -> dict:
        """Plain-dict form, as stored in the checkpoint image."""
        return {
            "examined": self.examined,
            "kept": self.kept,
            "cancelled_pairs": self.cancelled_pairs,
            "elided_local": self.elided_local,
            "snapshot_bindings": self.snapshot_bindings,
        }


@dataclass
class CompactionResult:
    """Kept entries (original order preserved) plus the pass statistics."""

    entries: list = field(default_factory=list)
    stats: CompactionStats = field(default_factory=CompactionStats)


def comm_membership(entries: list, n_ranks: int) -> dict:
    """Symbolic comm-vid -> frozenset(world ranks), walking the log forward."""
    members: dict = {VCOMM_WORLD: frozenset(range(n_ranks))}
    for e in entries:
        if e.result_kind is _COMM and e.result_vid is not None:
            members[e.result_vid] = frozenset(e.group)
    return members


def _cancellable(entry: "LogEntry", members: dict) -> bool:
    """May this dead, unreferenced, pair-freed collective create cancel?

    Only when every replay participant provably reaches the same decision
    from its own rank-local log (see the module docstring).
    """
    if entry.op in _MEMBERSHIP_PRESERVING:
        return True
    # comm_split / comm_create: only when the result spans the parent
    return members[entry.result_vid] == members[entry.args[0]]


def compact_log(entries: list, live: dict, n_ranks: int) -> CompactionResult:
    """One rank's compaction pass over the log of an ``n_ranks`` job.

    ``entries`` is the full recorded log; ``live`` maps each
    :class:`HandleKind` to the set of virtual ids still bound when the
    image is cut (the virtual-handle table's bound sets).  Entries are only
    ever *deleted*, never reordered — replay's collective-matching order is
    exactly the surviving subsequence.
    """
    stats = CompactionStats(examined=len(entries))
    freed_at: dict = {}
    for i, e in enumerate(entries):
        kind = FREE_OPS.get(e.op)
        if kind is not None:
            freed_at[(kind, e.args[0])] = i

    members = comm_membership(entries, n_ranks)
    live_set = {
        (kind._value_, vid) for kind, vids in live.items() for vid in vids
    }

    keep = [False] * len(entries)
    needed: set = set()

    # Reverse walk: every reference points backward (vids are minted in
    # order), so by the time a create is visited every entry that could
    # reference it has already been decided.
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        op = e.op
        if op in FREE_OPS:
            continue  # a free's fate is decided with its create, below
        if op in LOCAL_CREATE_OPS:
            continue  # elided: the snapshot fast path restores live ones
        if op in COLLECTIVE_CREATE_OPS:
            if e.result_vid is None:
                # Non-member participation (comm_split undefined colour,
                # comm_create outsider): always kept, so member ranks —
                # which cannot see our liveness — keep theirs too.
                keep[i] = True
                needed.update(entry_refs(e))
                continue
            key = (e.result_kind._value_, e.result_vid)
            free_idx = freed_at.get(key)
            if key in live_set or key in needed:
                keep[i] = True
                if free_idx is not None:
                    # Kept only as a dependency: replay must still retire
                    # the vid so the table converges to the snapshot.
                    keep[free_idx] = True
                needed.update(entry_refs(e))
            elif free_idx is not None and _cancellable(e, members):
                stats.cancelled_pairs += 1
            else:
                keep[i] = True
                if free_idx is not None:
                    keep[free_idx] = True
                needed.update(entry_refs(e))
            continue
        # Unknown op: keep conservatively (forward compatibility).
        keep[i] = True
        needed.update(entry_refs(e))

    kept_entries = [e for e, kept in zip(entries, keep) if kept]
    stats.kept = len(kept_entries)
    stats.elided_local = sum(
        1 for e, kept in zip(entries, keep)
        if not kept
        and (e.op in LOCAL_CREATE_OPS or FREE_OPS.get(e.op) in _LOCAL_KINDS)
    )
    return CompactionResult(entries=kept_entries, stats=stats)


# --------------------------------------------------------------- oracle

def check_collective_consistency(
    logs: list, n_ranks: int
) -> list[str]:
    """Verify that all ranks' (compacted) logs admit a deadlock-free replay.

    Re-derives the global collective schedule: repeatedly finds a
    communicator-management instance whose *every* participant has it as
    their next collective entry, and advances them together — exactly what
    :meth:`MpiWorld.collective_arrive` requires at replay.  If no instance
    can advance while entries remain, some rank cancelled an entry its
    peers kept (or vice versa); the stuck ranks are reported.

    Returns a list of human-readable problems (empty = consistent).
    """
    queues = [
        [e for e in log if e.op in COLLECTIVE_CREATE_OPS] for log in logs
    ]
    ptr = [0] * len(logs)
    gid: list[dict] = [{VCOMM_WORLD: ("W",)} for _ in logs]
    members_of: dict = {("W",): frozenset(range(n_ranks))}
    seq: dict = {}

    def advance_instance(r: int) -> bool:
        e = queues[r][ptr[r]]
        pg = gid[r].get(e.args[0])
        if pg is None:
            return False  # parent never materialized here: stuck
        part = members_of[pg]
        for q in part:
            if ptr[q] >= len(queues[q]):
                return False
            eq = queues[q][ptr[q]]
            if eq.op != e.op or gid[q].get(eq.args[0]) != pg:
                return False
        k = seq.get((pg, e.op), 0)
        seq[(pg, e.op)] = k + 1
        for q in part:
            eq = queues[q][ptr[q]]
            if eq.result_vid is not None and eq.result_kind is _COMM:
                if e.op == "comm_split":
                    child = (pg, "split", k, eq.args[1])
                else:
                    child = (pg, e.op, k)
                gid[q][eq.result_vid] = child
                members_of[child] = frozenset(eq.group)
            ptr[q] += 1
        return True

    progress = True
    while progress:
        progress = False
        for r in range(len(logs)):
            if ptr[r] < len(queues[r]) and advance_instance(r):
                progress = True
                break

    problems = []
    for r in range(len(logs)):
        if ptr[r] < len(queues[r]):
            e = queues[r][ptr[r]]
            problems.append(
                f"rank {r} stuck at collective entry {ptr[r]} "
                f"({e.op} on comm vid {e.args[0]}): some participant "
                "pruned it or never reaches it"
            )
    return problems
