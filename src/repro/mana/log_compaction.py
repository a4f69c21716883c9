"""Checkpoint-time compaction of the record-replay log.

MANA's record log grows with *call history*: a job that churns
communicators, datatypes or files for a month replays every one of those
calls at restart, even though almost all of them created handles that were
freed long ago.  The implementation-oblivious line of work (PAPERS.md,
arXiv:2309.14996) rebuilds each live MPI object from a *descriptor* instead
of replaying its history, so restart cost tracks live handles.  This module
is that pass: it ignores what the log holds and describes the virtual-handle
table as it stands when the image is cut.

**Communicators.**  Each live communicator other than ``VCOMM_WORLD``
becomes one ``comm_create_group`` entry with args ``(world_ranks, k,
topology)``: its members in rank order, its index ``k`` among this rank's
rebuilt communicators with the same member tuple (in vid order), and its
Cartesian or graph topology, if any.  Replay recreates it in one
MPI_Comm_create_group over its members only, under its old vid.

**Order.**  Entries are sorted by ``(world_ranks, k)``.  Every member
computes the same key for the same communicator: collective creates are
totally ordered on each member, and vids are minted in call order.  Any
total order of keys shared by all ranks replays without deadlock — the
smallest pending key always has all of its members waiting on it.

**Files.**  Each live file becomes a ``file_open`` on its recreated
communicator, right after that communicator's entry (files on the world
communicator come first).  If the communicator itself was freed, it is
recreated under its old vid, the files are opened on it, and a
``comm_free`` retires the vid again.

**Groups and datatypes** are local in MPI: their live handles ride as value
bindings (a group is its world-rank tuple, a datatype its constructor
recipe) restored by direct table binding at replay start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mana.record_replay import LogEntry
from repro.mana.virtualize import VCOMM_WORLD, HandleKind, VirtualHandleTable


@dataclass
class CompactionStats:
    """What one rank's compaction pass did (stored in the image)."""

    #: entries in the log the image replaces
    examined: int = 0
    #: descriptor entries the image holds instead
    kept: int = 0
    #: live GROUP/DATATYPE handles captured as direct table bindings
    snapshot_bindings: int = 0

    def as_dict(self) -> dict:
        """Plain-dict form, as stored in the checkpoint image."""
        return {
            "examined": self.examined,
            "kept": self.kept,
            "snapshot_bindings": self.snapshot_bindings,
        }


@dataclass
class CompactionResult:
    """Descriptor entries, local value bindings and the pass statistics."""

    entries: list = field(default_factory=list)
    #: kind name -> {vid -> ("group", ranks) | ("datatype", recipe)}
    local: dict = field(default_factory=dict)
    stats: CompactionStats = field(default_factory=CompactionStats)


def local_payloads(table: VirtualHandleTable) -> dict:
    """Value snapshots of every live local handle, straight from the table:
    these restore by direct binding, no replay."""
    local: dict = {}
    groups = {
        vid: ("group", tuple(g.world_ranks))
        for vid, g in table.bound(HandleKind.GROUP).items()
    }
    if groups:
        local[HandleKind.GROUP.value] = groups
    dtypes = {
        vid: ("datatype", dt.recipe)
        for vid, dt in table.bound(HandleKind.DATATYPE).items()
    }
    if dtypes:
        local[HandleKind.DATATYPE.value] = dtypes
    return local


def compact_log(entries: list, table: VirtualHandleTable) -> CompactionResult:
    """One rank's compaction pass: describe the live handles of ``table``.

    ``entries`` is the log the image replaces; only its length is read.
    """
    comms = table.bound(HandleKind.COMM)
    files = sorted(table.bound(HandleKind.FILE).items())
    # a freed communicator a live file was opened on is rebuilt too
    rebuilt = {vid: real for vid, real in comms.items() if vid != VCOMM_WORLD}
    for _vid, binding in files:
        if binding.vcomm not in comms:
            rebuilt[binding.vcomm] = binding.real.comm

    items = {(): []}  # sort key -> entries; () sorts first: world files
    keys = {VCOMM_WORLD: ()}
    seen: dict = {}
    for vid in sorted(rebuilt):
        real = rebuilt[vid]
        ranks = tuple(real.group.world_ranks)
        k = seen.get(ranks, 0)
        seen[ranks] = k + 1
        keys[vid] = (ranks, k)
        items[(ranks, k)] = [LogEntry(
            "comm_create_group", (ranks, k, real.topology), vid,
            HandleKind.COMM)]
    for vid, binding in files:
        items[keys[binding.vcomm]].append(LogEntry(
            "file_open", (binding.vcomm, binding.path, binding.mode), vid,
            HandleKind.FILE))
    for vid in rebuilt:
        if vid not in comms:
            items[keys[vid]].append(
                LogEntry("comm_free", (vid,), None, HandleKind.COMM))

    out = [entry for key in sorted(items) for entry in items[key]]
    local = local_payloads(table)
    stats = CompactionStats(
        examined=len(entries), kept=len(out),
        snapshot_bindings=sum(len(v) for v in local.values()))
    return CompactionResult(entries=out, local=local, stats=stats)

