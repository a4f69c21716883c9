"""Record-replay of persistent MPI calls (§2.2).

"MPI calls with persistent effects (such as creation of these opaque
objects) are recorded during runtime and replayed on restart."

Each rank keeps an ordered log of the communicator-, topology- and
datatype-shaping calls it made, with every handle argument expressed as a
*virtual* id.  At restart, MANA replays the log against the fresh lower
half: communicator-management entries are genuine collectives in the new
MPI library, so all ranks replay concurrently and their calls match exactly
as the originals did.

At checkpoint time the log can be *compacted* (``snapshot(compact=True)``,
see :mod:`repro.mana.log_compaction` and docs/record_replay.md): dead
create/free pairs cancel, and purely local entries (datatypes, group
algebra) are replaced by direct value bindings restored at replay start —
restart cost then tracks live handles, not call history.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional

from repro.mana.virtualize import HandleKind, VirtualHandleTable
from repro.mpilib.comm import Group
from repro.mpilib.datatypes import rebuild as rebuild_datatype
from repro.simtime import Completion, Engine


class ReplayError(RuntimeError):
    """A replay log that cannot be executed (corrupt, truncated, or from a
    future format).  Raised synchronously by :meth:`ReplayEngine.start` when
    the damage is visible up front, and otherwise delivered by resolving
    :attr:`ReplayEngine.finished` with the error instance — the engine never
    wedges with ``finished`` unresolved."""


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One recorded persistent call.

    ``op`` names the MPI operation; ``args`` are plain data and virtual
    handles only (picklable); ``result_vid`` is the virtual id the original
    call produced (None for frees and for non-member comm_create/split
    results); ``result_kind`` is the handle namespace that id lives in, so
    replay rebinds into the right table even for non-comm results.

    ``group`` records the result communicator's membership (world ranks)
    for communicator-producing collectives.  Replay never needs it — the
    fresh collective recomputes the membership — but checkpoint-time
    compaction does: a ``comm_split`` may only cancel when its recorded
    result membership equals the parent's (see
    :mod:`repro.mana.log_compaction`).  ``None`` on non-comm entries and on
    entries restored from images that predate the field.

    A long log holds one entry per persistent call ever made, so entries
    are slotted (no per-instance ``__dict__``).  Pickle state is the tuple
    of field values in declaration order.  Images written before entries
    were slotted hold each entry's ``__dict__`` instead, possibly without
    ``group``; :meth:`__setstate__` accepts both shapes.
    """

    op: str
    args: tuple
    result_vid: Optional[int]
    result_kind: HandleKind = HandleKind.COMM
    group: Optional[tuple] = None


_ENTRY_FIELDS = tuple(f.name for f in fields(LogEntry))


def _entry_getstate(self: LogEntry) -> tuple:
    return tuple(getattr(self, name) for name in _ENTRY_FIELDS)


def _entry_setstate(self: LogEntry, state: Any) -> None:
    if isinstance(state, dict):  # an unslotted entry's __dict__
        state = (state["op"], state["args"], state["result_vid"],
                 state.get("result_kind", HandleKind.COMM),
                 state.get("group"))
    for name, value in zip(_ENTRY_FIELDS, state):
        object.__setattr__(self, name, value)


# Set after decoration: on Python 3.10, ``dataclass(slots=True)`` replaces
# the pickle hooks of a frozen class with its own, which zip the field
# names with whatever the state is (an old image's dict gives its keys).
LogEntry.__getstate__ = _entry_getstate
LogEntry.__setstate__ = _entry_setstate


def _normalize_entry(e: LogEntry) -> LogEntry:
    """Back-compat shim for entries restored from older images.

    * ``type_create`` used to carry the vid redundantly in ``args`` next to
      ``result_vid``; ``result_vid``/``result_kind`` are now the single
      source of truth and the args shrink to ``(recipe,)``.
    * ``group`` did not exist.  Unpickling fills it with ``None`` (see
      :func:`_entry_setstate`); an entry whose slot is still unset gets
      ``None`` here.

    Entries already in the current shape are returned as they are, so a
    restored log is held once rather than rebuilt entry by entry.
    """
    args = e.args
    if e.op == "type_create" and len(args) == 2:
        args = (args[0],)
    elif hasattr(e, "group"):
        return e
    return LogEntry(e.op, args, e.result_vid, e.result_kind,
                    getattr(e, "group", None))


class RecordLog:
    """Ordered per-rank log of persistent calls.

    ``local_bindings`` holds value snapshots of live local handles (groups
    as world-rank tuples, datatypes as constructor recipes) restored by
    direct table binding instead of replay.  It is populated by a
    ``compact=True`` snapshot and carried forward by later snapshots, since
    the corresponding create entries are gone from ``entries`` for good.
    """

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        #: kind name -> {vid -> ("group", ranks) | ("datatype", recipe)}
        self.local_bindings: dict[str, dict[int, tuple]] = {}
        #: stats of the compaction pass that produced this log (if any)
        self.compaction_stats: Optional[dict] = None

    def record(self, op: str, args: tuple, result_vid: Optional[int],
               result_kind: HandleKind = HandleKind.COMM,
               group: Optional[tuple] = None) -> None:
        """Append one persistent-call entry."""
        self.entries.append(
            LogEntry(op, tuple(args), result_vid, result_kind, group)
        )

    def __len__(self) -> int:
        return len(self.entries)

    # ---------------------------------------------------------- snapshot

    @staticmethod
    def _local_payloads(table: VirtualHandleTable) -> dict:
        """Value snapshots of every live local handle, straight from the
        table: these restore by direct binding, no replay."""
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

    def snapshot(self, compact: bool = False,
                 table: Optional[VirtualHandleTable] = None,
                 n_ranks: Optional[int] = None) -> Any:
        """Picklable representation for the checkpoint image.

        Plain mode returns the bare entry list (the historical shape)
        unless local bindings must ride along; ``compact=True`` runs the
        :mod:`~repro.mana.log_compaction` pass against the live table and
        returns the pruned dict form.  ``restore`` accepts every shape.
        """
        if not compact:
            if not self.local_bindings:
                return list(self.entries)
            return {
                "entries": list(self.entries),
                "local": {k: dict(v) for k, v in self.local_bindings.items()},
                "stats": None,
            }
        if table is None:
            raise ValueError("compact snapshot needs the live handle table")
        from repro.mana.log_compaction import compact_log

        live = {kind: set(table.bound(kind)) for kind in HandleKind}
        result = compact_log(self.entries, live, n_ranks=n_ranks)
        local = self._local_payloads(table)
        result.stats.snapshot_bindings = sum(len(v) for v in local.values())
        return {
            "entries": result.entries,
            "local": local,
            "stats": result.stats.as_dict(),
        }

    def restore(self, snap: Any) -> None:
        """Install state captured by :meth:`snapshot` (any historical shape)."""
        if isinstance(snap, dict):
            entries = snap["entries"]
            self.local_bindings = {
                k: dict(v) for k, v in snap.get("local", {}).items()
            }
            self.compaction_stats = snap.get("stats")
        else:
            entries = snap
            self.local_bindings = {}
            self.compaction_stats = None
        self.entries = [_normalize_entry(e) for e in entries]


class ReplayEngine:
    """Replays one rank's log against a fresh endpoint, rebinding virtuals.

    Entries run strictly in order; communicator-management entries are real
    collectives on the new world, so every participating rank's ReplayEngine
    must be started before any of them can finish.  :attr:`finished`
    resolves when the whole log has been replayed — with the replayed-entry
    count on success, or with a :class:`ReplayError` instance (also stored
    on :attr:`error`) if an entry cannot be executed.

    Compacted logs carry ``local_bindings``: value snapshots of live
    datatype/group handles, bound directly into the table by :meth:`start`
    (counted in :attr:`restored_bindings`) before any entry replays.
    """

    def __init__(self, engine: Engine, endpoint: Any, table: VirtualHandleTable,
                 log: RecordLog, label: str = "replay") -> None:
        self.engine = engine
        self.endpoint = endpoint
        self.table = table
        self.log = log
        self.finished = Completion(engine, label=f"{label}:finished")
        self._idx = 0
        self.replayed = 0
        self.restored_bindings = 0
        self.error: Optional[ReplayError] = None
        self._pumping = False
        self._blocked = False

    def start(self) -> None:
        """Validate the log, apply local bindings, schedule the first event.

        Ops are checked *before* anything executes: a corrupted log raises
        :class:`ReplayError` here, synchronously, instead of wedging the
        engine halfway through a partial replay.
        """
        unknown = sorted({
            e.op for e in self.log.entries
            if getattr(self, f"_replay_{e.op}", None) is None
        })
        if unknown:
            raise ReplayError(
                f"log contains ops with no replay handler: {unknown} "
                "(corrupted image, or one from a newer format?)"
            )
        for kind_name, bindings in self.log.local_bindings.items():
            kind = HandleKind(kind_name)
            for vid, payload in bindings.items():
                self._bind(kind, vid, self._build_local(payload))
                self.restored_bindings += 1
        # COMM_WORLD is predefined and already bound; pump the entries.
        self.engine.call_after(0.0, self._pump, label="replay:start")

    @staticmethod
    def _build_local(payload: tuple) -> Any:
        tag = payload[0]
        if tag == "group":
            return Group(tuple(payload[1]))
        if tag == "datatype":
            return rebuild_datatype(payload[1])
        raise ReplayError(f"unknown local-binding payload {tag!r}")

    # ------------------------------------------------------------ stepping
    #
    # The drain loop is iterative: local entries (datatypes, group algebra,
    # frees) complete synchronously inside one pass of the while loop, so a
    # log of any length replays in O(1) stack depth.  Collective entries
    # park the loop (``_blocked``) until the lower half's completion fires;
    # ``_continue`` then re-enters the pump.  The re-entrancy guard makes a
    # completion that resolves synchronously equivalent to a local entry.

    def _pump(self) -> None:
        if self._pumping or self.error is not None:
            return
        self._pumping = True
        try:
            while not self._blocked and self._idx < len(self.log.entries):
                entry = self.log.entries[self._idx]
                self._idx += 1
                handler = getattr(self, f"_replay_{entry.op}", None)
                try:
                    if handler is None:
                        raise ReplayError(
                            f"no replay handler for op {entry.op!r}"
                        )
                    self._blocked = True
                    handler(entry)
                except Exception as exc:  # noqa: BLE001 - converted to a
                    self._fail(entry, exc)  # typed, finished-resolving error
                    return
        finally:
            self._pumping = False
        if (not self._blocked and self._idx >= len(self.log.entries)
                and not self.finished.done):
            self.finished.resolve(self.replayed)

    def _fail(self, entry: LogEntry, exc: Exception) -> None:
        """Record a typed error and resolve ``finished`` with it: a broken
        log surfaces cleanly instead of hanging the restart."""
        if isinstance(exc, ReplayError):
            err = exc
        else:
            err = ReplayError(
                f"replaying {entry.op!r} (entry {self._idx - 1}) failed: {exc}"
            )
            err.__cause__ = exc
        self.error = err
        self._blocked = True  # no further entries execute
        if not self.finished.done:
            self.finished.resolve(err)

    def _local_done(self) -> None:
        """A local entry finished synchronously; the pump loop continues."""
        self.replayed += 1
        self._blocked = False

    def _continue(self, entry: LogEntry, real: Any) -> None:
        if entry.result_vid is not None:
            self._bind(entry.result_kind, entry.result_vid, real)
        self.replayed += 1
        self._blocked = False
        self._pump()

    def _bind(self, kind: HandleKind, vid: int, real: Any) -> None:
        """Bind a replayed creation result under its original virtual id.

        Handles still bound when the image was cut are *rebinds* (the strict
        path — the restored table expects exactly those ids); handles that
        were freed again before the checkpoint are fresh registrations that
        a later free entry in this same log will retire.
        """
        if self.table.expects_rebind(kind, vid):
            self.table.rebind(kind, vid, real)
        else:
            self.table.register(kind, real, virtual=vid)

    def _resolve_comm(self, vid: int) -> Any:
        return self.table.resolve(HandleKind.COMM, vid)

    # ------------------------------------------------------------ handlers

    def _replay_comm_dup(self, entry: LogEntry) -> None:
        (parent_vid,) = entry.args
        done = self.endpoint.comm_dup(self._resolve_comm(parent_vid))
        done.on_done(lambda real: self._continue(entry, real))

    def _replay_comm_split(self, entry: LogEntry) -> None:
        parent_vid, color, key = entry.args
        done = self.endpoint.comm_split(color, key, self._resolve_comm(parent_vid))
        done.on_done(lambda real: self._continue(entry, real))

    def _replay_comm_create(self, entry: LogEntry) -> None:
        parent_vid, world_ranks = entry.args
        done = self.endpoint.comm_create(
            Group(tuple(world_ranks)), self._resolve_comm(parent_vid)
        )
        done.on_done(lambda real: self._continue(entry, real))

    def _replay_cart_create(self, entry: LogEntry) -> None:
        parent_vid, dims, periods = entry.args
        done = self.endpoint.cart_create(
            list(dims), list(periods), self._resolve_comm(parent_vid)
        )
        done.on_done(lambda real: self._continue(entry, real))

    def _replay_graph_create(self, entry: LogEntry) -> None:
        parent_vid, edges = entry.args
        done = self.endpoint.graph_create(
            [tuple(e) for e in edges], self._resolve_comm(parent_vid)
        )
        done.on_done(lambda real: self._continue(entry, real))

    def _replay_comm_free(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        # The create entry earlier in the log re-bound this vid; retire it
        # again so the table converges to the pre-checkpoint bindings, and
        # release the real communicator in the fresh lower half too — the
        # original free released the old lower half's.
        real = self.table.resolve(HandleKind.COMM, vid)
        if self.endpoint is not None:
            self.endpoint.comm_free(real)
        self.table.unregister(HandleKind.COMM, vid)
        self._local_done()

    def _replay_type_create(self, entry: LogEntry) -> None:
        if entry.result_vid is None:
            raise ReplayError("type_create entry lacks a result vid")
        (recipe,) = entry.args
        real = rebuild_datatype(recipe)
        self._bind(HandleKind.DATATYPE, entry.result_vid, real)
        self._local_done()

    def _replay_type_free(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        # Datatypes are value objects here: retiring the binding is the
        # whole release (nothing lives in the lower half for them).
        self.table.unregister(HandleKind.DATATYPE, vid)
        self._local_done()

    # --------------------------------------------------------- file ops

    def _replay_file_open(self, entry: LogEntry) -> None:
        from repro.mana.wrappers import FileBinding

        vcomm, path, mode = entry.args
        done = self.endpoint.file_open(path, mode, self._resolve_comm(vcomm))

        def rebind(real: Any) -> None:
            binding = FileBinding(real=real, vcomm=vcomm, path=path, mode=mode)
            self._continue(entry, binding)

        done.on_done(rebind)

    def _replay_file_close(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        binding = self.table.resolve(HandleKind.FILE, vid)
        # close() releases the real handle in the fresh lower half's ledger.
        binding.real.close()
        self.table.unregister(HandleKind.FILE, vid)
        self._local_done()

    # ------------------------------------------------- group ops (local)

    def _rebind_group(self, entry: LogEntry, group: Group) -> None:
        if entry.result_vid is None:
            raise ReplayError(
                f"group entry {entry.op!r} lacks a result vid"
            )
        self._bind(HandleKind.GROUP, entry.result_vid, group)
        self._local_done()

    def _replay_comm_group(self, entry: LogEntry) -> None:
        (parent_vid,) = entry.args
        self._rebind_group(entry, self._resolve_comm(parent_vid).group)

    def _resolve_group(self, vid: int) -> Group:
        return self.table.resolve(HandleKind.GROUP, vid)

    def _replay_group_incl(self, entry: LogEntry) -> None:
        vgroup, ranks = entry.args
        self._rebind_group(entry, self._resolve_group(vgroup).incl(list(ranks)))

    def _replay_group_excl(self, entry: LogEntry) -> None:
        vgroup, ranks = entry.args
        self._rebind_group(entry, self._resolve_group(vgroup).excl(list(ranks)))

    def _replay_group_union(self, entry: LogEntry) -> None:
        va, vb = entry.args
        self._rebind_group(
            entry, self._resolve_group(va).union(self._resolve_group(vb))
        )

    def _replay_group_intersection(self, entry: LogEntry) -> None:
        va, vb = entry.args
        self._rebind_group(
            entry,
            self._resolve_group(va).intersection(self._resolve_group(vb)),
        )

    def _replay_group_free(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        # Groups are value objects: no lower-half resource to release.
        self.table.unregister(HandleKind.GROUP, vid)
        self._local_done()
