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

from operator import attrgetter
from typing import Any, Optional

from repro.mana.virtualize import HandleKind, VirtualHandleTable
from repro.mpilib.comm import Group
from repro.mpilib.datatypes import rebuild as rebuild_datatype
from repro.simtime import Completion, Engine

#: read once (an enum member read off its class goes through the enum
#: metaclass's ``__getattr__`` hook; see repro.mana.wrappers)
_COMM, _GROUP, _DATATYPE, _FILE = (
    HandleKind.COMM, HandleKind.GROUP, HandleKind.DATATYPE, HandleKind.FILE)


class ReplayError(RuntimeError):
    """A replay log that cannot be executed (corrupt, truncated, or from a
    future format).  Raised synchronously by :meth:`ReplayEngine.start` when
    the damage is visible up front, and otherwise delivered by resolving
    :attr:`ReplayEngine.finished` with the error instance — the engine never
    wedges with ``finished`` unresolved."""


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
    :mod:`repro.mana.log_compaction`).  ``None`` on every other entry.

    A long log holds one entry per persistent call ever made, so entries
    are slotted (no per-instance ``__dict__``) and built by a plain
    ``__init__``.  Nothing mutates an entry once it is recorded.  An entry
    pickles as a call of the class on its field values, so writing and
    reading a log runs no Python hook beyond the constructor.
    """

    __slots__ = ("op", "args", "result_vid", "result_kind", "group")

    def __init__(self, op: str, args: tuple, result_vid: Optional[int],
                 result_kind: HandleKind = HandleKind.COMM,
                 group: Optional[tuple] = None) -> None:
        self.op = op
        self.args = args
        self.result_vid = result_vid
        self.result_kind = result_kind
        self.group = group

    def _fields(self) -> tuple:
        return (self.op, self.args, self.result_vid, self.result_kind,
                self.group)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LogEntry:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"LogEntry(op={self.op!r}, args={self.args!r}, "
                f"result_vid={self.result_vid!r}, "
                f"result_kind={self.result_kind!r}, group={self.group!r})")

    def __reduce__(self) -> tuple:
        return (LogEntry, (self.op, self.args, self.result_vid,
                           self.result_kind, self.group))


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

    def record(self, op: str, args: tuple, result_vid: Optional[int],
               result_kind: HandleKind = HandleKind.COMM,
               group: Optional[tuple] = None) -> None:
        """Append one persistent-call entry (``args`` is a tuple)."""
        self.entries.append(LogEntry(op, args, result_vid, result_kind, group))

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
                 n_ranks: Optional[int] = None) -> dict:
        """Picklable ``{"entries", "local", "stats"}`` form for the image:
        the whole log, or with ``compact=True`` the log as the
        :mod:`~repro.mana.log_compaction` pass of an ``n_ranks`` job prunes
        it against the live table."""
        if not compact:
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

    def restore(self, snap: dict) -> None:
        """Install state captured by :meth:`snapshot`.  Nothing else holds
        a restored snapshot's entry list: it becomes the log as it is."""
        self.entries = snap["entries"]
        self.local_bindings = {k: dict(v) for k, v in snap["local"].items()}


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
        #: the collective entry whose lower-half call is in flight
        self._entry: Optional[LogEntry] = None

    def start(self) -> None:
        """Validate the log, apply local bindings, schedule the first event.

        Ops are checked *before* anything executes: a corrupted log raises
        :class:`ReplayError` here, synchronously, instead of wedging the
        engine halfway through a partial replay.
        """
        unknown = set(map(_op_of, self.log.entries)).difference(_HANDLERS)
        if unknown:
            raise ReplayError(
                f"log contains ops with no replay handler: {sorted(unknown)} "
                "(corrupted image, or one from a newer format?)"
            )
        for kind_name, bindings in self.log.local_bindings.items():
            kind = HandleKind(kind_name)
            for vid, payload in bindings.items():
                self.table.bind_replayed(kind, vid, self._build_local(payload))
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
    # log of any length replays in O(1) stack depth.  A collective entry
    # parks the loop (``_await``) until the lower half's completion fires;
    # ``_continue`` then re-enters the pump.  The re-entrancy guard makes a
    # completion that resolves synchronously equivalent to a local entry.

    def _pump(self) -> None:
        if self._pumping or self.error is not None:
            return
        self._pumping = True
        entries = self.log.entries
        entry = None
        try:
            while not self._blocked and self._idx < len(entries):
                entry = entries[self._idx]
                self._idx += 1
                handler = _HANDLERS.get(entry.op)
                if handler is None:
                    raise ReplayError(f"no replay handler for op {entry.op!r}")
                handler(self, entry)
        except Exception as exc:  # noqa: BLE001 - converted to a typed,
            self._fail(entry, exc)  # finished-resolving error
            return
        finally:
            self._pumping = False
        if (not self._blocked and self._idx >= len(entries)
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

    def _await(self, entry: LogEntry, done: Completion, then: Any) -> None:
        """Park the pump until the lower-half call ``done`` of ``entry``
        resolves; ``then`` (one of the ``_continue`` methods) takes over."""
        self._blocked = True
        self._entry = entry
        done.on_done(then)

    def _continue(self, real: Any) -> None:
        entry = self._entry
        self._entry = None
        if entry.result_vid is not None:
            self.table.bind_replayed(entry.result_kind, entry.result_vid, real)
        self.replayed += 1
        self._blocked = False
        self._pump()

    def _continue_file(self, real: Any) -> None:
        from repro.mana.wrappers import FileBinding

        vcomm, path, mode = self._entry.args
        self._continue(FileBinding(real=real, vcomm=vcomm, path=path,
                                   mode=mode))

    def _resolve_comm(self, vid: int) -> Any:
        return self.table.resolve(_COMM, vid)

    # ------------------------------------------------------------ handlers
    #
    # One per recorded op, found through ``_HANDLERS``.  A local handler
    # finishes its entry before it returns (and counts it); a collective
    # one hands the lower-half completion to ``_await``.

    def _replay_comm_dup(self, entry: LogEntry) -> None:
        (parent_vid,) = entry.args
        self._await(entry, self.endpoint.comm_dup(self._resolve_comm(parent_vid)),
                    self._continue)

    def _replay_comm_split(self, entry: LogEntry) -> None:
        parent_vid, color, key = entry.args
        self._await(entry, self.endpoint.comm_split(
            color, key, self._resolve_comm(parent_vid)), self._continue)

    def _replay_comm_create(self, entry: LogEntry) -> None:
        parent_vid, world_ranks = entry.args
        self._await(entry, self.endpoint.comm_create(
            Group(tuple(world_ranks)), self._resolve_comm(parent_vid)),
            self._continue)

    def _replay_cart_create(self, entry: LogEntry) -> None:
        parent_vid, dims, periods = entry.args
        self._await(entry, self.endpoint.cart_create(
            list(dims), list(periods), self._resolve_comm(parent_vid)),
            self._continue)

    def _replay_graph_create(self, entry: LogEntry) -> None:
        parent_vid, edges = entry.args
        self._await(entry, self.endpoint.graph_create(
            [tuple(e) for e in edges], self._resolve_comm(parent_vid)),
            self._continue)

    def _replay_comm_free(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        # The create entry earlier in the log re-bound this vid; retire it
        # again so the table converges to the pre-checkpoint bindings, and
        # release the real communicator in the fresh lower half too — the
        # original free released the old lower half's.
        real = self.table.unregister(_COMM, vid)
        if self.endpoint is not None:
            self.endpoint.comm_free(real)
        self.replayed += 1

    def _replay_type_create(self, entry: LogEntry) -> None:
        if entry.result_vid is None:
            raise ReplayError("type_create entry lacks a result vid")
        real = rebuild_datatype(entry.args[0])  # args: (recipe,)
        self.table.bind_replayed(_DATATYPE, entry.result_vid, real)
        self.replayed += 1

    def _replay_type_free(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        # Datatypes are value objects here: retiring the binding is the
        # whole release (nothing lives in the lower half for them).
        self.table.unregister(_DATATYPE, vid)
        self.replayed += 1

    # --------------------------------------------------------- file ops

    def _replay_file_open(self, entry: LogEntry) -> None:
        vcomm, path, mode = entry.args
        self._await(entry, self.endpoint.file_open(
            path, mode, self._resolve_comm(vcomm)), self._continue_file)

    def _replay_file_close(self, entry: LogEntry) -> None:
        (vid,) = entry.args
        binding = self.table.resolve(_FILE, vid)
        # close() releases the real handle in the fresh lower half's ledger.
        binding.real.close()
        self.table.unregister(_FILE, vid)
        self.replayed += 1

    # ------------------------------------------------- group ops (local)

    def _rebind_group(self, entry: LogEntry, group: Group) -> None:
        if entry.result_vid is None:
            raise ReplayError(
                f"group entry {entry.op!r} lacks a result vid"
            )
        self.table.bind_replayed(_GROUP, entry.result_vid, group)
        self.replayed += 1

    def _replay_comm_group(self, entry: LogEntry) -> None:
        (parent_vid,) = entry.args
        self._rebind_group(entry, self._resolve_comm(parent_vid).group)

    def _resolve_group(self, vid: int) -> Group:
        return self.table.resolve(_GROUP, vid)

    def _replay_group_incl(self, entry: LogEntry) -> None:
        vgroup, ranks = entry.args
        self._rebind_group(entry, self._resolve_group(vgroup).incl(ranks))

    def _replay_group_excl(self, entry: LogEntry) -> None:
        vgroup, ranks = entry.args
        self._rebind_group(entry, self._resolve_group(vgroup).excl(ranks))

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
        self.table.unregister(_GROUP, vid)
        self.replayed += 1


#: op -> its replay handler (an unbound ``ReplayEngine._replay_<op>``)
_HANDLERS = {
    name[len("_replay_"):]: fn for name, fn in vars(ReplayEngine).items()
    if name.startswith("_replay_")
}

_op_of = attrgetter("op")
