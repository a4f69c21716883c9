"""Record-replay of persistent MPI calls (§2.2).

"MPI calls with persistent effects (such as creation of these opaque
objects) are recorded during runtime and replayed on restart."

Each rank keeps an ordered log of the communicator-, topology- and
datatype-shaping calls it made, with every handle argument expressed as a
*virtual* id.  At restart, MANA replays the log against the fresh lower
half: communicator-management entries are genuine collectives in the new
MPI library, so all ranks replay concurrently and their calls match exactly
as the originals did.

The log is held encoded, as the pickled chunks its images carry
(:class:`RecordLog`), and replay decodes one chunk at a time.

A job's log can be *compacted* (``JobOptions.compact``, see
:mod:`repro.mana.log_compaction` and docs/record_replay.md): it then counts
calls instead of keeping them, and each image holds one
``comm_create_group`` descriptor per live communicator and direct value
bindings for live datatypes and groups, so restart cost tracks live
handles, not call history.
"""

from __future__ import annotations

import pickle
from operator import itemgetter
from typing import Any, Iterator, Optional

from repro.mana.virtualize import HandleKind, VirtualHandleTable
from repro.mana.wrappers import FileBinding, close_file
from repro.mpilib.comm import Group
from repro.mpilib.datatypes import rebuild as rebuild_datatype
from repro.simtime import Completion, Engine

#: read once (an enum member read off its class goes through the enum
#: metaclass's ``__getattr__`` hook; see repro.mana.wrappers)
_COMM, _GROUP, _DATATYPE, _FILE = (
    HandleKind.COMM, HandleKind.GROUP, HandleKind.DATATYPE, HandleKind.FILE)

#: rows a log keeps as live tuples before it seals them into one chunk
TAIL_ROWS = 256


class ReplayError(RuntimeError):
    """A replay log that cannot be executed (corrupt, truncated, or from a
    future format).  Raised synchronously by :meth:`ReplayEngine.start` when
    the damage is visible up front, and otherwise delivered by resolving
    :attr:`ReplayEngine.finished` with the error instance — the engine never
    wedges with ``finished`` unresolved."""


def encode(rows: list) -> bytes:
    """One sealed chunk: ``rows`` pickled as one list."""
    return pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)


def encode_chunks(rows: list) -> list[bytes]:
    """``rows`` sealed in chunks of :data:`TAIL_ROWS`."""
    return [encode(rows[i:i + TAIL_ROWS])
            for i in range(0, len(rows), TAIL_ROWS)]


def iter_rows(chunks: list[bytes]) -> Iterator[tuple]:
    """The rows of ``chunks`` in order, decoded one chunk at a time."""
    for chunk in chunks:
        yield from pickle.loads(chunk)


class RecordLog:
    """Ordered per-rank log of persistent calls, held encoded.

    Each recorded call is one row ``(op, args, result_vid, result_kind)``:
    ``op`` names the MPI operation; ``args`` are plain data and virtual
    handles only; ``result_vid`` is the virtual id the original call
    produced (None for frees and for non-member comm_create/split
    results); ``result_kind`` is the handle namespace that id lives in, so
    replay rebinds into the right table even for non-comm results.  The
    compactor's ``comm_create_group`` descriptors are rows too, with args
    ``(world_ranks, k, topology)``.

    History is kept as :attr:`chunks`, pickled lists of rows: the bytes a
    checkpoint image carries, a few bytes per row instead of a tuple, an
    args tuple and the vid ints.  Only the last :data:`TAIL_ROWS` rows at
    most are live tuples; a full tail is sealed into a chunk.

    A ``compact`` log stores no row it records, only the count: its images
    describe the live handle table instead (:meth:`snapshot`).  It keeps
    the descriptor chunks a restore gave it, which its replay runs.

    ``local_bindings`` holds value snapshots of live local handles (groups
    as world-rank tuples, datatypes as constructor recipes) restored by
    direct table binding instead of replay.  It is populated by a compacted
    snapshot and carried forward by later snapshots, since the
    corresponding create rows are gone from the history for good.
    """

    def __init__(self, compact: bool = False) -> None:
        self.compact = compact
        #: sealed history, oldest first: each a pickled list of rows
        self.chunks: list[bytes] = []
        self._tail: list[tuple] = []
        #: rows recorded or restored, held or (compact) only counted
        self.length = 0
        #: the length at which the tail is full
        self._seal_at = TAIL_ROWS
        #: kind name -> {vid -> ("group", ranks) | ("datatype", recipe)}
        self.local_bindings: dict[str, dict[int, tuple]] = {}

    def record(self, op: str, args: tuple, result_vid: Optional[int],
               result_kind: HandleKind = HandleKind.COMM) -> None:
        """Append one persistent-call row (``args`` is a tuple)."""
        self.length += 1
        if self.compact:
            return
        self._tail.append((op, args, result_vid, result_kind))
        if self.length == self._seal_at:
            self.seal()

    def seal(self) -> None:
        """Encode the tail rows into one more chunk."""
        if self._tail:
            self.chunks.append(encode(self._tail))
            self._tail = []
        self._seal_at = self.length + TAIL_ROWS

    def __len__(self) -> int:
        return self.length

    def rows(self) -> Iterator[tuple]:
        """Every row held, oldest first, decoded one chunk at a time."""
        yield from iter_rows(self.chunks)
        yield from self._tail

    # ---------------------------------------------------------- snapshot

    def snapshot(self, table: Optional[VirtualHandleTable] = None) -> dict:
        """Picklable ``{"chunks", "length", "local", "stats"}`` form for
        the image: the whole history, or for a ``compact`` log the
        descriptors of the live ``table``
        (:mod:`~repro.mana.log_compaction`)."""
        if not self.compact:
            self.seal()
            return {
                "chunks": list(self.chunks),
                "length": self.length,
                "local": {k: dict(v) for k, v in self.local_bindings.items()},
                "stats": None,
            }
        if table is None:
            raise ValueError("compact snapshot needs the live handle table")
        from repro.mana.log_compaction import compact_log

        result = compact_log(self.length, table)
        return {
            "chunks": encode_chunks(result.entries),
            "length": len(result.entries),
            "local": result.local,
            "stats": result.stats.as_dict(),
        }

    def restore(self, snap: dict) -> None:
        """Install state captured by :meth:`snapshot`, adopting its chunks
        as they are: nothing is decoded until replay."""
        self.chunks = list(snap["chunks"])
        self._tail = []
        self.length = snap["length"]
        self._seal_at = self.length + TAIL_ROWS
        self.local_bindings = {k: dict(v) for k, v in snap["local"].items()}


class ReplayEngine:
    """Replays one rank's log against a fresh endpoint, rebinding virtuals.

    Rows run strictly in order, decoded one chunk at a time, so a long log
    is never held as objects all at once.  Communicator-management rows are
    real collectives on the new world, so every participating rank's
    ReplayEngine must be started before any of them can finish.
    :attr:`finished` resolves when the whole log has been replayed — with
    the replayed-row count on success, or with a :class:`ReplayError`
    instance (also stored on :attr:`error`) if a row cannot be executed.

    Compacted logs carry ``local_bindings``: value snapshots of live
    datatype/group handles, bound directly into the table by :meth:`start`
    (counted in :attr:`restored_bindings`) before any row replays.
    """

    def __init__(self, engine: Engine, endpoint: Any, table: VirtualHandleTable,
                 log: RecordLog, label: str = "replay") -> None:
        self.engine = engine
        self.endpoint = endpoint
        self.table = table
        self.log = log
        self.finished = Completion(engine, label=f"{label}:finished")
        #: the decoded chunk being replayed, the next row in it, the rows
        #: of the chunks before it and the next chunk to decode
        self._rows: list = []
        self._idx = 0
        self._base = 0
        self._next = 0
        self.replayed = 0
        self.restored_bindings = 0
        self.error: Optional[ReplayError] = None
        self._pumping = False
        self._blocked = False
        #: the collective row whose lower-half call is in flight
        self._entry: Optional[tuple] = None

    def start(self) -> None:
        """Validate the log, apply local bindings, schedule the first event.

        Ops are checked *before* anything executes: a corrupted log raises
        :class:`ReplayError` here, synchronously, instead of wedging the
        engine halfway through a partial replay.
        """
        self.log.seal()
        unknown: set = set()
        try:
            for chunk in self.log.chunks:
                unknown.update(map(_op_of, pickle.loads(chunk)))
        except Exception as exc:  # noqa: BLE001 - any undecodable chunk
            raise ReplayError(f"log chunk cannot be decoded: {exc!r}") from exc
        unknown.difference_update(_HANDLERS)
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
        # COMM_WORLD is predefined and already bound; pump the rows.
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
    # The drain loop is iterative: local rows (datatypes, group algebra,
    # frees) complete synchronously inside one pass of the while loop, so a
    # log of any length replays in O(1) stack depth.  A collective row
    # parks the loop (``_await``) until the lower half's completion fires;
    # ``_continue`` then re-enters the pump.  The re-entrancy guard makes a
    # completion that resolves synchronously equivalent to a local row.
    # When a chunk's rows are done the next chunk is decoded in its place.

    def _pump(self) -> None:
        if self._pumping or self.error is not None:
            return
        self._pumping = True
        chunks = self.log.chunks
        row = None
        try:
            while not self._blocked:
                rows = self._rows
                if self._idx < len(rows):
                    row = rows[self._idx]
                    self._idx += 1
                    handler = _HANDLERS.get(row[0])
                    if handler is None:
                        raise ReplayError(f"no replay handler for op {row[0]!r}")
                    handler(self, row)
                elif self._next < len(chunks):
                    self._base += len(rows)
                    self._rows = pickle.loads(chunks[self._next])
                    self._next += 1
                    self._idx = 0
                else:
                    self._rows = []
                    break
        except Exception as exc:  # noqa: BLE001 - converted to a typed,
            self._fail(row, exc)  # finished-resolving error
            return
        finally:
            self._pumping = False
        if not self._blocked and not self.finished.done:
            self.finished.resolve(self.replayed)

    def _fail(self, row: tuple, exc: Exception) -> None:
        """Record a typed error and resolve ``finished`` with it: a broken
        log surfaces cleanly instead of hanging the restart."""
        if isinstance(exc, ReplayError):
            err = exc
        else:
            err = ReplayError(
                f"replaying {row[0]!r} (entry {self._base + self._idx - 1}) "
                f"failed: {exc}"
            )
            err.__cause__ = exc
        self.error = err
        self._blocked = True  # no further rows execute
        if not self.finished.done:
            self.finished.resolve(err)

    def _await(self, row: tuple, done: Completion, then: Any) -> None:
        """Park the pump until the lower-half call ``done`` of ``row``
        resolves; ``then`` (one of the ``_continue`` methods) takes over."""
        self._blocked = True
        self._entry = row
        done.on_done(then)

    def _continue(self, real: Any) -> None:
        _op, _args, vid, kind = self._entry
        self._entry = None
        if vid is not None:
            self.table.bind_replayed(kind, vid, real)
        self.replayed += 1
        self._blocked = False
        self._pump()

    def _continue_file(self, real: Any) -> None:
        vcomm, path, mode = self._entry[1]
        self._continue(FileBinding(real=real, vcomm=vcomm, path=path,
                                   mode=mode))

    def _continue_group(self, real: Any) -> None:
        real.topology = self._entry[1][2]
        self._continue(real)

    def _resolve_comm(self, vid: int) -> Any:
        return self.table.resolve(_COMM, vid)

    # ------------------------------------------------------------ handlers
    #
    # One per recorded op, found through ``_HANDLERS``; each takes the row
    # ``(op, args, result_vid, result_kind)``.  A local handler finishes its
    # row before it returns (and counts it); a collective one hands the
    # lower-half completion to ``_await``.

    def _replay_comm_dup(self, row: tuple) -> None:
        (parent_vid,) = row[1]
        self._await(row, self.endpoint.comm_dup(self._resolve_comm(parent_vid)),
                    self._continue)

    def _replay_comm_split(self, row: tuple) -> None:
        parent_vid, color, key = row[1]
        self._await(row, self.endpoint.comm_split(
            color, key, self._resolve_comm(parent_vid)), self._continue)

    def _replay_comm_create(self, row: tuple) -> None:
        parent_vid, world_ranks = row[1]
        self._await(row, self.endpoint.comm_create(
            Group(tuple(world_ranks)), self._resolve_comm(parent_vid)),
            self._continue)

    def _replay_cart_create(self, row: tuple) -> None:
        parent_vid, dims, periods = row[1]
        self._await(row, self.endpoint.cart_create(
            list(dims), list(periods), self._resolve_comm(parent_vid)),
            self._continue)

    def _replay_graph_create(self, row: tuple) -> None:
        parent_vid, edges = row[1]
        self._await(row, self.endpoint.graph_create(
            [tuple(e) for e in edges], self._resolve_comm(parent_vid)),
            self._continue)

    def _replay_comm_create_group(self, row: tuple) -> None:
        world_ranks, k, _topology = row[1]
        self._await(row, self.endpoint.comm_create_group(
            Group(tuple(world_ranks)), k), self._continue_group)

    def _replay_comm_free(self, row: tuple) -> None:
        (vid,) = row[1]
        # The create row earlier in the log re-bound this vid; retire it
        # again so the table converges to the pre-checkpoint bindings, and
        # release the real communicator in the fresh lower half too — the
        # original free released the old lower half's.
        # An open file holds its communicator until it is closed, as in the
        # original run (ManaApi.comm_free).
        real = self.table.unregister(_COMM, vid)
        if self.endpoint is not None and not self.table.file_holds(vid):
            self.endpoint.comm_free(real)
        self.replayed += 1

    def _replay_type_create(self, row: tuple) -> None:
        vid = row[2]
        if vid is None:
            raise ReplayError("type_create entry lacks a result vid")
        real = rebuild_datatype(row[1][0])  # args: (recipe,)
        self.table.bind_replayed(_DATATYPE, vid, real)
        self.replayed += 1

    def _replay_type_free(self, row: tuple) -> None:
        (vid,) = row[1]
        # Datatypes are value objects here: retiring the binding is the
        # whole release (nothing lives in the lower half for them).
        self.table.unregister(_DATATYPE, vid)
        self.replayed += 1

    # --------------------------------------------------------- file ops

    def _replay_file_open(self, row: tuple) -> None:
        vcomm, path, mode = row[1]
        self._await(row, self.endpoint.file_open(
            path, mode, self._resolve_comm(vcomm)), self._continue_file)

    def _replay_file_close(self, row: tuple) -> None:
        # closing releases the real handle in the fresh lower half's ledger
        close_file(self.table, row[1][0])
        self.replayed += 1

    # ------------------------------------------------- group ops (local)

    def _rebind_group(self, row: tuple, group: Group) -> None:
        vid = row[2]
        if vid is None:
            raise ReplayError(f"group entry {row[0]!r} lacks a result vid")
        self.table.bind_replayed(_GROUP, vid, group)
        self.replayed += 1

    def _replay_comm_group(self, row: tuple) -> None:
        (parent_vid,) = row[1]
        self._rebind_group(row, self._resolve_comm(parent_vid).group)

    def _resolve_group(self, vid: int) -> Group:
        return self.table.resolve(_GROUP, vid)

    def _replay_group_incl(self, row: tuple) -> None:
        vgroup, ranks = row[1]
        self._rebind_group(row, self._resolve_group(vgroup).incl(ranks))

    def _replay_group_excl(self, row: tuple) -> None:
        vgroup, ranks = row[1]
        self._rebind_group(row, self._resolve_group(vgroup).excl(ranks))

    def _replay_group_union(self, row: tuple) -> None:
        va, vb = row[1]
        self._rebind_group(
            row, self._resolve_group(va).union(self._resolve_group(vb))
        )

    def _replay_group_intersection(self, row: tuple) -> None:
        va, vb = row[1]
        self._rebind_group(
            row,
            self._resolve_group(va).intersection(self._resolve_group(vb)),
        )

    def _replay_group_free(self, row: tuple) -> None:
        (vid,) = row[1]
        # Groups are value objects: no lower-half resource to release.
        self.table.unregister(_GROUP, vid)
        self.replayed += 1


#: op -> its replay handler (an unbound ``ReplayEngine._replay_<op>``)
_HANDLERS = {
    name[len("_replay_"):]: fn for name, fn in vars(ReplayEngine).items()
    if name.startswith("_replay_")
}

_op_of = itemgetter(0)
