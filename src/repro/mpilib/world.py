"""The live MPI session: a world of endpoints over a cluster's fabrics.

An :class:`MpiWorld` is what ``MPI_Init`` across all ranks creates: per-rank
:class:`MpiEndpoint` objects, a point-to-point engine with eager and
rendezvous protocols over the cluster's interconnect (and a shared-memory
transport for co-located ranks), and a collective engine with analytic work
models.  The world *is* the lower half — MANA discards it wholesale at
restart and builds a fresh one, possibly from a different implementation.

Concurrency model: everything is event-driven on the shared
:class:`~repro.simtime.Engine`.  An endpoint method is invoked synchronously
inside some rank's event and returns a :class:`~repro.simtime.Completion`
that resolves at the operation's modeled completion time.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.hardware.cluster import Cluster
from repro.mpilib import collectives as coll_models
from repro.mpilib.comm import ANY_SOURCE, ANY_TAG, Communicator, Group, MpiError
from repro.mpilib.impls import MpiImplementation
from repro.mpilib.ops import ReduceOp
from repro.mpilib.topology import CartTopology, GraphTopology
from repro.net import Interconnect, make_interconnect
from repro.net.fabrics import ShmemTransport
from repro.simtime import Completion, Engine

#: Minimal separation used to enforce per-channel FIFO delivery.
_FIFO_EPS = 1e-12


@dataclass(slots=True)
class Status:
    """MPI_Status subset: the envelope of a received message.

    Slotted, because every receive builds one.  It pickles as the plain
    ``__dict__``-style state it always had, so images that hold received
    statuses keep their bytes and older images still load.
    """

    source: int
    tag: int
    size: int

    def __getstate__(self) -> dict:
        return {"source": self.source, "tag": self.tag, "size": self.size}

    def __setstate__(self, state: dict) -> None:
        self.source = state["source"]
        self.tag = state["tag"]
        self.size = state["size"]


@dataclass(slots=True)
class Request:
    """A nonblocking-operation handle (the lower half's real request)."""

    handle: int
    kind: str                      # "send" | "recv" | "coll"
    completion: Completion
    #: Set for recv requests so MANA can cancel/repost across checkpoints.
    envelope: Optional[tuple] = None

    @property
    def done(self) -> bool:
        """True once the underlying completion resolved."""
        return self.completion.done


@dataclass(slots=True)
class MsgRecord:
    """An application-level p2p message, as the matching layer sees it."""

    src: int                       # world rank of sender
    dst: int                       # world rank of receiver
    context_id: int
    tag: int
    data: Any
    size: int
    seq: int                       # per (src,dst) channel sequence


@dataclass(eq=False, slots=True)
class _PostedRecv:
    """A receive in the matching layer; compared by identity.

    A match calls ``fn(arg, (data, Status))``, the source comm-local as MPI
    reports it: ``Completion.resolve`` and a completion for the library's
    own receives, a wrapper's callback and its record for MANA's.
    """

    comm: Communicator
    context_id: int
    source: int                    # comm-local rank or ANY_SOURCE
    src: int                       # ``source`` as a WORLD rank (or ANY_SOURCE)
    tag: int
    fn: Callable[[Any, tuple], None]
    arg: Any
    cancelled: bool = False

    def matches(self, msg: MsgRecord | _Rendezvous) -> bool:
        """Whether an arrival's envelope (context, source, tag) matches."""
        return (
            self.context_id == msg.context_id
            and (self.src == ANY_SOURCE or self.src == msg.src)
            and (self.tag == ANY_TAG or self.tag == msg.tag)
        )

    def status(self, msg: MsgRecord) -> Status:
        """The application's view of a matched message's envelope."""
        source = self.source
        if source == ANY_SOURCE:
            source = self.comm.rank_of_world(msg.src)
        return Status(source, msg.tag, msg.size)


class _Rendezvous:
    """One large message's rendezvous transfer, from request-to-send to the
    payload's arrival.

    It travels as the RTS's argument, waits in the receiver's queue while
    no receive matches, and its bound methods are the clear-to-send and
    data deliveries.  It carries the data record's envelope, which is what
    matching reads.  It holds no endpoint or world: those travel as the
    deliveries' arguments, so parking it adds no reference back to the
    receiver.
    """

    __slots__ = ("record", "context_id", "src", "tag", "send_done", "cpu",
                 "label", "posted")

    def __init__(self, record: MsgRecord, send_done: Completion,
                 cpu: float, label: str) -> None:
        self.record = record
        self.context_id = record.context_id
        self.src = record.src
        self.tag = record.tag
        self.send_done = send_done
        #: sender CPU time, charged once the payload is on its way
        self.cpu = cpu
        #: label of the event that resolves ``send_done``
        self.label = label
        #: the receive it was accepted for; None when drained
        self.posted: Optional[_PostedRecv] = None

    def on_cts(self, world: "MpiWorld") -> None:
        """The receiver cleared the send: stream the payload."""
        record = self.record
        world.wire_send(record.src, record.dst, record.size, self.on_data,
                        world.endpoints[record.dst])
        engine = world.engine
        engine._post(engine._now + self.cpu, self.send_done.resolve, (None,),
                     self.label)

    def on_data(self, receiver: "MpiEndpoint") -> None:
        """The payload reached the receiver's NIC."""
        posted = self.posted
        record = self.record
        if posted is None or posted.cancelled or receiver.drain_sink is not None:
            # Drain mode (or the recv went away): sink or queue it.
            receiver._on_data_arrival(record)
        else:
            receiver._m_recv_msgs.value += 1
            receiver._m_recv_bytes.value += record.size
            posted.fn(posted.arg, (record.data, posted.status(record)))


class _CollectiveContext:
    """One matched collective operation on one communicator."""

    __slots__ = ("op", "expected", "waiting", "root", "reduce_op",
                 "arrivals", "completions", "max_size")

    def __init__(self, op: str, expected: int) -> None:
        self.op = op
        self.expected = expected
        #: members that have not arrived yet
        self.waiting = expected
        self.root: Optional[int] = None
        self.reduce_op: Optional[ReduceOp] = None
        self.arrivals: dict[int, Any] = {}           # comm rank -> contribution
        self.completions: dict[int, Completion] = {}
        self.max_size = 0


class HandleLedger:
    """Live lower-half handle accounting for one MPI session.

    Real MPI libraries leak if handles created at restart replay are never
    released; this ledger is the model's equivalent of the library's
    internal object table for the *persistent* opaque kinds (communicators
    and files — requests are transient, groups are upper-half values here).
    Creation is noted at every mint; release is idempotent, matching
    MPI_Comm_free / MPI_File_close semantics on an already-retired handle.
    """

    def __init__(self) -> None:
        self._live: dict[str, set[int]] = {"comm": set(), "file": set()}
        self.created: dict[str, int] = {"comm": 0, "file": 0}
        self.released: dict[str, int] = {"comm": 0, "file": 0}

    def note_created(self, kind: str, handle: int) -> None:
        """Record a freshly minted real handle."""
        self._live[kind].add(handle)
        self.created[kind] += 1

    def note_released(self, kind: str, handle: int) -> None:
        """Record a release; releasing an unknown/retired handle is a no-op."""
        live = self._live[kind]
        if handle in live:
            live.remove(handle)
            self.released[kind] += 1

    def live(self, kind: str) -> int:
        """Number of currently live handles of one kind."""
        return len(self._live[kind])


class _CommCreation:
    """One open communicator-creating collective instance: per colour, the
    ``(context id, group, name)`` its members share, and how many members
    have picked their result up."""

    __slots__ = ("pickups", "shared")

    def __init__(self) -> None:
        self.pickups = 0
        self.shared: dict[Any, tuple[int, Group, str]] = {}


class MpiWorld:
    """All shared state of one MPI session."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        impl: MpiImplementation,
        placement: list[int],
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.impl = impl
        self.placement = list(placement)      # world rank -> node id
        self.size = len(placement)
        self.fabric: Interconnect = make_interconnect(cluster.interconnect, engine)
        self.shmem: Interconnect = ShmemTransport(engine)
        self._context_ids = itertools.count(100)
        #: next message number per (src, dst) channel
        self._channel_seq: dict[tuple[int, int], int] = {}
        self._channel_last_arrival: dict[tuple[int, int], float] = {}
        self._colls: dict[tuple[int, int], _CollectiveContext] = {}
        #: open comm-management instances, by (op kind, parent context)
        self._comm_creations: dict[tuple[str, int], _CommCreation] = {}
        #: open MPI_Comm_create_group instances, by (members, tag): the
        #: matching communicator and how many members have not arrived
        self._group_creations: dict[tuple, list] = {}
        self.finalized = False
        #: cumulative p2p statistics (per experiment reporting)
        self.p2p_messages = 0
        self.p2p_bytes = 0
        #: live real-handle accounting (the library's internal object table)
        self.ledger = HandleLedger()
        #: per (collective op, communicator size): its ops, bytes and rounds
        #: counters and its round count, memoized
        self._coll_counters: dict[tuple[str, int], tuple] = {}

        world_group = Group(tuple(range(self.size)))
        world_ctx = next(self._context_ids)
        self.endpoints = [
            MpiEndpoint(self, rank, Communicator(
                handle=self.new_comm_handle(), context_id=world_ctx,
                group=world_group, name="MPI_COMM_WORLD",
            ))
            for rank in range(self.size)
        ]

    def unlink(self) -> None:
        """Break the endpoints' back-references to this world, so a world
        whose job is done is freed by reference counting."""
        for endpoint in self.endpoints:
            endpoint.world = None

    # ------------------------------------------------------------- helpers

    def node_of(self, world_rank: int) -> int:
        """Node id hosting a world rank."""
        return self.placement[world_rank]

    def transport_for_group(self, group: Group) -> Interconnect:
        """Shared memory if the group is single-node, else the fabric."""
        placement = self.placement
        ranks = group.world_ranks
        if ranks:
            node = placement[ranks[0]]
            for w in ranks:
                if placement[w] != node:
                    return self.fabric
        return self.shmem

    def new_context_id(self) -> int:
        """Mint a fresh communicator context id."""
        return next(self._context_ids)

    def new_request_handle(self) -> int:
        """Mint a fresh real request handle."""
        impl = self.impl
        return impl.request_base + next(impl.handle_numbers)

    def new_comm_handle(self) -> int:
        """Mint a fresh real communicator handle, tracked by the ledger."""
        handle = self.impl.new_handle("comm")
        self.ledger.note_created("comm", handle)
        return handle

    def new_file_handle(self) -> int:
        """Mint a fresh real file handle, tracked by the ledger."""
        handle = self.impl.new_handle("file")
        self.ledger.note_created("file", handle)
        return handle

    def shared_comm(
        self, op_kind: str, parent: Communicator, color: Any,
        build: Optional[Callable[[], tuple[Group, str]]],
    ) -> Optional[tuple[int, Group, str]]:
        """``(context id, group, name)`` of the communicator that one
        colour of a comm-management collective creates, shared by all its
        members.

        Each rank of the parent communicator calls this exactly once per
        operation instance, from its own completion callback.  Collectives
        on one communicator are totally ordered, so the pickups of one
        ``(op_kind, parent context)`` instance never interleave with the
        next one's: after ``parent.size`` pickups the instance is retired.
        The first member of a colour to pick up mints the context id and
        calls ``build()`` for the group and name; the others share them.
        ``color`` separates the per-colour communicators of MPI_Comm_split
        within one instance; a rank that gets no communicator
        (MPI_UNDEFINED) passes ``build=None``, still counts its pickup, and
        gets None.
        """
        key = (op_kind, parent.context_id)
        creations = self._comm_creations
        creation = creations.get(key)
        if creation is None:
            creation = creations[key] = _CommCreation()
        creation.pickups += 1
        shared = None
        if build is not None:
            shared = creation.shared.get(color)
            if shared is None:
                shared = creation.shared[color] = (
                    self.new_context_id(), *build())
        if creation.pickups == len(parent.group.world_ranks):
            del creations[key]
        return shared

    def group_creation_comm(self, group: Group, tag: int) -> Communicator:
        """The communicator that matches one MPI_Comm_create_group instance:
        minted by the first member to call with ``(group, tag)``, shared by
        the rest, and forgotten once every member has arrived."""
        key = (group.world_ranks, tag)
        open_ = self._group_creations.get(key)
        if open_ is None:
            open_ = self._group_creations[key] = [Communicator(
                handle=0, context_id=self.new_context_id(), group=group,
                name=f"group#{tag}"), len(group.world_ranks)]
        open_[1] -= 1
        if open_[1] == 0:
            del self._group_creations[key]
        return open_[0]

    # -------------------------------------------------------- wire helpers

    def wire_send(self, src: int, dst: int, size: int,
                  on_arrival: Callable[[Any], None], arg: Any) -> None:
        """FIFO-ordered transfer between two world ranks; ``on_arrival(arg)``
        runs when it arrives.

        Per-channel delivery is serialized at the link bandwidth: a message
        cannot finish arriving before its predecessor plus its own wire
        occupancy.  This models a point-to-point link as a shared serial
        resource (what makes flooding benchmarks saturate at β).
        """
        placement = self.placement
        transport = (self.shmem if placement[src] == placement[dst]
                     else self.fabric)
        chan = (src, dst)
        last = self._channel_last_arrival
        last[chan] = transport._send(
            size, last.get(chan, 0.0) + size / transport.beta + _FIFO_EPS,
            on_arrival, arg)

    # ------------------------------------------------------- drain support

    @property
    def in_flight_p2p(self) -> int:
        """Wire-level messages currently in flight (both transports)."""
        return self.fabric.in_flight_count + self.shmem.in_flight_count

    # ------------------------------------------------------ collective core

    def collective_arrive(
        self,
        endpoint: "MpiEndpoint",
        comm: Communicator,
        op: str,
        contribution: Any,
        size: int,
        root: Optional[int] = None,
        reduce_op: Optional[ReduceOp] = None,
    ) -> Completion:
        """A rank enters a collective; resolves when the matched op finishes."""
        rank = endpoint.rank
        group = comm.group
        comm_rank = group.rank_index.get(rank)
        if comm_rank is None:
            raise MpiError(
                f"rank {rank} called {op} on communicator "
                f"{comm.name!r} it does not belong to"
            )
        # advance this rank's collective sequence on the context
        context_id = comm.context_id
        seqs = endpoint._coll_seq
        seq = seqs[context_id]
        seqs[context_id] = seq + 1
        key = (context_id, seq)
        colls = self._colls
        if key in colls:
            ctx = colls[key]
        else:
            ctx = colls[key] = _CollectiveContext(op, len(group.world_ranks))
        if ctx.op != op:
            raise MpiError(
                f"collective mismatch on {comm.name!r}: rank {rank} "
                f"called {op} but the matched operation is {ctx.op}"
            )
        if root is not None:
            if ctx.root is None:
                ctx.root = root
            elif ctx.root != root:
                raise MpiError(
                    f"{op} root mismatch on {comm.name!r}: {root} vs {ctx.root}"
                )
        if reduce_op is not None:
            if ctx.reduce_op is None:
                ctx.reduce_op = reduce_op
            elif ctx.reduce_op.name != reduce_op.name:
                raise MpiError(f"{op} reduce-op mismatch on {comm.name!r}")
        arrivals = ctx.arrivals
        if comm_rank in arrivals:
            raise MpiError(f"rank {rank} entered {op} twice (seq {seq})")
        arrivals[comm_rank] = contribution
        if size > ctx.max_size:
            ctx.max_size = size
        done = Completion(self.engine, f"{op}@{comm.name}#{seq}r{comm_rank}")
        ctx.completions[comm_rank] = done
        ctx.waiting -= 1
        if ctx.waiting == 0:
            self._finish_collective(comm, ctx, key)
        return done

    def _finish_collective(
        self, comm: Communicator, ctx: _CollectiveContext, key: tuple[int, int]
    ) -> None:
        op = ctx.op
        p = ctx.expected
        duration = coll_models.collective_duration(
            op, ctx.max_size, p, self.transport_for_group(comm.group),
            self.impl,
        )
        memo = self._coll_counters.get((op, p))
        if memo is None:
            m = self.engine.metrics
            memo = self._coll_counters[(op, p)] = (
                m.counter("mpi.coll.ops", op=op),
                m.counter("mpi.coll.bytes", op=op),
                m.counter("mpi.coll.rounds", op=op),
                coll_models.collective_rounds(op, p),
            )
        ops, nbytes, rounds, n_rounds = memo
        ops.value += 1
        nbytes.value += ctx.max_size
        rounds.value += n_rounds
        results = _collective_results(ctx)
        del self._colls[key]
        for comm_rank, completion in ctx.completions.items():
            completion.resolve_after(duration, results[comm_rank])

    @property
    def open_collectives(self) -> int:
        """Collectives some rank has entered but not all (protocol tests)."""
        return len(self._colls)


def _copy(value: Any) -> Any:
    """Value semantics at the MPI boundary (send buffers are caller-owned)."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


def _collective_results(ctx: _CollectiveContext) -> dict[int, Any]:
    """Compute each comm rank's result for a completed collective."""
    p = ctx.expected
    arrivals = ctx.arrivals
    op = ctx.op
    if op == "barrier":
        return {r: None for r in range(p)}
    if op == "bcast":
        data = _copy(arrivals[ctx.root])
        return {r: _copy(data) for r in range(p)}
    if op == "reduce":
        combined = ctx.reduce_op.reduce_all([arrivals[r] for r in range(p)])
        return {r: (combined if r == ctx.root else None) for r in range(p)}
    if op == "allreduce":
        combined = ctx.reduce_op.reduce_all([arrivals[r] for r in range(p)])
        return {r: _copy(combined) for r in range(p)}
    if op == "gather":
        gathered = [_copy(arrivals[r]) for r in range(p)]
        return {r: (gathered if r == ctx.root else None) for r in range(p)}
    if op == "allgather":
        gathered = [arrivals[r] for r in range(p)]
        for value in gathered:
            if isinstance(value, np.ndarray):
                gathered = [_copy(v) for v in gathered]
                return {r: [_copy(v) for v in gathered] for r in range(p)}
        # nothing to copy: each rank gets its own list of the same values
        return {r: gathered[:] for r in range(p)}
    if op == "scatter":
        chunks = arrivals[ctx.root]
        if chunks is None or len(chunks) != p:
            raise MpiError(f"scatter root must supply {p} chunks")
        return {r: _copy(chunks[r]) for r in range(p)}
    if op == "alltoall":
        for r in range(p):
            if len(arrivals[r]) != p:
                raise MpiError(f"alltoall rank {r} must supply {p} chunks")
        return {r: [_copy(arrivals[s][r]) for s in range(p)] for r in range(p)}
    if op == "reduce_scatter":
        combined = ctx.reduce_op.reduce_all([arrivals[r] for r in range(p)])
        blocks = np.array_split(np.asarray(combined), p)
        return {r: blocks[r].copy() for r in range(p)}
    if op == "scan":
        out: dict[int, Any] = {}
        acc = None
        for r in range(p):
            acc = arrivals[r] if acc is None else ctx.reduce_op.combine(acc, arrivals[r])
            out[r] = _copy(np.asarray(acc))
        return out
    raise MpiError(f"unhandled collective {op!r}")


class MpiEndpoint:
    """One rank's window into the MPI session (its lower-half library)."""

    def __init__(self, world: MpiWorld, rank: int, comm_world: Communicator) -> None:
        self.world = world
        #: the implementation this endpoint belongs to
        self.impl: MpiImplementation = world.impl
        #: the shared simulation engine
        self.engine: Engine = world.engine
        self.rank = rank
        self.comm_world = comm_world
        self.node_id = world.node_of(rank)
        #: completion labels, built once: receives, and sends per destination
        self._recv_label = f"recv@{rank}"
        self._recv_resolve_label = f"resolve:recv@{rank}"
        #: per destination: (send completion label, its resolve event's)
        self._send_labels: dict[int, tuple[str, str]] = {}
        self._posted: list[_PostedRecv] = []
        #: arrived and unmatched, in arrival order: eager payloads and the
        #: rendezvous transfers whose RTS no receive has matched yet
        self._unexpected: list[MsgRecord | _Rendezvous] = []
        #: this rank's collective sequence number per context id
        self._coll_seq: defaultdict[int, int] = defaultdict(int)
        #: When set, *all* newly arriving messages are handed to this sink
        #: instead of the matching layer (MANA's drain mode).
        self.drain_sink: Optional[Callable[[MsgRecord], None]] = None
        #: statistics
        self.calls = 0
        # P2p conservation counters, memoized for the data path, which adds
        # to their values directly.  Each delivered MsgRecord is counted
        # exactly once (see _on_data_arrival).
        metrics = world.engine.metrics
        self._m_sent_msgs = metrics.counter("mpi.p2p.sent_messages", rank=rank)
        self._m_sent_bytes = metrics.counter("mpi.p2p.sent_bytes", rank=rank)
        self._m_recv_msgs = metrics.counter("mpi.p2p.recv_messages", rank=rank)
        self._m_recv_bytes = metrics.counter("mpi.p2p.recv_bytes", rank=rank)

    # ---------------------------------------------------------- accounting

    def _entry_cost(self, extra_cpu: float, payload_bytes: int = 0) -> float:
        """CPU time consumed inside the library before anything moves."""
        return (
            self.impl.call_overhead
            + extra_cpu
            + self.impl.copy_cost_per_byte * payload_bytes
        )

    # ----------------------------------------------------------------- p2p

    def isend(
        self,
        dest: int,
        data: Any,
        tag: int = 0,
        comm: Optional[Communicator] = None,
        size: Optional[int] = None,
        extra_cpu: float = 0.0,
    ) -> Request:
        """Nonblocking send.  ``size`` overrides the modeled wire size
        (defaults to the numpy payload's nbytes, or 64 for objects)."""
        comm = comm or self.comm_world
        handle, done = self._post_send(comm.peer_world_rank(dest), data, tag,
                                       comm.context_id, size, extra_cpu)
        return Request(handle, "send", done)

    def send(
        self,
        dest: int,
        data: Any,
        tag: int = 0,
        comm: Optional[Communicator] = None,
        size: Optional[int] = None,
        extra_cpu: float = 0.0,
    ) -> Completion:
        """Blocking send: same as isend, caller awaits the completion."""
        comm = comm or self.comm_world
        return self._post_send(comm.peer_world_rank(dest), data, tag,
                               comm.context_id, size, extra_cpu)[1]

    def _post_send(self, dst_world: int, data: Any, tag: int,
                   context_id: int, size: Optional[int], extra_cpu: float = 0.0,
                   done: Optional[Completion] = None) -> tuple[int, Completion]:
        """The send itself, to world rank ``dst_world`` in ``context_id``;
        returns (real request handle, completion).

        The completion resolves once the send buffer is reusable: ``done``
        if given (MANA's wrapper passes the one its caller waits on), else a
        new one.  Either way the event that resolves it carries this
        library's label.
        """
        self.calls += 1
        world = self.world
        rank = self.rank
        wire = int(size if size is not None else _default_size(data))
        chan = (rank, dst_world)
        seqs = world._channel_seq
        seq = seqs.get(chan, 0)
        seqs[chan] = seq + 1
        if isinstance(data, np.ndarray):
            data = data.copy()  # the send buffer stays the caller's
        record = MsgRecord(rank, dst_world, context_id, tag, data, wire, seq)
        world.p2p_messages += 1
        world.p2p_bytes += wire
        self._m_sent_msgs.value += 1
        self._m_sent_bytes.value += wire
        labels = self._send_labels.get(dst_world)
        if labels is None:
            label = f"send{rank}->{dst_world}"
            labels = self._send_labels[dst_world] = (label, "resolve:" + label)
        if done is None:
            done = Completion(self.engine, labels[0])
        handle = world.new_request_handle()
        placement = world.placement
        transport = (world.shmem if placement[rank] == placement[dst_world]
                     else world.fabric)
        cpu = self._entry_cost(extra_cpu, wire) + transport.per_message_cpu

        receiver = world.endpoints[dst_world]
        if wire <= self.impl.eager_threshold:
            # Eager: inject at once; local completion after CPU cost.
            world.wire_send(rank, dst_world, wire, receiver._on_data_arrival,
                            record)
            engine = self.engine
            engine._post(engine._now + cpu, done.resolve, (None,), labels[1])
        else:
            # Rendezvous: RTS now; data flows once the receiver clears it.
            world.wire_send(rank, dst_world, 0, receiver._on_rts,
                            _Rendezvous(record, done, cpu, labels[1]))
        return handle, done

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
        extra_cpu: float = 0.0,
    ) -> Request:
        """Nonblocking receive; completion resolves with (data, Status)."""
        comm = comm or self.comm_world
        src_world = comm.peer_world_rank(source, allow_any=True)
        done = Completion(self.engine, self._recv_label)
        handle, _posted = self._post_recv(comm, source, src_world, tag,
                                          extra_cpu, Completion.resolve, done)
        return Request(handle, "recv", done,
                       envelope=(comm.context_id, src_world, tag))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
        extra_cpu: float = 0.0,
    ) -> Completion:
        """Blocking receive: completion resolves with (data, Status)."""
        comm = comm or self.comm_world
        src_world = comm.peer_world_rank(source, allow_any=True)
        done = Completion(self.engine, self._recv_label)
        self._post_recv(comm, source, src_world, tag, extra_cpu,
                        Completion.resolve, done)
        return done

    def _post_recv(self, comm: Communicator, source: int, src_world: int,
                   tag: int, extra_cpu: float, fn: Callable[[Any, tuple], None],
                   arg: Any) -> tuple[int, _PostedRecv]:
        """The receive itself, from comm-local ``source`` (world rank
        ``src_world``; both ANY_SOURCE for a wildcard): match it against
        what already arrived, or post it.  A match calls
        ``fn(arg, (data, Status))``.  Returns (real request handle, posted
        receive); a receive that is still posted can be withdrawn with
        :meth:`_cancel_posted`."""
        self.calls += 1
        # Applications see comm-local source ranks in the status, matching
        # MPI semantics; the matching layer works in world ranks throughout.
        posted = _PostedRecv(comm, comm.context_id, source, src_world, tag,
                             fn, arg)
        handle = self.world.new_request_handle()
        # The earliest arrival that matches wins (MPI's non-overtaking
        # rule), whether its payload is here or still behind an RTS.
        unexpected = self._unexpected
        for i, msg in enumerate(unexpected):
            if posted.matches(msg):
                del unexpected[i]
                if type(msg) is _Rendezvous:
                    self._accept_rendezvous(msg, posted)
                else:
                    engine = self.engine
                    engine._post(
                        engine._now + self._entry_cost(extra_cpu, msg.size),
                        fn, (arg, (msg.data, posted.status(msg))),
                        self._recv_resolve_label)
                return handle, posted
        self._posted.append(posted)
        return handle, posted

    def cancel_recv(self, req: Request) -> None:
        """MPI_Cancel for a posted receive."""
        if req.kind != "recv":
            raise MpiError("cancel_recv on a non-recv request")
        for posted in self._posted:
            if posted.arg is req.completion:
                self._cancel_posted(posted)
                req.completion.cancel()
                return
        # Already matched or already cancelled: nothing to do.

    def _cancel_posted(self, posted: _PostedRecv) -> None:
        """Withdraw a posted receive (used by MANA across checkpoints); a
        receive that already matched is left alone."""
        queue = self._posted
        for i, other in enumerate(queue):
            if other is posted:
                posted.cancelled = True
                del queue[i]
                return

    # ------------------------------------------------------ p2p internals

    def _on_data_arrival(self, record: MsgRecord) -> None:
        """An eager payload (or rendezvous data) reached this rank's NIC.
        Every delivered MsgRecord is counted once, here or in
        :meth:`_Rendezvous.on_data`."""
        self._m_recv_msgs.value += 1
        self._m_recv_bytes.value += record.size
        if self.drain_sink is not None:
            self.drain_sink(record)
            return
        for i, posted in enumerate(self._posted):
            if posted.matches(record):
                del self._posted[i]
                posted.fn(posted.arg, (record.data, posted.status(record)))
                return
        self._unexpected.append(record)

    def _on_rts(self, rv: _Rendezvous) -> None:
        """A rendezvous request-to-send arrived."""
        if self.drain_sink is not None:
            self._accept_rendezvous(rv, None)
            return
        for i, posted in enumerate(self._posted):
            if posted.matches(rv):
                del self._posted[i]
                self._accept_rendezvous(rv, posted)
                return
        self._unexpected.append(rv)

    def _accept_rendezvous(self, rv: _Rendezvous,
                           posted: Optional[_PostedRecv]) -> None:
        """Send CTS back; the sender then streams the payload."""
        rv.posted = posted
        world = self.world
        world.wire_send(self.rank, rv.src, 0, rv.on_cts, world)

    # ---------------------------------------------------------- drain API

    def harvest_unexpected(self) -> list[MsgRecord]:
        """Pull everything out of the lower half's unexpected queue and
        auto-accept any pending rendezvous RTS (their data will flow to the
        drain sink).  Called by MANA at the start of draining."""
        queue, self._unexpected = self._unexpected, []
        out = []
        for msg in queue:
            if type(msg) is _Rendezvous:
                self._accept_rendezvous(msg, None)
            else:
                out.append(msg)
        return out

    @property
    def unexpected_count(self) -> int:
        """Messages delivered but not yet matched (incl. parked RTS)."""
        return len(self._unexpected)

    @property
    def posted_recv_count(self) -> int:
        """Receives posted to the matching layer and still open."""
        return len(self._posted)

    # ----------------------------------------------------------- waits

    def waitall(self, requests: list[Request]) -> Completion:
        """MPI_Waitall: resolves with the list of request values."""
        from repro.simtime.engine import all_of

        return all_of(
            self.engine, [r.completion for r in requests], label="waitall"
        )

    # ------------------------------------------------------- collectives

    def barrier(self, comm: Optional[Communicator] = None,
                extra_cpu: float = 0.0) -> Completion:
        """MPI_Barrier."""
        comm = comm or self.comm_world
        self.calls += 1
        return self.world.collective_arrive(self, comm, "barrier", None, 0)

    def ibarrier(self, comm: Optional[Communicator] = None) -> Request:
        """Nonblocking barrier (MPI-3); used by the §4.2 extension."""
        done = self.barrier(comm)
        return Request(self.world.new_request_handle(), "coll", done)

    def bcast(self, data: Any, root: int, comm: Optional[Communicator] = None,
              size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Bcast from ``root``."""
        comm = comm or self.comm_world
        comm.validate_rank(root)
        self.calls += 1
        me = comm.rank_of_world(self.rank)
        contribution = data if me == root else None
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(
            self, comm, "bcast", contribution, wire, root=root
        )

    def reduce(self, data: Any, op: ReduceOp, root: int,
               comm: Optional[Communicator] = None,
               size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Reduce to ``root``."""
        comm = comm or self.comm_world
        comm.validate_rank(root)
        self.calls += 1
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(
            self, comm, "reduce", data, wire, root=root, reduce_op=op
        )

    def allreduce(self, data: Any, op: ReduceOp,
                  comm: Optional[Communicator] = None,
                  size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Allreduce."""
        comm = comm or self.comm_world
        self.calls += 1
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(
            self, comm, "allreduce", data, wire, reduce_op=op
        )

    def gather(self, data: Any, root: int, comm: Optional[Communicator] = None,
               size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Gather to ``root``."""
        comm = comm or self.comm_world
        comm.validate_rank(root)
        self.calls += 1
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(
            self, comm, "gather", data, wire, root=root
        )

    def allgather(self, data: Any, comm: Optional[Communicator] = None,
                  size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Allgather."""
        comm = comm or self.comm_world
        self.calls += 1
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(self, comm, "allgather", data, wire)

    def scatter(self, chunks: Any, root: int, comm: Optional[Communicator] = None,
                size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Scatter from ``root``."""
        comm = comm or self.comm_world
        comm.validate_rank(root)
        self.calls += 1
        me = comm.rank_of_world(self.rank)
        contribution = chunks if me == root else None
        wire = int(size if size is not None else _default_size(chunks))
        return self.world.collective_arrive(
            self, comm, "scatter", contribution, wire, root=root
        )

    def alltoall(self, chunks: list, comm: Optional[Communicator] = None,
                 size: Optional[int] = None, extra_cpu: float = 0.0) -> Completion:
        """MPI_Alltoall."""
        comm = comm or self.comm_world
        self.calls += 1
        wire = int(size if size is not None else _default_size(chunks))
        return self.world.collective_arrive(self, comm, "alltoall", chunks, wire)

    def reduce_scatter(self, data: Any, op: ReduceOp,
                       comm: Optional[Communicator] = None,
                       size: Optional[int] = None) -> Completion:
        """MPI_Reduce_scatter (equal blocks)."""
        comm = comm or self.comm_world
        self.calls += 1
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(
            self, comm, "reduce_scatter", data, wire, reduce_op=op
        )

    def scan(self, data: Any, op: ReduceOp,
             comm: Optional[Communicator] = None,
             size: Optional[int] = None) -> Completion:
        """MPI_Scan (inclusive prefix reduction)."""
        comm = comm or self.comm_world
        self.calls += 1
        wire = int(size if size is not None else _default_size(data))
        return self.world.collective_arrive(
            self, comm, "scan", data, wire, reduce_op=op
        )

    # --------------------------------------------- communicator management

    def comm_free(self, comm: Communicator) -> None:
        """MPI_Comm_free: release this rank's real communicator handle.

        Local in this model (real MPI defers teardown until all pending
        communication completes; nothing here outlives the call).  The
        ledger release is idempotent, so replaying a free against a fresh
        lower half is safe even if the handle was already retired.  Context
        ids are never reused, so the freed context's collective sequence
        is dropped too.
        """
        self.calls += 1
        self.world.ledger.note_released("comm", comm.handle)
        self._coll_seq.pop(comm.context_id, None)

    def comm_dup(self, comm: Optional[Communicator] = None) -> Completion:
        """Collective; resolves with this rank's new Communicator."""
        comm = comm or self.comm_world
        self.calls += 1
        call = _CommCall(self, comm, "comm_dup")
        self.world.collective_arrive(
            self, comm, "allgather", ("dup",), 8).on_done(call.dup)
        return call.out

    def comm_split(self, color: int, key: int,
                   comm: Optional[Communicator] = None) -> Completion:
        """Collective; resolves with the new Communicator (or None if
        color < 0, the MPI_UNDEFINED convention)."""
        comm = comm or self.comm_world
        self.calls += 1
        call = _CommCall(self, comm, "comm_split", color)
        self.world.collective_arrive(
            self, comm, "allgather", (color, key, self.rank), 12
        ).on_done(call.split)
        return call.out

    def comm_create(self, group: Group,
                    comm: Optional[Communicator] = None) -> Completion:
        """Collective over ``comm``; resolves with the new Communicator for
        members of ``group``, None for non-members."""
        comm = comm or self.comm_world
        self.calls += 1
        call = _CommCall(self, comm, "comm_create", group)
        self.world.collective_arrive(
            self, comm, "allgather", tuple(group.world_ranks), 8
        ).on_done(call.create)
        return call.out

    def comm_create_group(self, group: Group, tag: int) -> Completion:
        """MPI_Comm_create_group (MPI-3.1 §6.4.2): collective over the
        members of ``group`` only, matched on ``(group, tag)``; resolves
        with this rank's new Communicator."""
        self.calls += 1
        comm = self.world.group_creation_comm(group, tag)
        call = _CommCall(self, comm, "comm_create_group", group)
        self.world.collective_arrive(
            self, comm, "allgather", tag, 8).on_done(call.create_group)
        # the matching context is used once
        self._coll_seq.pop(comm.context_id, None)
        return call.out

    def cart_create(self, dims: list[int], periods: list[bool],
                    comm: Optional[Communicator] = None,
                    reorder: bool = True) -> Completion:
        """Collective; resolves with a Communicator carrying a CartTopology."""
        comm = comm or self.comm_world
        self.calls += 1
        topo = CartTopology(tuple(dims), tuple(bool(p) for p in periods))
        if topo.size != comm.size:
            raise MpiError(
                f"cart_create dims {dims} need {topo.size} ranks, "
                f"communicator has {comm.size}"
            )
        call = _CommCall(self, comm, "cart_create", topo)
        self.world.collective_arrive(
            self, comm, "allgather", ("cart", tuple(dims)), 8
        ).on_done(call.cart)
        return call.out

    def file_open(self, path: str, mode: str = "rw",
                  comm: Optional[Communicator] = None) -> Completion:
        """MPI_File_open: collective over ``comm``; resolves with this
        rank's :class:`~repro.mpilib.io.MpiFile` handle."""
        comm = comm or self.comm_world
        self.calls += 1
        call = _CommCall(self, comm, "file_open", (path, mode))
        self.world.collective_arrive(
            self, comm, "allgather", (path, mode), 8
        ).on_done(call.file)
        return call.out

    def graph_create(self, edges: list[tuple[int, ...]],
                     comm: Optional[Communicator] = None) -> Completion:
        """MPI_Graph_create (collective)."""
        comm = comm or self.comm_world
        self.calls += 1
        topo = GraphTopology(tuple(tuple(e) for e in edges))
        if topo.size != comm.size:
            raise MpiError("graph_create edge list must cover every rank")
        call = _CommCall(self, comm, "graph_create", topo)
        self.world.collective_arrive(
            self, comm, "allgather", ("graph",), 8
        ).on_done(call.graph)
        return call.out


class _CommCall:
    """One rank's communicator- or file-creating call.

    The lower half matches the call as an allgather on ``comm``.  The
    method named after the call (:meth:`dup`, :meth:`split`, ...) is handed
    to that allgather's completion as a bound method: it builds this rank's
    new object from the matched values and resolves ``out``.  What the
    members of one new communicator share — context id, group and name —
    is built once per instance and colour (:meth:`MpiWorld.shared_comm`).
    ``arg`` is the call's own input: the colour of a split, the group of a
    create or create-group, the topology of a cart/graph create,
    ``(path, mode)`` of a file open.
    """

    __slots__ = ("endpoint", "comm", "arg", "values", "out")

    def __init__(self, endpoint: MpiEndpoint, comm: Communicator, label: str,
                 arg: Any = None) -> None:
        self.endpoint = endpoint
        self.comm = comm
        self.arg = arg
        #: a split's matched allgather values, read by :meth:`_split_comm`
        self.values: Optional[list] = None
        self.out = Completion(endpoint.engine, label=label)

    def _resolve(self, shared: tuple[int, Group, str],
                 topology: Any = None) -> None:
        ctx, group, name = shared
        new = Communicator(
            handle=self.endpoint.world.new_comm_handle(), context_id=ctx,
            group=group, name=name,
        )
        if topology is not None:
            new.topology = topology
        self.out.resolve(new)

    def _differ(self, values: list) -> bool:
        """True (and ``out`` cancelled) if the ranks' inputs disagree."""
        if any(v != values[0] for v in values):
            self.out.cancel()
            return True
        return False

    def dup(self, _values: list) -> None:
        """MPI_Comm_dup: the parent's group under a new context."""
        self._resolve(self.endpoint.world.shared_comm(
            "dup", self.comm, None, self._dup_comm))

    def _dup_comm(self) -> tuple[Group, str]:
        return self.comm.group, f"{self.comm.name}.dup"

    def split(self, values: list) -> None:
        """MPI_Comm_split: this rank's colour, or None if undefined."""
        color = self.arg
        world = self.endpoint.world
        if color < 0:
            world.shared_comm("split", self.comm, None, None)
            self.out.resolve(None)
            return
        self.values = values
        self._resolve(world.shared_comm("split", self.comm, color,
                                        self._split_comm))

    def _split_comm(self) -> tuple[Group, str]:
        color = self.arg
        # MPI-3.1 §6.4.2: ordered by key, ties by rank in the parent
        # (``values`` is in parent-rank order)
        members = sorted([(k, r, w) for r, (c, k, w) in enumerate(self.values)
                          if c == color])
        return (Group(tuple([w for _k, _r, w in members])),
                f"{self.comm.name}.split({color})")

    def create(self, values: list) -> None:
        """MPI_Comm_create: the group's communicator, None for
        non-members."""
        if self._differ(values):
            raise MpiError("comm_create called with differing groups")
        shared = self.endpoint.world.shared_comm(
            "create", self.comm, None, self._create_comm)
        if self.arg.rank_of(self.endpoint.rank) is None:
            self.out.resolve(None)
        else:
            self._resolve(shared)

    def _create_comm(self) -> tuple[Group, str]:
        return self.arg, f"{self.comm.name}.create"

    def create_group(self, _values: list) -> None:
        """MPI_Comm_create_group: the group's communicator."""
        self._resolve(self.endpoint.world.shared_comm(
            "create", self.comm, None, self._create_comm))

    def cart(self, _values: list) -> None:
        """MPI_Cart_create: the parent's group with a Cartesian topology."""
        self._resolve(self.endpoint.world.shared_comm(
            "topo", self.comm, None, self._cart_comm), self.arg)

    def _cart_comm(self) -> tuple[Group, str]:
        return self.comm.group, f"{self.comm.name}.cart"

    def graph(self, _values: list) -> None:
        """MPI_Graph_create: the parent's group with a graph topology."""
        self._resolve(self.endpoint.world.shared_comm(
            "topo", self.comm, None, self._graph_comm), self.arg)

    def _graph_comm(self) -> tuple[Group, str]:
        return self.comm.group, f"{self.comm.name}.graph"

    def file(self, values: list) -> None:
        """MPI_File_open: this rank's handle on the shared file."""
        from repro.mpilib.io import MpiFile

        if self._differ(values):
            raise MpiError(
                f"file_open mismatch across ranks: {sorted(set(values))}")
        path, mode = self.arg
        endpoint = self.endpoint
        sim_file = endpoint.world.cluster.fs.open(path)
        self.out.resolve(MpiFile(
            handle=endpoint.world.new_file_handle(), file=sim_file,
            comm=self.comm, endpoint=endpoint, mode=mode,
        ))


def _default_size(data: Any) -> int:
    """Modeled wire size when the caller does not override it."""
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    return 64


