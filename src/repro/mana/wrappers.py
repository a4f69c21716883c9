"""MANA's interposed MPI API (the virtualized MPI of §2.2–§2.5).

Every method here is what the application's MPI call resolves to under MANA.
Each call:

1. charges two FS-register switches (upper→lower→upper, §3.3) at the node
   kernel's price, plus one modeled hash lookup per translated handle and a
   metadata-recording cost for p2p calls;
2. translates virtual handles to the current lower half's real objects;
3. for p2p — updates the send/receive counters the drain protocol uses, and
   consults the upper-half drained-message buffer before touching the lower
   half (messages saved across a checkpoint are delivered from the buffer);
4. for collectives — runs the **two-phase wrapper** of Algorithm 1:
   a trivial barrier (interruptible, lower-half-only, re-issued after
   restart) and then the real collective, with the entry gate of
   Algorithm 2 line 28 applied while a checkpoint intent is pending;
5. for persistent calls (communicator/topology/datatype creation) — records
   the call in the replay log and registers the result under a fresh
   virtual handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.mana.protocol import ProtocolMode, WrapperPhase
from repro.mana.virtualize import (
    LOOKUP_COST,
    VCOMM_WORLD,
    HandleKind,
    VirtualizationError,
)
from repro.mpilib.comm import ANY_SOURCE, ANY_TAG, Communicator, Group
from repro.mpilib.datatypes import Datatype, contiguous, struct, vector
from repro.mpilib.ops import ReduceOp
from repro.obs.events import Category
from repro.runtime.api import MpiApi
from repro.simtime import Completion

#: Modeled cost of recording send/recv metadata (§3.3's second overhead).
P2P_METADATA_COST = 60e-9

#: Handle kinds read once: an enum member read off its class goes through
#: the enum metaclass's ``__getattr__`` hook, several times the cost of a
#: module global, and these are read on every wrapped call.
_COMM, _GROUP, _DATATYPE, _FILE = (
    HandleKind.COMM, HandleKind.GROUP, HandleKind.DATATYPE, HandleKind.FILE)


class _Labels(dict):
    """One rank's wrapper completion labels, ``mana-<call>-r<rank>``: each
    string is built on first use and reused by every later call."""

    def __init__(self, rank: int) -> None:
        super().__init__()
        self.rank = rank

    def __missing__(self, call: str) -> str:
        label = self[call] = f"mana-{call}-r{self.rank}"
        return label


@dataclass
class FileBinding:
    """Wrapper-side record behind a virtual file handle: the live lower-half
    :class:`~repro.mpilib.io.MpiFile` plus the facts replay needs."""

    real: Any
    vcomm: int
    path: str
    mode: str


class _TwoPhaseCall:
    """One collective call through the two-phase wrapper (Algorithm 1).

    The wrapper's steps are this object's bound methods: :meth:`enter`
    (held at entry while a checkpoint intent is pending, else into the
    trivial barrier), :meth:`committed` (the barrier completed),
    :meth:`enter_phase2` (the real collective) and :meth:`finished`.  The
    object never refers to itself, so it is freed by reference counting as
    soon as its last step has run.

    ``issue(real)`` starts the real collective on the lower-half
    communicator ``real``; ``out`` resolves with the call's result.  The
    wait of a nonblocking collective carries its request record as
    ``icoll``: phase 1 is the Ibarrier posted with the request, and the
    result is stored on the record.  A persistent call carries ``persist``,
    its ``(label, log args)``: the new communicator is registered under a
    virtual handle and recorded for replay, and ``out`` resolves with that
    handle (or None).
    """

    __slots__ = ("rt", "real", "issue", "out", "icoll", "persist")

    def __init__(self, rt, real: Communicator,
                 issue: Callable[[Communicator], Completion], out: Completion,
                 icoll=None, persist: Optional[tuple] = None) -> None:
        self.rt = rt
        self.real = real
        self.issue = issue
        self.out = out
        self.icoll = icoll
        self.persist = persist

    def enter(self) -> None:
        rt = self.rt
        icoll = self.icoll
        if icoll is not None and icoll.done:
            rt.defer_free("icoll", icoll.vreq)
            self.out.resolve(icoll.value)
            return
        protocol = rt.protocol
        if protocol.mode is not ProtocolMode.NORMAL:
            # Algorithm 2 line 28: under a pending intent, hold before the
            # collective call.
            rt.hold_at_wrapper_entry(self.enter)
            return
        if icoll is not None and not icoll.posted:
            rt._post_icoll_barrier(icoll)
        protocol.phase = WrapperPhase.PHASE_1
        rt.current_wrapper_comm = self.real
        if icoll is None:
            rt.stats.trivial_barriers += 1
            barrier = rt.endpoint.barrier(self.real)
        else:
            barrier = icoll.barrier
        rt.current_trivial_barrier = barrier
        barrier.on_done(self.committed)

    def committed(self, _value: Any) -> None:
        # Barrier completion is the commit point: flow into phase 2 even
        # under a pending intent (see protocol.py docstring).
        rt = self.rt
        rt.current_trivial_barrier = None
        protocol = rt.protocol
        if protocol.replied_in_phase1 and \
                protocol.mode is ProtocolMode.PRE_CKPT:
            # Synchronous revision rule (found by the model checker): our
            # in-phase-1 reply is stale; tell the coordinator and park until
            # it acknowledges, so no round can ever complete against the
            # stale reply.
            protocol.replied_in_phase1 = False
            protocol.pending_reply = True
            protocol.phase = WrapperPhase.COMMIT_PENDING
            rt.await_revision_ack(self.enter_phase2)
            return
        # QUIESCED commits happen only after every image is on disk (the
        # barrier needs all members, and held members are released by
        # resume): the round is over, no revision is owed.
        protocol.replied_in_phase1 = False
        self.enter_phase2()

    def enter_phase2(self) -> None:
        self.rt.protocol.phase = WrapperPhase.PHASE_2
        self.issue(self.real).on_done(self.finished)

    def finished(self, value: Any) -> None:
        rt = self.rt
        rt.current_wrapper_comm = None
        if rt.protocol.note_phase2_exit():
            rt.send_deferred_exit_reply()
        self.resolve(value)

    def issue_bare(self) -> None:
        """Ablation: the real collective alone, no Algorithm-1 wrapper."""
        self.issue(self.real).on_done(self.resolve)

    def resolve(self, value: Any) -> None:
        """The real collective returned ``value``: hand the result over."""
        icoll = self.icoll
        if icoll is not None:
            icoll.done = True
            icoll.value = value
            self.rt.defer_free("icoll", icoll.vreq)
        elif self.persist is not None:
            value = self._register(value)
        self.out.resolve(value)

    def _register(self, real_result: Any) -> Optional[int]:
        rt = self.rt
        label, log_args = self.persist
        if real_result is None:
            rt.log.record(label, log_args, None)
            return None
        vid = rt.register_comm(real_result)
        rt.log.record(label, log_args, vid)
        return vid


class ManaApi(MpiApi):
    """The application's view of MPI under MANA."""

    def __init__(self, runtime: "repro.mana.rank_runtime.ManaRankRuntime") -> None:
        self.rt = runtime
        # Interposition-mechanism counters (§3.3), memoized for the hot path.
        metrics = runtime.engine.metrics
        self._m_fs = metrics.counter("mana.fs_switches", rank=runtime.rank)
        self._m_lookups = metrics.counter(
            "mana.vhandle_lookups", rank=runtime.rank
        )
        self._labels = _Labels(runtime.rank)
        #: label of the event that ends a call's interposition overhead
        self._wrapper_label = f"mana-r{runtime.rank}:wrapper"

    # ----------------------------------------------------------- properties

    @property
    def rank(self) -> int:
        """This rank's index in MPI_COMM_WORLD."""
        return self.rt.rank

    @property
    def size(self) -> int:
        """Number of ranks in MPI_COMM_WORLD."""
        return self.rt.n_ranks

    @property
    def comm_world(self) -> int:
        """The world communicator handle."""
        return VCOMM_WORLD

    # ------------------------------------------------------------- plumbing

    def _resolve_comm(self, vcomm: Optional[int]) -> Communicator:
        return self.rt.table.resolve(
            _COMM, VCOMM_WORLD if vcomm is None else vcomm
        )

    def _trace_call(self, name: str, out: Completion) -> None:
        """Record an MPI-call span from now until ``out`` resolves (callers
        check ``engine.tracer.enabled`` first)."""
        tr = self.rt.engine.tracer
        span = tr.begin(name, cat=Category.MPI, rank=self.rank)
        out.on_done(lambda _v: tr.end(span))

    def _after_overhead(self, fn: Callable[..., None], *args: Any,
                        p2p: bool = False) -> None:
        """Charge one interposed call *serially* on this rank's CPU, then
        run ``fn(*args)``.

        One interposed call = upper->lower->upper (two FS-register
        switches) plus one virtual-handle lookup; a p2p call also records
        its send/receive metadata.

        Back-to-back wrapper calls issued from one leaf (e.g. the sends and
        receives of an exchange) each occupy the CPU for their FS switches
        and table lookups one after another, exactly as the real wrapper
        does — this is what makes call-dense workloads (GROMACS) show
        percentage overhead while batched transfers still overlap on the
        wire.
        """
        self._m_fs.inc(2)
        self._m_lookups.inc()
        rt = self.rt
        cost = rt.proc.fs_transition_cost() + LOOKUP_COST
        if p2p:
            cost += P2P_METADATA_COST
        engine = rt.engine
        start = engine._now
        if rt.cpu_busy_until > start:
            start = rt.cpu_busy_until
        fire_at = start + cost
        rt.cpu_busy_until = fire_at
        engine._post(fire_at, fn, args, self._wrapper_label)

    # ------------------------------------------------------------------ p2p

    def send(self, dest: int, data: Any, tag: int = 0,
             comm: Optional[int] = None, size: Optional[int] = None) -> Completion:
        """MPI_Send (blocking; resolves when the buffer is reusable)."""
        rt = self.rt
        real = self._resolve_comm(comm)
        real.validate_rank(dest)
        dst_world = real.world_of_rank(dest)
        # Metadata recorded at call time: this is the sender-side bookmark.
        rt.counters.count_send(dst_world)
        if rt.profile is not None:
            rt.profile_op("send", size if size is not None else 0)
        out = Completion(rt.engine, self._labels["send"])
        if rt.engine.tracer.enabled:
            self._trace_call("send", out)
        self._after_overhead(self._issue_send, dest, data, tag, real, size,
                             out, p2p=True)
        return out

    def _issue_send(self, dest: int, data: Any, tag: int, real: Communicator,
                    size: Optional[int], out: Completion) -> None:
        self.rt.endpoint.send(
            dest, data, tag=tag, comm=real, size=size
        ).on_done(out.resolve)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Optional[int] = None) -> Completion:
        """MPI_Recv; resolves with (data, Status)."""
        rt = self.rt
        vcomm = VCOMM_WORLD if comm is None else comm
        real = self._resolve_comm(comm)
        real.validate_rank(source, allow_any=True)
        src_world = (
            ANY_SOURCE if source == ANY_SOURCE else real.world_of_rank(source)
        )
        if rt.profile is not None:
            rt.profile_op("recv")
        out = Completion(rt.engine, self._labels["recv"])
        if rt.engine.tracer.enabled:
            self._trace_call("recv", out)
        pend = rt.add_pending_recv(vcomm, src_world, tag, out)
        self._after_overhead(rt.attempt_recv, pend, p2p=True)
        return out

    def sendrecv(self, dest: int, data: Any, source: int,
                 tag: int = 0, comm: Optional[int] = None,
                 size: Optional[int] = None) -> Completion:
        """Combined send+recv, checkpoint-safe: the send half is guarded to
        happen exactly once per dynamic call-leaf instance, so a restart
        that re-executes the leaf (after the original send was drained into
        the peer's buffer) does not duplicate the message."""
        self.rt.guarded_send(self.send, dest, data, tag, comm, size)
        return self.recv(source=source, tag=tag, comm=comm)

    def exchange(self, sends: list, recvs: list,
                 comm: Optional[int] = None) -> Completion:
        """Batched neighbour exchange: post all sends (exactly once per
        dynamic leaf instance) and all receives; resolves with the list of
        (data, status) results in ``recvs`` order.  This is the idiomatic
        halo-exchange call — all transfers proceed concurrently, like
        isend/irecv + waitall in real MPI.

        ``sends``: (dest, data, tag, size) tuples; ``recvs``: (source, tag)
        tuples.
        """
        from repro.simtime.engine import all_of

        guarded_send = self.rt.guarded_send
        for dest, data, tag, size in sends:
            guarded_send(self.send, dest, data, tag, comm, size)
        outs = [self.recv(source=src, tag=tag, comm=comm)
                for src, tag in recvs]
        return all_of(self.rt.engine, outs, label=self._labels["exchange"])

    # -------------------------------------------------- nonblocking p2p
    #
    # Requests are opaque handles (§2.2): the application holds small
    # integers, the wrapper holds the persistent record.  A request posted
    # before a checkpoint and waited after a restart works: completed
    # results travel in the image; pending receives are re-posted into the
    # fresh lower half by finish_restore.

    def isend(self, dest: int, data: Any, tag: int = 0,
              comm: Optional[int] = None, size: Optional[int] = None) -> int:
        """MPI_Isend: returns a virtual request handle immediately."""
        rec, fresh = self.rt.vreq_at_site("send")
        if fresh:
            self.send(dest, data, tag=tag, comm=comm, size=size).on_done(
                lambda _v: self.rt.vreq_resolve(rec, None)
            )
        return rec.vreq

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Optional[int] = None) -> int:
        """MPI_Irecv: returns a virtual request handle immediately."""
        rec, fresh = self.rt.vreq_at_site("recv")
        if fresh:
            vcomm = VCOMM_WORLD if comm is None else comm
            real = self._resolve_comm(comm)
            real.validate_rank(source, allow_any=True)
            rec.vcomm = vcomm
            rec.tag = tag
            rec.src_world = (
                ANY_SOURCE if source == ANY_SOURCE
                else real.world_of_rank(source)
            )
            attempt = self.rt.attach_irecv(rec)
            self._after_overhead(attempt, p2p=True)
        return rec.vreq

    def _wait_p2p(self, rec) -> Completion:
        rt = self.rt
        out = Completion(rt.engine, self._labels["wait-p2p"])

        def finish(value: Any) -> None:
            rec.done = True
            rec.value = value
            rt.defer_free("p2p", rec.vreq)
            out.resolve(value)

        def enter() -> None:
            if rec.done:
                finish(rec.value)
            elif rec.completion is not None:
                rec.completion.on_done(finish)
            else:  # restored-but-unwaited send records resolve to None
                finish(rec.value)

        self._after_overhead(enter)
        return out

    def waitall(self, vreqs: list[int], comm: Optional[int] = None) -> Completion:
        """MPI_Waitall over p2p/collective requests; resolves with the list
        of values in request order."""
        from repro.simtime.engine import all_of

        return all_of(self.rt.engine, [self.wait(v) for v in vreqs],
                      label=self._labels["waitall"])

    # ------------------------------------------ collectives (Algorithm 1)

    def _collective(
        self,
        label: str,
        vcomm: Optional[int],
        issue: Callable[[Communicator], Completion],
        persist: Optional[tuple] = None,
    ) -> Completion:
        """The two-phase wrapper: trivial barrier, then the real call."""
        rt = self.rt
        real = rt.table.resolve(
            _COMM, VCOMM_WORLD if vcomm is None else vcomm
        )
        if rt.profile is not None:
            rt.profile_op(label)
        out = Completion(rt.engine, self._labels[label])
        if rt.engine.tracer.enabled:
            self._trace_call(label, out)
        call = _TwoPhaseCall(rt, real, issue, out, persist=persist)
        self._after_overhead(
            call.enter if rt.two_phase_enabled else call.issue_bare
        )
        return out

    def barrier(self, comm: Optional[int] = None) -> Completion:
        """MPI_Barrier."""
        return self._collective("barrier", comm, self.rt.endpoint.barrier)

    def bcast(self, data: Any, root: int, comm: Optional[int] = None,
              size: Optional[int] = None) -> Completion:
        """MPI_Bcast from ``root``."""
        return self._collective(
            "bcast", comm,
            partial(self.rt.endpoint.bcast, data, root, size=size),
        )

    def reduce(self, data: Any, op: ReduceOp, root: int,
               comm: Optional[int] = None, size: Optional[int] = None) -> Completion:
        """MPI_Reduce to ``root``."""
        return self._collective(
            "reduce", comm,
            partial(self.rt.endpoint.reduce, data, op, root, size=size),
        )

    def allreduce(self, data: Any, op: ReduceOp, comm: Optional[int] = None,
                  size: Optional[int] = None) -> Completion:
        """MPI_Allreduce."""
        return self._collective(
            "allreduce", comm,
            partial(self.rt.endpoint.allreduce, data, op, size=size),
        )

    def gather(self, data: Any, root: int, comm: Optional[int] = None,
               size: Optional[int] = None) -> Completion:
        """MPI_Gather to ``root``."""
        return self._collective(
            "gather", comm,
            partial(self.rt.endpoint.gather, data, root, size=size),
        )

    def allgather(self, data: Any, comm: Optional[int] = None,
                  size: Optional[int] = None) -> Completion:
        """MPI_Allgather."""
        return self._collective(
            "allgather", comm,
            partial(self.rt.endpoint.allgather, data, size=size),
        )

    def scatter(self, chunks: Any, root: int, comm: Optional[int] = None,
                size: Optional[int] = None) -> Completion:
        """MPI_Scatter from ``root``."""
        return self._collective(
            "scatter", comm,
            partial(self.rt.endpoint.scatter, chunks, root, size=size),
        )

    def alltoall(self, chunks: list, comm: Optional[int] = None,
                 size: Optional[int] = None) -> Completion:
        """MPI_Alltoall."""
        return self._collective(
            "alltoall", comm,
            partial(self.rt.endpoint.alltoall, chunks, size=size),
        )

    def reduce_scatter(self, data: Any, op: ReduceOp, comm: Optional[int] = None,
                       size: Optional[int] = None) -> Completion:
        """MPI_Reduce_scatter (equal blocks)."""
        return self._collective(
            "reduce_scatter", comm,
            partial(self.rt.endpoint.reduce_scatter, data, op, size=size),
        )

    def scan(self, data: Any, op: ReduceOp, comm: Optional[int] = None,
             size: Optional[int] = None) -> Completion:
        """MPI_Scan (inclusive prefix reduction)."""
        return self._collective(
            "scan", comm,
            partial(self.rt.endpoint.scan, data, op, size=size),
        )

    # ----------------- nonblocking collectives (§4.2 future-work extension)
    #
    # The paper proposes: phase 1 becomes a nonblocking trivial barrier
    # (MPI_Ibarrier) posted when the application posts the collective; the
    # Wait/Test wrapper, once the Ibarrier has completed, runs the *actual*
    # collective synchronously as phase 2.  Under a pending checkpoint
    # intent the Ibarrier posting itself is deferred (it would otherwise
    # register the rank in a barrier the protocol believes untouched), and
    # across a restart the upper-half request record re-posts a fresh
    # Ibarrier into the new lower half.

    def _icollective(self, op: str, vcomm: Optional[int], args: tuple) -> Completion:
        rt = self.rt
        self._resolve_comm(vcomm)  # validates (and charges a lookup)
        rec = rt.new_icoll(op, VCOMM_WORLD if vcomm is None else vcomm, args)
        out = Completion(rt.engine, self._labels["i" + op])
        self._after_overhead(lambda: out.resolve(rec.vreq))
        return out

    def iallreduce(self, data: Any, op: ReduceOp, comm: Optional[int] = None,
                   size: Optional[int] = None) -> Completion:
        """Nonblocking allreduce; resolves with a virtual request handle."""
        return self._icollective(
            "allreduce", comm, (data, op.name, size)
        )

    def ibcast(self, data: Any, root: int, comm: Optional[int] = None,
               size: Optional[int] = None) -> Completion:
        """Nonblocking MPI_Ibcast; returns a virtual request handle."""
        return self._icollective("bcast", comm, (data, root, size))

    def ibarrier(self, comm: Optional[int] = None) -> Completion:
        """Nonblocking MPI_Ibarrier; returns a request."""
        return self._icollective("barrier", comm, ())

    def _issue_phase2(self, rec) -> Completion:
        from repro.mpilib.ops import ALL_OPS

        real = self._resolve_comm(rec.vcomm)
        ep = self.rt.endpoint
        if rec.op == "allreduce":
            data, op_name, size = rec.args
            return ep.allreduce(data, ALL_OPS[op_name], comm=real, size=size)
        if rec.op == "bcast":
            data, root, size = rec.args
            return ep.bcast(data, root, comm=real, size=size)
        if rec.op == "barrier":
            return ep.barrier(real)
        raise ValueError(f"unknown nonblocking collective {rec.op!r}")

    def wait(self, vreq: int) -> Completion:
        """MPI_Wait on a nonblocking request — p2p or collective.

        For collectives: completes phase 1 (the Ibarrier), commits, runs
        phase 2 synchronously, resolves with the collective's result.  For
        p2p: resolves with None (sends) or (data, status) (receives)."""
        rt = self.rt
        p2p = rt.vrequests.get(vreq)
        if p2p is not None:
            return self._wait_p2p(p2p)
        rec = rt.icolls.get(vreq)
        if rec is None:
            raise VirtualizationError(f"unknown request handle {vreq}")
        out = Completion(rt.engine, self._labels["wait"])
        if rt.engine.tracer.enabled:
            self._trace_call("wait", out)
        call = _TwoPhaseCall(rt, self._resolve_comm(rec.vcomm),
                             lambda _c: self._issue_phase2(rec), out,
                             icoll=rec)
        self._after_overhead(call.enter)
        return out

    def test(self, vreq: int) -> Completion:
        """MPI_Test: resolves with True if the request's phase-1 Ibarrier
        has completed (the collective will then run at the next wait), else
        False.  Purely local plus the interposition overhead."""
        rt = self.rt
        p2p = rt.vrequests.get(vreq)
        if p2p is not None:
            out = Completion(rt.engine, self._labels["test"])
            self._after_overhead(lambda: out.resolve(bool(p2p.done)))
            return out
        rec = rt.icolls.get(vreq)
        if rec is None:
            raise VirtualizationError(f"unknown request handle {vreq}")
        out = Completion(rt.engine, self._labels["test"])
        self._after_overhead(
            lambda: out.resolve(
                rec.done or (rec.posted and rec.barrier is not None
                             and rec.barrier.done)
            ),
        )
        return out

    # ----------------------- persistent calls: record, virtualize, replay

    def _persistent(
        self,
        label: str,
        vparent: Optional[int],
        issue: Callable[[Communicator], Completion],
        *log_args: Any,
    ) -> Completion:
        """A communicator-management collective: two-phase wrapped AND
        recorded, with the parent's virtual handle and ``log_args`` as the
        log entry's arguments.  Resolves with the new *virtual* handle (or
        None)."""
        parent_vid = VCOMM_WORLD if vparent is None else vparent
        return self._collective(label, vparent, issue,
                                persist=(label, (parent_vid, *log_args)))

    def comm_dup(self, comm: Optional[int] = None) -> Completion:
        """MPI_Comm_dup (collective)."""
        return self._persistent(
            "comm_dup", comm, self.rt.endpoint.comm_dup,
        )

    def comm_split(self, color: int, key: int,
                   comm: Optional[int] = None) -> Completion:
        """MPI_Comm_split (collective); resolves with the new communicator or None."""
        return self._persistent(
            "comm_split", comm,
            partial(self.rt.endpoint.comm_split, color, key),
            color, key,
        )

    def comm_create(self, group, comm: Optional[int] = None) -> Completion:
        """``group`` may be a Group value or a virtual group handle."""
        if isinstance(group, int):
            group = self._resolve_group(group)
        return self._persistent(
            "comm_create", comm,
            partial(self.rt.endpoint.comm_create, group),
            tuple(group.world_ranks),
        )

    def cart_create(self, dims: list[int], periods: list[bool],
                    comm: Optional[int] = None) -> Completion:
        """MPI_Cart_create (collective); the result carries a CartTopology."""
        return self._persistent(
            "cart_create", comm,
            partial(self.rt.endpoint.cart_create, dims, periods),
            tuple(dims), tuple(bool(p) for p in periods),
        )

    def graph_create(self, edges: list, comm: Optional[int] = None) -> Completion:
        """MPI_Graph_create (collective)."""
        return self._persistent(
            "graph_create", comm,
            partial(self.rt.endpoint.graph_create, edges),
            tuple(tuple(e) for e in edges),
        )

    def comm_free(self, vcomm: int) -> None:
        """Retire the virtual handle, release the real one, log the free."""
        rt = self.rt
        rt.endpoint.comm_free(rt.unregister_comm(vcomm))
        rt.log.record("comm_free", (vcomm,), None)

    # --------------------------------------------------------------- files
    #
    # MPI-IO handles are opaque objects like communicators: virtualized,
    # recorded, replayed.  Collective file operations go through the
    # two-phase wrapper — a rank blocked in the synchronizing part of
    # write_at_all is protected by the same invariant as any collective.

    def file_open(self, path: str, mode: str = "rw",
                  comm: Optional[int] = None) -> Completion:
        """MPI_File_open (collective); resolves with a virtual file handle."""
        rt = self.rt
        vcomm = VCOMM_WORLD if comm is None else comm
        out = Completion(rt.engine, self._labels["fopen"])

        def register(real: Any) -> None:
            binding = FileBinding(real=real, vcomm=vcomm, path=path, mode=mode)
            vid = rt.table.register(_FILE, binding)
            rt.log.record("file_open", (vcomm, path, mode), vid,
                          result_kind=_FILE)
            out.resolve(vid)

        self._collective(
            "file_open", comm,
            partial(rt.endpoint.file_open, path, mode),
        ).on_done(register)
        return out

    def _resolve_file(self, vfile: int) -> "FileBinding":
        return self.rt.table.resolve(_FILE, vfile)

    def file_write_at(self, vfile: int, offset: int, data: bytes,
                      size: Optional[int] = None) -> Completion:
        """Independent write at an explicit offset."""
        binding = self._resolve_file(vfile)
        out = Completion(self.rt.engine, self._labels["fwrite"])
        self._after_overhead(
            lambda: binding.real.write_at(offset, data, size=size)
                            .on_done(out.resolve),
        )
        return out

    def file_read_at(self, vfile: int, offset: int, length: int,
                     size: Optional[int] = None) -> Completion:
        """Independent read; resolves with the bytes."""
        binding = self._resolve_file(vfile)
        out = Completion(self.rt.engine, self._labels["fread"])
        self._after_overhead(
            lambda: binding.real.read_at(offset, length, size=size)
                            .on_done(out.resolve),
        )
        return out

    def file_write_at_all(self, vfile: int, offset: int, data: bytes,
                          size: Optional[int] = None) -> Completion:
        """Collective write (two-phase wrapped)."""
        binding = self._resolve_file(vfile)
        return self._collective(
            "file_write_at_all", binding.vcomm,
            lambda _c: binding.real.write_at_all(offset, data, size=size),
        )

    def file_read_at_all(self, vfile: int, offset: int, length: int,
                         size: Optional[int] = None) -> Completion:
        """Collective read (two-phase wrapped)."""
        binding = self._resolve_file(vfile)
        return self._collective(
            "file_read_at_all", binding.vcomm,
            lambda _c: binding.real.read_at_all(offset, length, size=size),
        )

    def file_close(self, vfile: int) -> None:
        """Close and retire the handle; recorded for replay."""
        binding = self._resolve_file(vfile)
        binding.real.close()
        self.rt.table.unregister(_FILE, vfile)
        self.rt.log.record("file_close", (vfile,), None,
                           result_kind=_FILE)

    # --------------------------------------------------------------- groups
    #
    # Group operations are local in MPI, but groups are opaque handles and
    # therefore recorded and replayed like every other persistent object
    # (§2.2): an application that holds a group handle across a restart
    # resolves it against the rebuilt table.

    def comm_group(self, comm: Optional[int] = None) -> int:
        """MPI_Comm_group: returns a virtual group handle."""
        rt = self.rt
        parent_vid = VCOMM_WORLD if comm is None else comm
        group = rt.table.resolve(_COMM, parent_vid).group
        vid = rt.table.register(_GROUP, group)
        rt.log.record("comm_group", (parent_vid,), vid,
                      result_kind=_GROUP)
        return vid

    def _resolve_group(self, vgroup: int) -> Group:
        return self.rt.table.resolve(_GROUP, vgroup)

    def _derive_group(self, op: str, vgroup: int, arg, derived: Group) -> int:
        rt = self.rt
        vid = rt.table.register(_GROUP, derived)
        rt.log.record(op, (vgroup, arg), vid, result_kind=_GROUP)
        return vid

    def group_incl(self, vgroup: int, ranks: list[int]) -> int:
        """MPI_Group_incl."""
        g = self._resolve_group(vgroup)
        return self._derive_group("group_incl", vgroup, tuple(ranks),
                                  g.incl(ranks))

    def group_excl(self, vgroup: int, ranks: list[int]) -> int:
        """MPI_Group_excl."""
        g = self._resolve_group(vgroup)
        return self._derive_group("group_excl", vgroup, tuple(ranks),
                                  g.excl(ranks))

    def group_union(self, va: int, vb: int) -> int:
        """MPI_Group_union."""
        g = self._resolve_group(va).union(self._resolve_group(vb))
        return self._derive_group("group_union", va, vb, g)

    def group_intersection(self, va: int, vb: int) -> int:
        """MPI_Group_intersection."""
        g = self._resolve_group(va).intersection(self._resolve_group(vb))
        return self._derive_group("group_intersection", va, vb, g)

    def group_free(self, vgroup: int) -> None:
        """MPI_Group_free: retire the handle (recorded for replay)."""
        rt = self.rt
        rt.table.unregister(_GROUP, vgroup)
        rt.log.record("group_free", (vgroup,), None,
                      result_kind=_GROUP)

    def group_size(self, vgroup: int) -> int:
        """Number of ranks in the group."""
        return self._resolve_group(vgroup).size

    def group_rank(self, vgroup: int) -> Optional[int]:
        """This rank's position in the group (None = MPI_UNDEFINED)."""
        return self._resolve_group(vgroup).rank_of(self.rank)

    # ------------------------------------------------------------ datatypes

    def _new_type(self, dtype: Datatype) -> int:
        rt = self.rt
        vid = rt.table.register(_DATATYPE, dtype)
        rt.log.record("type_create", (dtype.recipe,), vid,
                      result_kind=_DATATYPE)
        return vid

    def type_free(self, vid: int) -> None:
        """MPI_Type_free: retire the handle (recorded for replay)."""
        rt = self.rt
        rt.table.unregister(_DATATYPE, vid)
        rt.log.record("type_free", (vid,), None,
                      result_kind=_DATATYPE)

    def type_contiguous(self, count: int, base: Datatype) -> int:
        """MPI_Type_contiguous; returns a virtual datatype handle."""
        return self._new_type(contiguous(count, base))

    def type_vector(self, count: int, blocklength: int, stride: int,
                    base: Datatype) -> int:
        """MPI_Type_vector; returns a virtual datatype handle."""
        return self._new_type(vector(count, blocklength, stride, base))

    def type_struct(self, fields: list) -> int:
        """MPI_Type_create_struct; returns a virtual datatype handle."""
        return self._new_type(struct(fields))

    def resolve_type(self, vid: int) -> Datatype:
        """Virtual datatype handle -> Datatype (for size computations)."""
        return self.rt.table.resolve(_DATATYPE, vid)

    # ------------------------------------------------------------ local ops

    def comm_size(self, comm: Any) -> int:
        """MPI_Comm_size."""
        return self._resolve_comm(comm).size

    def comm_rank(self, comm: Any) -> Optional[int]:
        """MPI_Comm_rank (None for non-members)."""
        return self._resolve_comm(comm).rank_of_world(self.rank)

    def topology(self, comm: Any):
        """The topology attached to a communicator, if any."""
        return self._resolve_comm(comm).topology
