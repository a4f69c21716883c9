"""Per-rank MANA runtime: wrapper state plus the checkpoint helper thread.

One :class:`ManaRankRuntime` exists per MPI rank.  It owns the rank's

* :class:`~repro.mana.split_process.SplitProcess` (the tagged address space),
* :class:`~repro.runtime.driver.RankDriver` running the application program
  through the interposed :class:`~repro.mana.wrappers.ManaApi`,
* virtual handle table, record-replay log, p2p counters and the upper-half
  drained-message buffer,
* and the *helper thread* of §2.6: :meth:`on_ctrl` receives checkpoint
  control messages, answers with the rank's Algorithm-2 state, quiesces the
  application threads at do-ckpt, runs the local drain, captures the image
  and resumes execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.mana.checkpoint_image import CheckpointImage
from repro.mana.protocol import (
    CkptMsg,
    JobOptions,
    ProtocolMode,
    RankCkptState,
    RankProtocol,
    WrapperPhase,
    ctrl_instant_name,
)
from repro.mana.record_replay import RecordLog, ReplayEngine
from repro.mana.split_process import SplitProcess
from repro.mana.virtualize import VCOMM_WORLD, HandleKind, VirtualHandleTable
from repro.mana.wrappers import ManaApi
from repro.obs.events import Category
from repro.mpilib.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpilib.world import MpiEndpoint, MsgRecord, Status
from repro.mprog.ast import Program
from repro.mprog.interp import Interpreter, ProgramState
from repro.runtime.driver import RankDriver
from repro.simtime import Completion, Engine

#: read once (an enum member read off its class goes through the enum
#: metaclass's ``__getattr__`` hook; see repro.mana.wrappers)
_COMM = HandleKind.COMM


@dataclass
class P2pCounters:
    """Wrapper-level send/receive bookmarks (§2.3)."""

    sent: dict[int, int] = field(default_factory=dict)   # dst world -> count
    sent_total: int = 0
    received_total: int = 0
    #: per-source receive bookmarks (src world -> count) — the topo
    #: protocol's in-flight dependency DAG is ``sent[j][i] - received[i][j]``
    received: dict[int, int] = field(default_factory=dict)

    def count_send(self, dst_world: int) -> None:
        """Bookmark one outgoing message to ``dst_world``."""
        self.sent[dst_world] = self.sent.get(dst_world, 0) + 1
        self.sent_total += 1

    def count_receive(self, src_world: Optional[int] = None) -> None:
        """Bookmark one message delivered to the upper half."""
        self.received_total += 1
        if src_world is not None:
            self.received[src_world] = self.received.get(src_world, 0) + 1

    def snapshot(self) -> dict:
        """Picklable representation for the checkpoint image."""
        return {
            "sent": dict(self.sent),
            "sent_total": self.sent_total,
            "received_total": self.received_total,
            "received": dict(self.received),
        }

    def restore(self, snap: dict) -> None:
        """Install state captured by :meth:`snapshot`."""
        self.sent = dict(snap["sent"])
        self.sent_total = int(snap["sent_total"])
        self.received_total = int(snap["received_total"])
        self.received = dict(snap["received"])


@dataclass
class BufferedMsg:
    """One drained message, stored in the upper half (checkpointed)."""

    vcomm: int
    src_world: int
    tag: int
    data: Any
    size: int
    seq: int


class DrainBuffer:
    """Drained messages, per source in the order they were sent.

    MPI-3.1 §3.5: two messages from one source that both match a receive
    are received in the order they were sent.  A drain buffers an eager
    record at once but a rendezvous payload only when its data arrives, so
    a large message sent before a small one can reach the buffer second.
    :meth:`add` therefore inserts each message before any later-sent one
    from the same source, by the sender's per-channel ``seq``.  Those
    numbers belong to the lower half that carried the message, and a
    restart brings up a fresh one whose numbers start again at 0: entries
    restored from an image were sent before anything drained later, so the
    first ``_restored`` entries are never reordered.
    """

    def __init__(self) -> None:
        self.entries: list[BufferedMsg] = []
        #: leading entries restored from an image (an older lower half)
        self._restored = 0

    def add(self, msg: BufferedMsg) -> None:
        """Buffer one drained message behind everything its source sent
        before it."""
        entries = self.entries
        src, seq = msg.src_world, msg.seq
        for i in range(self._restored, len(entries)):
            e = entries[i]
            if e.src_world == src and e.seq > seq:
                entries.insert(i, msg)
                return
        entries.append(msg)

    def take(self, vcomm: int, src_world: int, tag: int) -> Optional[BufferedMsg]:
        """Remove and return the first matching entry, or None."""
        for i, e in enumerate(self.entries):
            if (
                e.vcomm == vcomm
                and (src_world == ANY_SOURCE or e.src_world == src_world)
                and (tag == ANY_TAG or e.tag == tag)
            ):
                del self.entries[i]
                if i < self._restored:
                    self._restored -= 1
                return e
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def snapshot(self) -> list[tuple]:
        """Picklable representation for the checkpoint image."""
        return [
            (e.vcomm, e.src_world, e.tag, e.data, e.size, e.seq)
            for e in self.entries
        ]

    def restore(self, snap: list[tuple]) -> None:
        """Install state captured by :meth:`snapshot`."""
        self.entries = [BufferedMsg(*row) for row in snap]
        self._restored = len(self.entries)


class PendingRecv:
    """A wrapper-level receive that has not yet returned data to the app
    (compared by identity: two receives with one envelope are distinct)."""

    __slots__ = ("vcomm", "source", "src_world", "tag", "out", "posted",
                 "active", "journal_key", "journal_pos")

    def __init__(self, vcomm: int, source: int, src_world: int, tag: int,
                 out: Completion, journal_key: Optional[tuple],
                 journal_pos: int) -> None:
        self.vcomm = vcomm
        #: comm-local source rank, or ANY_SOURCE
        self.source = source
        #: ``source`` as a world rank, or ANY_SOURCE
        self.src_world = src_world
        self.tag = tag
        self.out = out
        #: the lower-half posted receive, while one is posted
        self.posted = None
        self.active = True
        #: owning call-leaf instance (for the receive journal), if any
        self.journal_key = journal_key
        #: this receive's position among the leaf's receives
        self.journal_pos = journal_pos


@dataclass
class VRequest:
    """A virtualized nonblocking p2p request (MPI_Isend / MPI_Irecv).

    Requests outlive the call leaf that posted them (posted in one leaf,
    waited in another), so — unlike the leaf-scoped receive journal — their
    state persists as first-class wrapper data: a completed request carries
    its value; a pending receive carries its envelope and is re-posted into
    the fresh lower half after restart.  Pending *sends* never reach an
    image: the drain phase completes every posted send before the image is
    cut.
    """

    vreq: int
    kind: str                      # "send" | "recv"
    vcomm: int = 0
    src_world: int = 0
    tag: int = 0
    done: bool = False
    value: Any = None
    #: live completion the app's wait() chains on (never serialized)
    completion: Any = None

    def snapshot(self) -> tuple:
        """Picklable representation for the checkpoint image."""
        if not self.done and self.kind == "send":
            raise RuntimeError(
                f"isend request {self.vreq} still pending at image time — "
                "the drain phase should have completed it"
            )
        return (self.vreq, self.kind, self.vcomm, self.src_world, self.tag,
                self.done, self.value)


@dataclass
class IColl:
    """Wrapper state of one nonblocking collective (§4.2 extension).

    The upper half owns everything: which collective was requested (op +
    args with virtual handles) and whether the phase-1 Ibarrier has been
    posted to the current lower half.  The lower-half barrier itself is
    ephemeral — discarded with the world and re-posted after restart.
    """

    vreq: int
    op: str
    vcomm: int
    args: tuple
    posted: bool = False
    #: live lower-half barrier completion (never serialized)
    barrier: Any = None
    #: set once phase 2 ran (via test); wait then returns it immediately
    done: bool = False
    value: Any = None

    def snapshot(self) -> tuple:
        """Picklable representation for the checkpoint image."""
        return (self.vreq, self.op, self.vcomm, self.args, self.done,
                self.value)


@dataclass
class RankStats:
    """Per-rank diagnostics used by experiments and tests."""

    trivial_barriers: int = 0
    drained_messages: int = 0
    checkpoints: int = 0


class ManaRankRuntime:
    """Everything MANA keeps for one rank (see module docstring)."""

    def __init__(
        self,
        engine: Engine,
        rank: int,
        n_ranks: int,
        proc: SplitProcess,
        endpoint: MpiEndpoint,
        program: Program,
        options: JobOptions,
        core_speed: float = 1.0,
    ) -> None:
        self.engine = engine
        self.rank = rank
        self.n_ranks = n_ranks
        self.proc = proc
        self.endpoint = endpoint
        self.program = program
        #: the job's JobOptions (``compact`` is read at checkpoint time)
        self.options = options
        #: stats dict of the most recent checkpoint's compaction pass
        self.last_compaction: Optional[dict] = None
        #: False once the rank's node crashed: the helper thread is gone (it
        #: stops answering the coordinator and the failure detector) and the
        #: driver is dead.  Set by :meth:`kill`.
        self.alive = True
        self.table = VirtualHandleTable()
        self.log = RecordLog(compact=options.compact)
        self.counters = P2pCounters()
        self.buffer = DrainBuffer()
        self.protocol = RankProtocol()
        self.stats = RankStats()
        self.pending_recvs: list[PendingRecv] = []
        self.held_entries: list[Callable[[], None]] = []
        self.ctx_to_vcomm: dict[int, int] = {}
        self.current_trivial_barrier: Optional[Completion] = None
        #: the real communicator of the wrapper this rank is inside, if any
        self.current_wrapper_comm: Optional[Communicator] = None
        #: set by the coordinator: fn(rank, msg, payload) sends a reply
        self.reply_fn: Optional[Callable[[int, CkptMsg, Any], None]] = None
        self._drain_expected: Optional[int] = None
        self._revision_cont: Optional[Callable[[], None]] = None
        #: Ablation switch: with the two-phase wrapper disabled, collectives
        #: are issued bare (no trivial barrier, no entry gate).  Checkpoints
        #: are then UNSAFE (see the NaiveModel counterexample); only for
        #: overhead ablations on checkpoint-free runs.
        self.two_phase_enabled = True
        #: outstanding nonblocking collectives (§4.2), vreq -> IColl
        self.icolls: dict[int, IColl] = {}
        self._icoll_ids = 5000
        #: Exactly-once send accounting for call leaves that both send and
        #: receive (sendrecv/exchange): counts sends already performed per
        #: dynamic leaf instance.  Persisted in the image — at restart the
        #: re-executed leaf skips sends that already reached (or were
        #: drained at) the receiver, instead of duplicating them.
        self.sends_done: dict[tuple, int] = {}
        #: per-execution send cursor (transient; fresh runtimes start empty)
        self._send_seq: dict[tuple, int] = {}
        #: Receive journal: (data, Status) results already delivered to a
        #: still-incomplete call leaf, in delivery-position order.
        #: Persisted in the image — a restart re-executes the leaf, and its
        #: receives replay positionally from here before touching the drain
        #: buffer or the new lower half (otherwise messages consumed just
        #: before the checkpoint would be lost forever).
        self.recv_journal: dict[tuple, dict] = {}
        #: per-execution receive cursor (transient): the leaf instance
        #: (its ``leaves_done``) of the last receive, and that receive's
        #: position among the leaf's receives
        self._recv_leaf = -1
        self._recv_pos = 0
        #: False while none of the per-leaf tables (sends_done, _send_seq,
        #: recv_journal, vreq_sites, _vreq_seq, _waited_by_leaf) may hold
        #: anything, so the leaf-done hook has nothing to retire
        self._leaf_tables = False
        #: when this rank's CPU finishes its queued wrapper overheads
        self.cpu_busy_until = 0.0
        #: PMPI-style tracing (§4.2): when set (a dict), every interposed
        #: call records (count, bytes) per operation name — enable it on a
        #: restarted job to profile a production run mid-flight without
        #: having launched it with instrumentation.
        self.profile: Optional[dict] = None
        #: virtualized nonblocking p2p requests (MPI_Isend/Irecv), vreq -> rec
        self.vrequests: dict[int, VRequest] = {}
        self._vreq_ids = 9000
        #: call-site map: (leaf instance key, position) -> vreq, so a
        #: re-executed leaf returns the SAME request instead of re-posting
        self.vreq_sites: dict[tuple, list[int]] = {}
        self._vreq_seq: dict[tuple, int] = {}
        #: requests waited inside the current leaf; actually freed only when
        #: the leaf completes (a checkpoint mid-leaf re-executes the leaf,
        #: which must find the records again) — transient by design
        self._waited_by_leaf: dict[tuple, list[tuple[str, int]]] = {}

        #: open per-rank checkpoint spans (tracing only)
        self._drain_span = None
        #: label of every MPI_Irecv completion (built once, not per call)
        self._irecv_label = f"mana-irecv-r{rank}"
        #: drained-message counter (memoized; metrics are always on)
        self._m_drained = engine.metrics.counter(
            "mana.drained_messages", rank=rank
        )

        self.table.register(_COMM, endpoint.comm_world,
                            virtual=VCOMM_WORLD)
        self.ctx_to_vcomm[endpoint.comm_world.context_id] = VCOMM_WORLD

        self.api = ManaApi(self)
        app_state = ProgramState(rank=rank, size=n_ranks)
        self.driver = RankDriver(
            engine, Interpreter(program, app_state), self.api,
            core_speed=core_speed, label=f"mana-r{rank}",
        )
        self.driver.leaf_done_hook = self._on_leaf_done

    def unlink(self) -> None:
        """Break this runtime's back-references: its API's, its driver's
        leaf hook and its reply channel to the coordinator (the finalizer
        of a dropped job calls this)."""
        self.api.rt = None
        self.driver.leaf_done_hook = None
        self.reply_fn = None

    # ------------------------------------------------------ wrapper support

    def register_comm(self, real: Communicator) -> int:
        """Bind a freshly created communicator under a new virtual id."""
        vid = self.table.register(_COMM, real)
        self.ctx_to_vcomm[real.context_id] = vid
        return vid

    def unregister_comm(self, vid: int) -> Communicator:
        """Retire a communicator's virtual id (MPI_Comm_free); returns the
        real communicator it was bound to."""
        real = self.table.unregister(_COMM, vid)
        self.ctx_to_vcomm.pop(real.context_id, None)
        return real

    def hold_at_wrapper_entry(self, closure: Callable[[], None]) -> None:
        """Algorithm 2 line 28: park a wrapper entry until after checkpoint."""
        self.protocol.phase = WrapperPhase.ENTRY_HELD
        self.held_entries.append(closure)

    def _release_held(self) -> None:
        held, self.held_entries = self.held_entries, []
        if held and self.protocol.phase is WrapperPhase.ENTRY_HELD:
            self.protocol.phase = WrapperPhase.NONE
        for closure in held:
            self.engine.call_after(0.0, closure,
                                   label=f"mana-r{self.rank}:release-entry")

    # --------------------------------------------- exactly-once send guard

    def profile_op(self, op: str, nbytes: int = 0) -> None:
        """Record one interposed call when PMPI-style tracing is enabled."""
        if self.profile is not None:
            count, total = self.profile.get(op, (0, 0))
            self.profile[op] = (count + 1, total + nbytes)

    def guarded_send(self, post_fn: Callable[..., Any], *args: Any) -> None:
        """Perform a send inside a multi-op call leaf exactly once per
        dynamic leaf instance, across restarts.  ``post_fn(*args)`` is
        invoked only if this position's send has not already happened."""
        key = self.driver.current_call_key()
        if key is None:
            post_fn(*args)
            return
        self._leaf_tables = True
        pos = self._send_seq.get(key, 0)
        self._send_seq[key] = pos + 1
        if pos < self.sends_done.get(key, 0):
            return  # already sent before the checkpoint; do not duplicate
        post_fn(*args)
        self.sends_done[key] = pos + 1

    def _on_leaf_done(self, key: tuple) -> None:
        """Driver hook: the leaf finished; its guard/journal state retires.

        Runs after every call leaf; one that touched none of the per-leaf
        tables (a blocking send or receive) returns at once.
        """
        if not self._leaf_tables:
            return
        tables = (self.sends_done, self._send_seq, self.recv_journal,
                  self.vreq_sites, self._vreq_seq)
        for table in tables:
            if table:
                table.pop(key, None)
        waited = self._waited_by_leaf
        if waited:
            for kind, vreq in waited.pop(key, ()):
                if kind == "p2p":
                    self.vrequests.pop(vreq, None)
                else:
                    self.icolls.pop(vreq, None)
        self._leaf_tables = bool(waited) or any(tables)

    # ------------------------------------- nonblocking p2p (virtual requests)

    def vreq_at_site(self, kind: str) -> tuple[VRequest, bool]:
        """The request for the current call-site position.

        Returns ``(record, fresh)``: on first execution a new record is
        minted and remembered under (leaf instance, position); a re-executed
        leaf (restart) gets the original record back and must not re-post.
        """
        key = self.driver.current_call_key()
        if key is not None:
            self._leaf_tables = True
            pos = self._vreq_seq.get(key, 0)
            self._vreq_seq[key] = pos + 1
            sites = self.vreq_sites.setdefault(key, [])
            if pos < len(sites):
                return self.vrequests[sites[pos]], False
        self._vreq_ids += 1
        rec = VRequest(vreq=self._vreq_ids, kind=kind)
        self.vrequests[rec.vreq] = rec
        if key is not None:
            self.vreq_sites[key].append(rec.vreq)
        return rec, True

    def defer_free(self, kind: str, vreq: int) -> None:
        """MPI_Wait frees the request — but only once the waiting leaf has
        completed, so that a restart-driven re-execution still finds it."""
        key = self.driver.current_call_key()
        if key is None:
            if kind == "p2p":
                self.vrequests.pop(vreq, None)
            else:
                self.icolls.pop(vreq, None)
            return
        self._leaf_tables = True
        self._waited_by_leaf.setdefault(key, []).append((kind, vreq))

    def vreq_resolve(self, rec: VRequest, value: Any) -> None:
        """Mark a request complete and wake any waiter."""
        rec.done = True
        rec.value = value
        if rec.completion is not None and not rec.completion.done:
            rec.completion.resolve(value)

    def attach_irecv(self, rec: VRequest) -> Callable[[], None]:
        """Post (or re-post, after restart) the receive behind ``rec``;
        returns the thunk that attempts the match."""
        out = Completion(self.engine, self._irecv_label)
        rec.completion = out
        real = self.table.resolve(_COMM, rec.vcomm)
        src_world = rec.src_world
        source = (ANY_SOURCE if src_world == ANY_SOURCE
                  else real.rank_of_world(src_world))
        pend = self.add_pending_recv(rec.vcomm, source, src_world, rec.tag,
                                     out)
        # request persistence supersedes the leaf-scoped journal
        pend.journal_key = None
        out.on_done(lambda value: self.vreq_resolve(rec, value))
        return lambda: self.attempt_recv(pend, real)

    def _repost_pending_irecvs(self) -> None:
        for rec in self.vrequests.values():
            if rec.kind == "recv" and not rec.done:
                attempt = self.attach_irecv(rec)
                attempt()

    # ------------------------------------- nonblocking collectives (§4.2)

    def new_icoll(self, op: str, vcomm: int, args: tuple) -> IColl:
        """Register a nonblocking collective; posts its phase-1 Ibarrier
        immediately unless a checkpoint intent is pending."""
        self._icoll_ids += 1
        rec = IColl(vreq=self._icoll_ids, op=op, vcomm=vcomm, args=args)
        self.icolls[rec.vreq] = rec
        if self.protocol.mode is ProtocolMode.NORMAL:
            self._post_icoll_barrier(rec)
        return rec

    def _post_icoll_barrier(self, rec: IColl) -> None:
        if rec.posted or rec.done:
            return
        real = self.table.resolve(_COMM, rec.vcomm)
        rec.barrier = self.endpoint.ibarrier(real).completion
        rec.posted = True
        self.stats.trivial_barriers += 1

    def _post_pending_icolls(self) -> None:
        for rec in self.icolls.values():
            self._post_icoll_barrier(rec)

    def send_deferred_exit_reply(self) -> None:
        """Send the exit-phase-2 reply owed from a deferred round."""
        if self.alive and self.reply_fn is not None:
            self.reply_fn(self.rank, CkptMsg.STATE_REPLY,
                          RankCkptState.EXIT_PHASE_2)

    def await_revision_ack(self, continuation: Callable[[], None]) -> None:
        """Send a revision and park the wrapper until the coordinator acks."""
        if self.reply_fn is None:
            # No coordinator attached (pure-wrapper unit tests): proceed.
            continuation()
            return
        self._revision_cont = continuation
        self.reply_fn(self.rank, CkptMsg.REVISE_IN_PHASE_1, None)

    # --------------------------------------------------------- pending recvs

    def add_pending_recv(self, vcomm: int, source: int, src_world: int,
                         tag: int, out: Completion) -> PendingRecv:
        """Track a wrapper-level receive from comm-local ``source`` (world
        rank ``src_world``) until data reaches the app."""
        driver = self.driver
        call = driver.current_call
        if call is None:
            pend = PendingRecv(vcomm, source, src_world, tag, out, None, 0)
        else:
            # the journal key is the driver's current_call_key()
            leaf = driver.interp.leaves_done
            if leaf == self._recv_leaf:
                pos = self._recv_pos = self._recv_pos + 1
            else:
                self._recv_leaf = leaf
                pos = self._recv_pos = 0
            pend = PendingRecv(vcomm, source, src_world, tag, out,
                               (call.path, leaf), pos)
        self.pending_recvs.append(pend)
        return pend

    def attempt_recv(self, pend: PendingRecv, real: Communicator) -> None:
        """Journal-first, then buffer-first receive on the real
        communicator ``real`` behind ``pend.vcomm``.

        A re-executed leaf replays receives it had already completed from
        the journal; drained messages win over the lower half for the rest.
        """
        if not pend.active:
            return
        if pend.journal_key is not None and self.recv_journal:
            journal = self.recv_journal.get(pend.journal_key, {})
            if pend.journal_pos in journal:
                self._finish_recv(pend, journal[pend.journal_pos],
                                  count=False, journal=False)
                return
        if self.buffer.entries:
            hit = self.buffer.take(pend.vcomm, pend.src_world, pend.tag)
            if hit is not None:
                self._finish_recv(pend, self._buffered_value(pend, hit),
                                  count=False, journal=True)
                return
        pend.posted = self.endpoint._post_recv(
            real, pend.source, pend.src_world, pend.tag, 0.0,
            self._lower_recv_done, pend)[1]

    def _lower_recv_done(self, pend: PendingRecv, value: tuple) -> None:
        if not pend.active:
            return
        # status.source is comm-local; bookmark receives by world rank
        src_world = pend.src_world
        if src_world == ANY_SOURCE:
            real = self.table.resolve(_COMM, pend.vcomm)
            src_world = real.world_of_rank(value[1].source)
        self._finish_recv(pend, value, count=True, journal=True,
                          src_world=src_world)

    def _finish_recv(self, pend: PendingRecv, value: tuple, count: bool,
                     journal: bool, src_world: Optional[int] = None) -> None:
        """Hand ``value``, a ``(data, Status)`` pair, to the app.

        A receive of a leaf that is still running once its result is handed
        over (one of several in an exchange) is journaled: a restart
        re-executes the leaf, which must get this result again.  A leaf with
        a single receive finishes inside ``out.resolve``.
        """
        pend.active = False
        pend.posted = None
        self.pending_recvs.remove(pend)
        if count:
            self.counters.count_receive(src_world)
        pend.out.resolve(value)
        key = pend.journal_key
        if journal and key is not None and \
                self.driver.interp.leaves_done == key[1]:
            self._leaf_tables = True
            self.recv_journal.setdefault(key, {})[pend.journal_pos] = value

    def _buffered_value(self, pend: PendingRecv, hit: BufferedMsg) -> tuple:
        """The ``(data, Status)`` a drained message delivers to ``pend``."""
        real = self.table.resolve(_COMM, pend.vcomm)
        return hit.data, Status(real.rank_of_world(hit.src_world), hit.tag,
                                hit.size)

    # --------------------------------------------------------- fault injection

    def kill(self) -> None:
        """The rank's node crashed: silence the helper thread, kill the
        driver, and cancel every wrapper-level completion still pending.

        After this the rank emits no further events — the coordinator's
        round stalls (detected by heartbeat timeout) and completions that
        resolve into the dead rank are dropped.  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        self.driver.kill()
        for pend in list(self.pending_recvs):
            pend.active = False
            pend.out.cancel()
        self.pending_recvs = []
        self.held_entries = []
        self._revision_cont = None
        self._drain_expected = None
        self.endpoint.drain_sink = None
        if (self.current_trivial_barrier is not None
                and not self.current_trivial_barrier.done):
            self.current_trivial_barrier.cancel()
        for rec in self.vrequests.values():
            if rec.completion is not None and not rec.completion.done:
                rec.completion.cancel()
        for rec in self.icolls.values():
            if rec.barrier is not None and not rec.barrier.done:
                rec.barrier.cancel()

    # ------------------------------------------------- helper thread (§2.6)

    def _reply(self, msg: CkptMsg, payload: Any = None) -> None:
        if not self.alive:
            return  # a dead helper thread never answers
        if self.reply_fn is None:
            raise RuntimeError(f"rank {self.rank}: no coordinator attached")
        self.reply_fn(self.rank, msg, payload)

    def on_ctrl(self, msg: CkptMsg, payload: Any = None) -> None:
        """Receive one control-plane message from the coordinator."""
        if not self.alive:
            return  # delivered to a crashed node: silently lost
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant(ctrl_instant_name(msg), cat=Category.PROTOCOL,
                       rank=self.rank)
        if msg in (CkptMsg.INTEND_TO_CKPT, CkptMsg.EXTRA_ITERATION):
            self.protocol.mode = ProtocolMode.PRE_CKPT
            state = self.protocol.classify()
            if state is None:
                self.protocol.pending_reply = True
            elif state is RankCkptState.IN_PHASE_1:
                # The reply names the barrier we are waiting in, so the
                # coordinator can detect a fully-entered (and therefore
                # about-to-commit) trivial barrier — Challenge I.
                self.protocol.replied_in_phase1 = True
                comm = self.current_wrapper_comm
                info = (comm.context_id, tuple(comm.group.world_ranks))
                self._reply(CkptMsg.STATE_REPLY, (state, info))
            else:
                self.protocol.replied_in_phase1 = False
                self._reply(CkptMsg.STATE_REPLY, state)
        elif msg is CkptMsg.TOPO_INTENT:
            # Topological-sort protocol: freeze immediately and answer the
            # whole round in one reply.  Wrapper sends are bookmarked
            # synchronously at call time and a quiesced driver issues no
            # further calls, so the counters here are final.  The mode stays
            # PRE_CKPT (not QUIESCED) so the synchronous revision rule still
            # fires if our trivial barrier commits under the intent.
            self.protocol.mode = ProtocolMode.PRE_CKPT
            self.driver.quiesce()
            phase = self.protocol.phase
            comm = self.current_wrapper_comm
            coll = (
                (comm.context_id, tuple(comm.group.world_ranks))
                if comm is not None else None
            )
            if phase in (WrapperPhase.PHASE_2, WrapperPhase.COMMIT_PENDING):
                # a laggard: it owes a deferred exit-phase-2 reply once the
                # collective completes, and drains only after that
                self.protocol.pending_reply = True
                state = "in-phase-2"
            elif phase is WrapperPhase.PHASE_1:
                self.protocol.replied_in_phase1 = True
                state = "in-phase-1"
            else:
                state = "ready"
                coll = None
            self._reply(CkptMsg.TOPO_STATE, {
                "state": state,
                "coll": coll,
                "sent": dict(self.counters.sent),
                "received": dict(self.counters.received),
            })
        elif msg is CkptMsg.DO_CKPT:
            self.protocol.mode = ProtocolMode.QUIESCED
            self.driver.quiesce()
            self._reply(CkptMsg.BOOKMARKS, dict(self.counters.sent))
        elif msg is CkptMsg.DRAIN:
            self._begin_drain(int(payload))
        elif msg is CkptMsg.WRITE:
            self._write_image(float(payload))
        elif msg is CkptMsg.REVISE_ACK:
            cont = self._revision_cont
            if cont is None:
                raise RuntimeError(f"rank {self.rank}: spurious revision ack")
            self._revision_cont = None
            cont()
        elif msg is CkptMsg.RESUME:
            self._finish_checkpoint()
        else:
            raise ValueError(f"rank {self.rank}: unexpected ctrl msg {msg}")

    # ------------------------------------------------------------- draining

    def _begin_drain(self, expected_received_total: int) -> None:
        tr = self.engine.tracer
        if tr.enabled:
            self._drain_span = tr.begin(
                "rank:drain", cat=Category.CHECKPOINT, rank=self.rank,
                expected=expected_received_total,
            )
        self._drain_expected = expected_received_total
        self.endpoint.drain_sink = self._drain_sink
        for record in self.endpoint.harvest_unexpected():
            self._absorb(record)
        self._check_drained()

    def _drain_sink(self, record: MsgRecord) -> None:
        self._absorb(record)
        self._check_drained()

    def _absorb(self, record: MsgRecord) -> None:
        vcomm = self.ctx_to_vcomm.get(record.context_id)
        if vcomm is None:
            raise RuntimeError(
                f"rank {self.rank}: drained message on unknown context "
                f"{record.context_id}"
            )
        self.buffer.add(BufferedMsg(
            vcomm=vcomm, src_world=record.src, tag=record.tag,
            data=record.data, size=record.size, seq=record.seq,
        ))
        self.counters.count_receive(record.src)
        self.stats.drained_messages += 1
        self._m_drained.inc()

    def _check_drained(self) -> None:
        if self._drain_expected is None:
            return
        if self.counters.received_total >= self._drain_expected:
            self._drain_expected = None
            tr = self.engine.tracer
            if tr.enabled:
                tr.end(self._drain_span, drained=len(self.buffer))
                self._drain_span = None
            self._reply(CkptMsg.DRAINED, self.proc.upper_bytes())

    # ---------------------------------------------------------------- image

    def capture_state(self) -> dict:
        """The picklable restore payload (everything upper-half)."""
        log_snap = self.log.snapshot(table=self.table)
        self.last_compaction = log_snap["stats"]
        return {
            "interp": self.driver.interp.snapshot(),
            "app_state": dict(self.driver.interp.state),
            "heap": self.proc.heap.snapshot_payload(),
            "counters": self.counters.snapshot(),
            "buffer": self.buffer.snapshot(),
            "log": log_snap,
            "table": self.table.snapshot(),
            "icolls": [rec.snapshot() for rec in self.icolls.values()],
            "icoll_ids": self._icoll_ids,
            "sends_done": dict(self.sends_done),
            "vrequests": [rec.snapshot() for rec in self.vrequests.values()],
            "vreq_ids": self._vreq_ids,
            "vreq_sites": {k: list(v) for k, v in self.vreq_sites.items()},
            "recv_journal": {k: dict(v) for k, v in self.recv_journal.items()},
        }

    def _write_image(self, duration: float) -> None:
        if self.protocol.phase is WrapperPhase.PHASE_2:
            # Theorem 1's invariant, enforced at runtime: the protocol must
            # never cut an image while this rank is inside a collective.
            raise RuntimeError(
                f"rank {self.rank}: checkpoint requested inside phase 2 "
                "(two-phase protocol invariant violated)"
            )
        image = CheckpointImage.capture(
            self.rank, self.proc.upper_regions(), self.capture_state(),
            taken_at=self.engine.now,
        )
        self.stats.checkpoints += 1
        tr = self.engine.tracer
        span = None
        if tr.enabled:
            span = tr.begin("rank:write", cat=Category.CHECKPOINT,
                            rank=self.rank, bytes=image.size_bytes)
        self.engine.call_after(
            duration, self._write_done, span, image,
            label=f"mana-r{self.rank}:write",
        )

    def _write_done(self, span, image: CheckpointImage) -> None:
        """The simulated image write finished: close the span, report done."""
        self.engine.tracer.end(span)
        self._reply(CkptMsg.WRITE_DONE, image)

    # ---------------------------------------------------------------- resume

    def _finish_checkpoint(self) -> None:
        self.endpoint.drain_sink = None
        self._drain_expected = None
        self.protocol.mode = ProtocolMode.NORMAL
        self.protocol.exited_phase2 = False
        self.protocol.replied_in_phase1 = False
        # Pending receives whose message was drained must now be served from
        # the buffer; the lower-half posting is cancelled.
        for pend in list(self.pending_recvs):
            hit = self.buffer.take(pend.vcomm, pend.src_world, pend.tag)
            if hit is None:
                continue
            if pend.posted is not None:
                self.endpoint._cancel_posted(pend.posted)
            self._finish_recv(pend, self._buffered_value(pend, hit),
                              count=False, journal=True)
        self._post_pending_icolls()
        self._release_held()
        self.driver.resume()

    # --------------------------------------------------------------- restart

    def restore_from(self, state: dict) -> ReplayEngine:
        """Install a checkpoint payload; returns the (unstarted) replay
        engine that rebuilds the lower-half opaque objects."""
        self.table.restore(state["table"])
        self.table.rebind(_COMM, VCOMM_WORLD, self.endpoint.comm_world)
        self.ctx_to_vcomm = {self.endpoint.comm_world.context_id: VCOMM_WORLD}
        self.log.restore(state["log"])
        self.counters.restore(state["counters"])
        self.buffer.restore(state["buffer"])
        self.proc.heap.restore_payload(state["heap"])
        self.icolls = {}
        for vreq, op, vcomm, args, done, value in state["icolls"]:
            self.icolls[vreq] = IColl(vreq=vreq, op=op, vcomm=vcomm,
                                      args=args, done=done, value=value)
        self._icoll_ids = state["icoll_ids"]
        self.sends_done = dict(state["sends_done"])
        self._send_seq = {}
        self.vrequests = {}
        for vreq, kind, vcomm, src, tag, done, value in state["vrequests"]:
            self.vrequests[vreq] = VRequest(
                vreq=vreq, kind=kind, vcomm=vcomm, src_world=src, tag=tag,
                done=done, value=value,
            )
        self._vreq_ids = state["vreq_ids"]
        self.vreq_sites = {k: list(v) for k, v in state["vreq_sites"].items()}
        self._vreq_seq = {}
        self.recv_journal = {k: dict(v) for k, v in state["recv_journal"].items()}
        self._recv_leaf = -1
        self._leaf_tables = True
        self.driver.interp.state.clear()
        self.driver.interp.state.update(state["app_state"])
        self.driver.interp.restore(state["interp"])
        replay = ReplayEngine(
            self.engine, self.endpoint, self.table, self.log,
            label=f"mana-r{self.rank}",
        )
        return replay

    def finish_restore(self) -> None:
        """After replay: rebuild the context map, re-post the phase-1
        Ibarriers of outstanding nonblocking collectives (the old ones died
        with the old lower half), and release the app."""
        for vid, real in self.table.bound(_COMM).items():
            self.ctx_to_vcomm[real.context_id] = vid
        self._post_pending_icolls()
        self._repost_pending_irecvs()
        self.driver.start()
