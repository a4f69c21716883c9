"""The checkpoint coordinator (messaging + abort; protocol via engines).

Modeled after the DMTCP coordinator the paper extends (§2.7): a stateless
central daemon talking TCP to each rank's helper thread.  The control plane
charges a per-message serialization cost at the coordinator — the paper's
observation that "the communication overhead associated with the TCP layer
increases with the number of ranks, especially due to metadata in the case
of small messages" (§3.4, Fig. 8) falls out of exactly this term.

The protocol state machine itself is pluggable (``JobOptions.protocol``):
``"alg2"`` is the paper's Algorithm 2 with the DMTCP-style pipeline
(``do-ckpt`` → bookmarks → ``drain`` → ``write`` → ``resume``);
``"topo"`` is the topological-sort protocol v2 (single intent round,
per-wave writes ordered by the in-flight dependency DAG).  See
:mod:`repro.mana.protocol_engine` and docs/protocols.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.hardware.storage import LustreModel
from repro.mana.checkpoint_image import CheckpointSet
from repro.mana.protocol import CkptMsg, JobOptions
from repro.mana.protocol_engine import make_protocol
from repro.obs.events import Category
from repro.simtime import Completion, Engine


@dataclass
class ControlPlaneModel:
    """TCP control-plane timing between coordinator and rank helpers."""

    #: one-way latency coordinator <-> compute node (management network)
    latency: float = 100e-6
    #: per-message CPU at the coordinator (serialize/accept/select)
    per_message_cpu: float = 0.3e-3

    def fanout_delay(self, index: int) -> float:
        """Delivery delay of the ``index``-th message of a broadcast."""
        return self.latency + (index + 1) * self.per_message_cpu

    def reply_delay(self) -> float:
        """Delivery delay of one rank->coordinator message."""
        return self.latency + self.per_message_cpu


class CheckpointAborted(RuntimeError):
    """A coordinated checkpoint was abandoned because a rank failed.

    Raised (or resolved through the coordinator's completion) when a rank's
    helper stops responding mid-protocol: the round cannot converge, so the
    coordinator resumes the survivors and reports the failure instead of
    hanging.  Carries the failed rank and the phase that was in flight.
    """

    def __init__(self, rank: int, phase: Optional[str]) -> None:
        super().__init__(
            f"checkpoint aborted: rank {rank} failed during phase {phase!r}"
        )
        self.rank = rank
        self.phase = phase


@dataclass
class CheckpointReport:
    """Timing breakdown of one coordinated checkpoint (Fig. 8)."""

    total_time: float
    drain_time: float
    write_time: float
    comm_overhead: float
    rounds: int
    ckpt_set: Optional[CheckpointSet] = None
    #: time from the checkpoint request to the start of draining — the
    #: protocol's quiesce wait (alg2: intent rounds + bookmark collection;
    #: topo: one control round).  This is the ``ckpt_quiesce_wait_s``
    #: perfbench metric.
    quiesce_wait: float = 0.0
    #: which protocol engine produced this checkpoint
    protocol: str = JobOptions.protocol
    #: topo only: ranks that hit the bounded-local-drain cycle fallback
    fallback_ranks: tuple = ()

    @property
    def image_sizes(self) -> list[int]:
        """Per-rank image sizes in bytes."""
        if self.ckpt_set is None:
            raise ValueError(
                "checkpoint report carries no checkpoint set (the protocol "
                "did not complete, or the set was detached)"
            )
        return [img.size_bytes for img in self.ckpt_set.images]


class Coordinator:
    """Drives the checkpoint protocol and pipeline over all ranks."""

    def __init__(
        self,
        engine: Engine,
        runtimes: list,
        storage: LustreModel,
        node_of: list[int],
        options: JobOptions,
        rng: Optional[np.random.Generator] = None,
        control: Optional[ControlPlaneModel] = None,
    ) -> None:
        self.engine = engine
        self.runtimes = runtimes
        self.storage = storage
        self.node_of = list(node_of)
        self.rng = rng
        self.control = control if control is not None else ControlPlaneModel()
        #: the job's options; every checkpoint stamps them into its meta
        self.options = options
        self.proto = make_protocol(options.protocol, self)
        for rt in runtimes:
            rt.reply_fn = self._reply_from_rank
        self._phase: Optional[str] = None
        self._replies: dict[int, Any] = {}
        self._expect_kind: Optional[CkptMsg] = None
        self._done: Optional[Completion] = None
        self._report: Optional[CheckpointReport] = None
        self._t0 = 0.0
        self._t_drain_start = 0.0
        self._t_drain_end = 0.0
        self._t_write_start = 0.0
        self._rounds = 0
        self.checkpoints_taken = 0
        #: open protocol-phase spans, keyed by span name (tracing only)
        self._spans: dict[str, Any] = {}
        #: ranks declared dead (by the failure detector or an injector);
        #: their late replies are dropped and new checkpoints are refused.
        self.failed_ranks: set[int] = set()

    # ------------------------------------------------------------ public

    def request_checkpoint(self) -> Completion:
        """Begin the configured protocol; resolves with a
        :class:`CheckpointReport` (or with a :class:`CheckpointAborted` if a
        rank fails mid-protocol)."""
        if self._done is not None and not self._done.done:
            raise RuntimeError("a checkpoint is already in progress")
        if self.failed_ranks:
            raise RuntimeError(
                f"cannot checkpoint: rank(s) {sorted(self.failed_ranks)} "
                "have failed — restart from the last checkpoint instead"
            )
        self._done = Completion(self.engine, label="coordinator:ckpt")
        self._t0 = self.engine.now
        self._rounds = 0
        self.proto.begin()
        return self._done

    def notify_rank_failure(self, rank: int) -> None:
        """A rank is dead (heartbeat timeout): abort any in-flight protocol.

        The current Algorithm-2 round (or pipeline phase) can never converge
        — the dead helper will not reply — so instead of hanging in
        ``_on_reply`` forever the coordinator resumes the surviving ranks
        and resolves the pending completion with :class:`CheckpointAborted`.
        Idempotent per rank; safe to call with no checkpoint in progress.
        """
        if rank in self.failed_ranks:
            return
        self.failed_ranks.add(rank)
        if self._done is None or self._done.done:
            return  # no protocol in flight; nothing to abort
        aborted_phase = self._phase
        self._phase = "aborted"
        self._expect_kind = None
        self._replies = {}
        self.proto.reset()
        done, self._done = self._done, None
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("ckpt:abort", cat=Category.PROTOCOL,
                       rank=rank, phase=aborted_phase)
            self._spans = {}
        self.engine.metrics.counter("ckpt.aborted").inc()
        # Resume the survivors: un-quiesce, release held wrapper entries.
        for i, rt in enumerate(self.runtimes):
            if i in self.failed_ranks:
                continue
            self.engine.call_after(
                self.control.fanout_delay(i), rt.on_ctrl, CkptMsg.RESUME,
                None, label=f"coord:abort-resume->r{i}",
            )
        done.resolve(CheckpointAborted(rank, aborted_phase))

    # ----------------------------------------------------------- messaging

    def _broadcast(self, msg: CkptMsg, payload_fn: Callable[[int], Any]) -> None:
        for i, rt in enumerate(self.runtimes):
            self.engine.call_after(
                self.control.fanout_delay(i), rt.on_ctrl, msg, payload_fn(i),
                label=f"coord:{msg.value}->r{i}",
            )

    def _reply_from_rank(self, rank: int, msg: CkptMsg, payload: Any) -> None:
        self.engine.call_after(
            self.control.reply_delay(), self._on_reply, rank, msg, payload,
            label=f"coord:reply<-r{rank}",
        )

    def _on_reply(self, rank: int, msg: CkptMsg, payload: Any) -> None:
        if self._phase == "aborted" or rank in self.failed_ranks:
            return  # stale reply racing an abort: drop, never raise
        self.proto.on_reply(rank, msg, payload)

    def _start_phase(self, phase: str, expect: Optional[CkptMsg]) -> None:
        self._phase = phase
        self._expect_kind = expect
        self._replies = {}

    def _trace_phase(self, close: str, open_next: Optional[str] = None,
                     **close_args) -> None:
        """Close the protocol span ``close`` and optionally open the next."""
        tr = self.engine.tracer
        if not tr.enabled:
            return
        tr.end(self._spans.pop(close, None), **close_args)
        if open_next is not None:
            self._spans[open_next] = tr.begin(open_next, cat=Category.PROTOCOL)

    def _resolve_report(self, *, total: float, drain: float, write: float,
                        images: list, quiesce_wait: float,
                        fallback_ranks: tuple = ()) -> None:
        """Build the :class:`CheckpointReport` and resolve the completion
        (called by the protocol engine once every image is written)."""
        self._report = CheckpointReport(
            total_time=total,
            drain_time=drain,
            write_time=write,
            comm_overhead=max(0.0, total - drain - write),
            rounds=self._rounds,
            ckpt_set=CheckpointSet(images=images),
            quiesce_wait=quiesce_wait,
            protocol=self.options.protocol,
            fallback_ranks=tuple(fallback_ranks),
        )
        self._done.resolve(self._report)
