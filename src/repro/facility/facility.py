"""The facility: many MANA jobs, one cluster, one virtual-time engine.

This is the machine-room view the paper's deployment story implies: a
shared :class:`~repro.hardware.cluster.Cluster` whose nodes are handed out
whole to tenants, a :class:`~repro.facility.scheduler.SchedulerPolicy`
deciding who runs, and checkpoint/restart as the scheduler's workhorse —
preemption is "induce a coordinated checkpoint (Algorithm 2), SIGKILL the
job, give the nodes away, restart it later from its images".

Every tenant is an ordinary :class:`~repro.mana.job.ManaJob` launched with
``engine=<the facility engine>`` onto a *slice* cluster that shares the
facility's node, storage and filesystem objects — so node ids stay
facility-global, Lustre bandwidth is contended through the
:class:`~repro.facility.sharedfs.StorageArbiter`, and a node crash lands on
whichever tenant owns the node at that instant.

Each tenant's checkpoints — periodic ones every ``checkpoint_interval``
and the induced one of a preemption — come from its own
:class:`~repro.mana.autockpt.CheckpointLifecycle`; the facility only
accounts for each finished set and requeues a preempted tenant once its set
is written.  A restarted tenant inherits its options from that set's
``meta``.

The whole thing is event-driven: scheduling points are job arrival, job
completion, preemption-checkpoint completion, and node crash.  There is no
polling loop, so a facility run costs what its jobs cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence, Union
from zlib import crc32

from repro.apps.base import get_app
from repro.conformance.oracles import state_fingerprint
from repro.facility.metrics import FacilityReport
from repro.facility.scheduler import SchedulerPolicy, make_scheduler
from repro.facility.sharedfs import StorageArbiter
from repro.facility.spec import JobRecord, JobSpec, JobState
from repro.faults.models import (
    Fault,
    FaultModel,
    NetworkDegradation,
    NodeCrash,
    SlowIO,
)
from repro.hardware.cluster import Cluster
from repro.mana.autockpt import CheckpointLifecycle
from repro.mana.coordinator import CheckpointReport, ControlPlaneModel
from repro.mana.job import ManaJob, launch_mana, restart
from repro.mana.protocol import JobOptions
from repro.mana.split_process import fixed_upper_bytes
from repro.obs.events import Category
from repro.simtime import Engine

MB = 1 << 20


class FacilityError(RuntimeError):
    """A facility-level invariant broke (stuck queue, bad configuration)."""


@dataclass
class _Tenant:
    """One live allocation: a record bound to a running ManaJob."""

    record: JobRecord
    job: ManaJob
    #: decides when the job is cut; started once the job is live
    life: CheckpointLifecycle
    nodes: tuple[int, ...]
    alloc_start: float
    #: when the application went live, post-replay for a restart
    #: (lost-work baselines start here, not at alloc)
    live_at: Optional[float] = None
    #: torn down (freed / requeued); late callbacks must be ignored
    gone: bool = False


class Facility:
    """Hosts many concurrent MANA jobs on one cluster and one engine."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Union[str, SchedulerPolicy] = "fifo",
        engine: Optional[Engine] = None,
        seed: int = 0,
        checkpoint_interval: Optional[float] = None,
        faults: Optional[FaultModel] = None,
        fault_horizon: float = inf,
        control: Optional[ControlPlaneModel] = None,
        stragglers: bool = True,
        protocol: Optional[str] = None,
        compact: Optional[bool] = None,
    ) -> None:
        self.engine = engine or Engine()
        self.cluster = cluster
        self.scheduler = (
            scheduler if isinstance(scheduler, SchedulerPolicy)
            else make_scheduler(scheduler)
        )
        self.seed = int(seed)
        self.checkpoint_interval = checkpoint_interval
        self.control = control
        self.stragglers = stragglers
        #: every tenant's JobOptions (restarted tenants inherit them from
        #: their checkpoint); invalid values raise here, not mid-run
        self.options = JobOptions().override(protocol=protocol,
                                             compact=compact)
        #: shared-backend contention + the storage traffic ledger
        self.arbiter = StorageArbiter(self.engine)
        cluster.storage.arbiter = self.arbiter
        self.records: list[JobRecord] = []
        self._by_id: dict[int, JobRecord] = {}
        self._tenants: dict[int, _Tenant] = {}
        #: node id -> owning job id
        self._allocated: dict[int, int] = {}
        self._faults = faults
        self._fault_horizon = fault_horizon
        self._fault_handle = None

    # ------------------------------------------------------------ submission

    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue one job; it arrives at ``spec.submit_time``."""
        if spec.job_id in self._by_id:
            raise FacilityError(f"duplicate job id {spec.job_id}")
        rec = JobRecord(spec=spec)
        self.records.append(rec)
        self._by_id[spec.job_id] = rec
        self.engine.call_at(
            max(spec.submit_time, self.engine.now), self._arrive, rec,
            label=f"facility:submit:{spec.name}",
        )
        return rec

    def submit_all(self, specs: Sequence[JobSpec]) -> list[JobRecord]:
        """Queue a whole workload."""
        return [self.submit(s) for s in specs]

    # ------------------------------------------------------------- execution

    def run(self, until: float = inf) -> FacilityReport:
        """Drive the shared engine until the workload drains; returns the
        facility report.  Raises :class:`FacilityError` if jobs remain
        non-terminal with no events pending (a stuck queue)."""
        if self._faults is not None:
            self._arm_next_fault()
        self.engine.run(until=until)
        stuck = [r for r in self.records if not r.terminal]
        if stuck and until == inf:
            names = ", ".join(f"{r.spec.name}@{r.state.value}" for r in stuck[:8])
            raise FacilityError(f"facility queue stuck: {names}")
        return self.report()

    def report(self) -> FacilityReport:
        """Snapshot the facility-level metrics."""
        return FacilityReport(
            policy=self.scheduler.name,
            seed=self.seed,
            n_nodes=self.cluster.node_count,
            records=list(self.records),
            bytes_written=self.arbiter.bytes_written,
            bytes_read=self.arbiter.bytes_read,
            peak_drain_streams=self.arbiter.peak_streams,
        )

    # ----------------------------------------------------------- scheduling

    def _free_node_ids(self) -> list[int]:
        return sorted(
            n.node_id for n in self.cluster.nodes
            if not n.failed and n.node_id not in self._allocated
        )

    def _schedule(self) -> None:
        free = self._free_node_ids()
        healthy_total = sum(1 for n in self.cluster.nodes if not n.failed)
        pending = []
        for rec in self.records:
            if rec.state is not JobState.PENDING:
                continue
            if rec.spec.n_nodes > healthy_total:
                self._fail(rec, f"needs {rec.spec.n_nodes} nodes, "
                                f"{healthy_total} survive")
                continue
            pending.append(rec)
        for rec in self.scheduler.select(pending, len(free)):
            take, free = free[:rec.spec.n_nodes], free[rec.spec.n_nodes:]
            self._start(rec, take)
        still = [r for r in pending if r.state is JobState.PENDING]
        if not still:
            self._maybe_finish()
            return
        running = [
            (t.record, len(t.nodes), t.alloc_start)
            for t in self._tenants.values()
            if t.record.state is JobState.RUNNING
        ]
        incoming = sum(
            len(t.nodes) for t in self._tenants.values()
            if t.record.state is JobState.PREEMPTING
        )
        plan = self.scheduler.preemption_plan(still, running, len(free), incoming)
        if plan is not None:
            beneficiary, victims = plan
            for victim in victims:
                self._preempt(self._tenants[victim.spec.job_id],
                              for_job=beneficiary)

    def _fail(self, rec: JobRecord, reason: str) -> None:
        rec.state = JobState.FAILED
        rec.failure_reason = reason
        rec.end_time = self.engine.now
        if rec.queued_since is not None:
            rec.queue_wait += self.engine.now - rec.queued_since
            rec.queued_since = None
        self.engine.metrics.counter("facility.jobs_failed").inc()
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:unschedulable", cat=Category.FACILITY,
                       job=rec.spec.name, reason=reason)

    # ------------------------------------------------------------ job start

    def _arrive(self, rec: JobRecord) -> None:
        rec.state = JobState.PENDING
        rec.queued_since = self.engine.now
        m = self.engine.metrics
        m.counter("facility.jobs_submitted").inc()
        m.gauge("facility.queue_depth").set(sum(
            1 for r in self.records if r.state is JobState.PENDING
        ) + 1)
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:submit", cat=Category.FACILITY,
                       job=rec.spec.name, nodes=rec.spec.n_nodes)
        self._schedule()

    def _attempt_seed(self, rec: JobRecord) -> int:
        """Deterministic straggler seed per (facility seed, job, attempt)."""
        key = f"{self.seed}/{rec.spec.job_id}/{rec.restarts}/{rec.crashes}"
        return crc32(key.encode()) & 0x7FFFFFFF

    def _start(self, rec: JobRecord, node_ids: list[int]) -> None:
        spec = rec.spec
        now = self.engine.now
        rec.state = JobState.RUNNING
        if rec.queued_since is not None:
            rec.queue_wait += now - rec.queued_since
            rec.queued_since = None
        if rec.first_start is None:
            rec.first_start = now
        for nid in node_ids:
            self._allocated[nid] = spec.job_id

        slice_cluster = Cluster(
            name=f"{self.cluster.name}:{spec.name}",
            nodes=[self.cluster.node(nid) for nid in node_ids],
            interconnect=self.cluster.interconnect,
            storage=self.cluster.storage,
            fs=self.cluster.fs,
            default_mpi=spec.mpi or self.cluster.default_mpi,
        )
        app = get_app(spec.app)
        overrides = {"n_steps": spec.n_steps}
        if spec.mem_bytes is not None:
            overrides["mem_bytes"] = spec.mem_bytes
        cfg = app.default_config.scaled(**overrides)
        factory = app.build(cfg)
        fixed = fixed_upper_bytes()

        def app_data(rank: int) -> int:
            return max(MB, app.memory_bytes(cfg, rank, spec.n_ranks) - fixed)

        seed = self._attempt_seed(rec)
        if rec.ckpt is None:
            job = launch_mana(
                slice_cluster, factory, spec.n_ranks, ranks_per_node=None,
                mpi=spec.mpi, engine=self.engine, app_mem_bytes=app_data,
                seed=seed, control=self.control, stragglers=self.stragglers,
                **self.options.as_dict(),
            )
        else:
            job = restart(
                rec.ckpt, slice_cluster, factory, ranks_per_node=None,
                mpi=spec.mpi, engine=self.engine, seed=seed,
                control=self.control, stragglers=self.stragglers,
            )
            rec.restarts += 1
        tenant = _Tenant(record=rec, job=job,
                         life=CheckpointLifecycle(job, self.checkpoint_interval),
                         nodes=tuple(node_ids), alloc_start=now)
        tenant.life.on_cut.append(lambda report: self._on_cut(tenant, report))
        self._tenants[spec.job_id] = tenant
        job.resumed.on_done(lambda _v: self._on_live(tenant))
        job.finished.on_done(lambda _v: self._on_complete(tenant))

        m = self.engine.metrics
        m.counter("facility.jobs_started").inc()
        m.histogram("facility.queue_wait_seconds").observe(rec.queue_wait)
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:start", cat=Category.FACILITY,
                       job=spec.name, nodes=list(node_ids),
                       from_ckpt=rec.ckpt is not None)
        if rec.ckpt is None:
            job.start()

    def _on_live(self, tenant: _Tenant) -> None:
        """The tenant's application is executing (post-replay for restarts)."""
        if tenant.gone:
            return
        tenant.live_at = self.engine.now
        rr = tenant.job.restart_report
        if rr is not None:
            # restart read + replay + init is pure overhead on every node
            tenant.record.node_seconds_lost += rr.total_time * len(tenant.nodes)
        tenant.life.start()

    # ------------------------------------------------------------ completion

    def _on_complete(self, tenant: _Tenant) -> None:
        if tenant.gone:
            return
        rec = tenant.record
        now = self.engine.now
        rec.fingerprint = state_fingerprint(tenant.job.states)
        rec.state = JobState.COMPLETED
        rec.end_time = now
        self._teardown(tenant)
        m = self.engine.metrics
        m.counter("facility.jobs_completed").inc()
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:complete", cat=Category.FACILITY,
                       job=rec.spec.name)
        self._schedule()

    def _teardown(self, tenant: _Tenant) -> None:
        """Kill the tenant's job, free its nodes, settle node-time books."""
        tenant.gone = True
        tenant.life.stop()
        tenant.job.kill()
        now = self.engine.now
        rec = tenant.record
        rec.node_seconds_used += (now - tenant.alloc_start) * len(tenant.nodes)
        for nid in tenant.nodes:
            if self._allocated.get(nid) == rec.spec.job_id:
                del self._allocated[nid]
        del self._tenants[rec.spec.job_id]

    def _maybe_finish(self) -> None:
        if self._fault_handle is not None and all(
            r.terminal for r in self.records
        ):
            # the workload drained: stop arming faults or an open-ended
            # Poisson model would keep the engine alive forever
            self._fault_handle.cancel()
            self._fault_handle = None

    # ------------------------------------------------------------ preemption

    def _preempt(self, tenant: _Tenant, for_job: JobRecord) -> None:
        rec = tenant.record
        if rec.state is not JobState.RUNNING or tenant.gone:
            return
        rec.state = JobState.PREEMPTING
        self.engine.metrics.counter("facility.preemptions").inc()
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:preempt", cat=Category.FACILITY,
                       job=rec.spec.name, beneficiary=for_job.spec.name)
        # mid-replay the cut waits until the tenant is live; mid-periodic
        # cut, that cut serves the preemption
        tenant.life.request()

    def _on_cut(self, tenant: _Tenant, report: CheckpointReport) -> None:
        """A tenant's cut finished: book it; a preempted tenant then goes."""
        if tenant.gone:
            return
        rec = tenant.record
        rec.ckpt = report.ckpt_set
        rec.ckpt_saved_at = self.engine.now
        rec.checkpoints += 1
        # protocol + drain + write time burned on every allocated node
        rec.node_seconds_lost += report.total_time * len(tenant.nodes)
        if rec.state is JobState.PREEMPTING:
            self._requeue_preempted(tenant)

    def _requeue_preempted(self, tenant: _Tenant) -> None:
        rec = tenant.record
        rec.preemptions += 1
        self._teardown(tenant)
        rec.state = JobState.PENDING
        rec.queued_since = self.engine.now
        self.engine.metrics.counter("facility.requeues").inc()
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:requeue", cat=Category.FACILITY,
                       job=rec.spec.name)
        self._schedule()

    # ----------------------------------------------------------------- faults

    def _arm_next_fault(self) -> None:
        fault = self._faults.next_fault(self.engine.now)
        if fault is None or fault.time > self._fault_horizon:
            self._fault_handle = None
            return
        self._fault_handle = self.engine.call_at(
            fault.time, self._fire_fault, fault,
            label=f"facility:fault@{fault.time:g}",
        )

    def _fire_fault(self, fault: Fault) -> None:
        self._fault_handle = None
        tr = self.engine.tracer
        if tr.enabled:
            args: dict = {"kind": type(fault).__name__}
            if isinstance(fault, NodeCrash):
                args["nodes"] = list(fault.nodes)
            tr.instant("facility:fault", cat=Category.FAULT, **args)
        self.engine.metrics.counter(
            "faults.injected", kind=type(fault).__name__
        ).inc()
        self.apply_fault(fault)
        self._arm_next_fault()

    def apply_fault(self, fault: Fault) -> None:
        """Apply one fault to the shared machine right now."""
        if isinstance(fault, NodeCrash):
            self._crash_nodes(fault.nodes)
        elif isinstance(fault, SlowIO):
            storage = self.cluster.storage
            storage.degrade(fault.factor)
            self.engine.call_after(fault.duration, storage.restore,
                                   label="facility:io-restore")
        elif isinstance(fault, NetworkDegradation):
            # every tenant fabric browns out (a facility-wide event; jobs
            # launched during the window keep nominal fabrics — documented
            # simplification)
            for tenant in list(self._tenants.values()):
                fabric = tenant.job.world.fabric
                fabric.degrade(alpha_mult=fault.alpha_mult,
                               beta_mult=1.0 / fault.beta_mult)
                self.engine.call_after(fault.duration, fabric.restore,
                                       label="facility:net-restore")
        else:
            raise TypeError(f"unknown fault kind: {type(fault).__name__}")

    def _crash_nodes(self, node_ids: Sequence[int]) -> None:
        doomed: dict[int, list[int]] = {}
        now = self.engine.now
        for nid in node_ids:
            node = next(
                (n for n in self.cluster.nodes if n.node_id == nid), None
            )
            if node is None or node.failed:
                continue
            node.fail(at=now)
            self.engine.metrics.counter("facility.node_crashes").inc()
            owner = self._allocated.get(nid)
            if owner is not None:
                doomed.setdefault(owner, []).append(nid)
        for job_id, dead in doomed.items():
            self._on_tenant_crash(self._tenants[job_id], dead)
        if doomed:
            self._schedule()

    def _on_tenant_crash(self, tenant: _Tenant, dead_nodes: list[int]) -> None:
        rec = tenant.record
        if tenant.gone:
            return
        now = self.engine.now
        # the resident ranks die first; the coordinator aborts any protocol
        # in flight (a preemption checkpoint racing the crash resolves with
        # CheckpointAborted before we tear the tenant down)
        dead = set(dead_nodes)
        for rank, nid in enumerate(tenant.job.world.placement):
            if nid in dead:
                tenant.job.runtimes[rank].kill()
                tenant.job.coordinator.notify_rank_failure(rank)
        # losing any rank kills the whole MPI job; work since the last
        # checkpoint (or since the app went live) is gone
        baseline = tenant.live_at if tenant.live_at is not None else tenant.alloc_start
        if rec.ckpt_saved_at is not None and rec.ckpt_saved_at >= tenant.alloc_start:
            baseline = max(baseline, rec.ckpt_saved_at)
        rec.node_seconds_lost += (now - baseline) * len(tenant.nodes)
        rec.crashes += 1
        was_preempting = rec.state is JobState.PREEMPTING
        self._teardown(tenant)
        rec.state = JobState.PENDING
        rec.queued_since = now
        m = self.engine.metrics
        m.counter("facility.crash_requeues").inc()
        tr = self.engine.tracer
        if tr.enabled:
            tr.instant("facility:crash-requeue", cat=Category.FACILITY,
                       job=rec.spec.name, nodes=dead_nodes,
                       had_ckpt=rec.ckpt is not None,
                       was_preempting=was_preempting)
