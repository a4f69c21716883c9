"""Automated resilience: checkpoint, crash, detect, re-plan, restart.

:func:`run_resilient` is the subsystem's top-level loop — the simulated
equivalent of running a production job under MANA with periodic
checkpoints and an automatic restart-on-failure policy:

1. launch the job, arm the fault injector, start the heartbeat detector;
2. run it under a :class:`~repro.mana.autockpt.CheckpointLifecycle`
   cutting a coordinated checkpoint every ``interval`` simulated seconds
   into one generation store for the whole run (two-generation retention
   on disk via :class:`~repro.mana.autockpt.CheckpointPruner`, or the
   newest set in memory);
3. on a failure — detected mid-compute by heartbeat timeout, or surfaced
   as :class:`~repro.mana.coordinator.CheckpointAborted` mid-protocol —
   abandon the attempt, re-plan onto the surviving nodes (or a spare
   cluster), restart from the store's newest set, and continue;
4. stop when the job completes or the retry budget is exhausted.

Time is accounted on a single *global* axis: each attempt's engine starts
at zero, and ``offset`` (the global time at that attempt's t=0) threads
through the injector so one fault model spans the whole run.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.models import Fault, FaultModel, NodeCrash, ScriptedFaults
from repro.hardware.cluster import Cluster, ClusterError
from repro.mana.autockpt import (
    CheckpointLifecycle,
    CheckpointPruner,
    NewestInMemory,
)
from repro.mana.coordinator import CheckpointReport
from repro.mana.job import ManaJob, launch_mana, restart

MB = 1 << 20


@dataclass
class FailureRecord:
    """One failure event and what it cost."""

    #: ranks declared dead (by the detector, or killed by the injector)
    ranks: tuple[int, ...]
    #: nodes taken down by the fault (empty if unknown)
    nodes: tuple[int, ...]
    #: global virtual time the fault fired
    global_time: float
    #: global virtual time the failure was detected / the attempt abandoned
    detected_at: float
    #: what the job was doing: ``"compute"`` or ``"checkpoint"``
    during: str
    #: simulated seconds of work redone because of this failure
    lost_work: float
    #: 1-based attempt index the failure ended
    attempt: int


@dataclass
class ResilientRun:
    """Outcome of one :func:`run_resilient` invocation."""

    completed: bool = False
    #: total simulated seconds across every attempt (incl. restarts)
    wallclock: float = 0.0
    #: number of successful restarts performed
    recoveries: int = 0
    #: why the loop stopped: "completed" | "retry budget exhausted" |
    #: "no viable cluster"
    stop_reason: str = ""
    failures: list[FailureRecord] = field(default_factory=list)
    reports: list[CheckpointReport] = field(default_factory=list)
    #: global completion time of each saved checkpoint
    checkpoint_times: list[float] = field(default_factory=list)
    saved_dirs: list[pathlib.Path] = field(default_factory=list)
    #: number of attempts (launches + restarts) made
    attempts: int = 0
    #: uninterrupted runtime of the same job (useful work), if known
    reference_time: Optional[float] = None
    #: the final attempt's job object (for inspecting states/filesystems)
    final_job: Optional[ManaJob] = None

    @property
    def lost_work_total(self) -> float:
        """Total simulated seconds of redone work across all failures."""
        return sum(f.lost_work for f in self.failures)

    @property
    def efficiency(self) -> float:
        """Useful work over total simulated time (NaN if no reference)."""
        if self.reference_time is None or self.wallclock <= 0:
            return float("nan")
        return self.reference_time / self.wallclock

    @property
    def final_states(self) -> Optional[list]:
        """The final attempt's per-rank program states (None if never ran)."""
        return self.final_job.states if self.final_job is not None else None


def _plan_target(
    primary: Cluster,
    spare: Optional[Cluster],
    n_ranks: int,
    ranks_per_node: Optional[int],
) -> tuple[Cluster, Optional[int]]:
    """Pick where the next attempt runs: primary at the requested layout,
    else the spare, else either cluster with ranks spread over whatever
    healthy nodes remain.  Raises :class:`ClusterError` if nothing fits."""
    candidates: list[tuple[Cluster, Optional[int]]] = [(primary, ranks_per_node)]
    if spare is not None:
        candidates.append((spare, ranks_per_node))
    if ranks_per_node is not None:
        candidates.append((primary, None))
        if spare is not None:
            candidates.append((spare, None))
    for clus, rpn in candidates:
        try:
            clus.place_ranks(n_ranks, ranks_per_node=rpn)
            return clus, rpn
        except ClusterError:
            continue
    raise ClusterError(
        f"no viable cluster for {n_ranks} ranks: primary has "
        f"{len(primary.alive_nodes)} healthy nodes"
        + (f", spare has {len(spare.alive_nodes)}" if spare is not None else "")
    )


def run_resilient(
    cluster: Cluster,
    program_factory,
    n_ranks: int,
    interval: float,
    faults: Union[FaultModel, Iterable[Fault], None] = None,
    ranks_per_node: Optional[int] = None,
    mpi: Optional[str] = None,
    spare_cluster: Optional[Cluster] = None,
    out_dir: Union[str, pathlib.Path, None] = None,
    keep: int = 2,
    max_restarts: int = 8,
    heartbeat_period: Optional[float] = None,
    heartbeat_timeout: Optional[float] = None,
    app_mem_bytes: Union[int, Callable[[int], int]] = 16 * MB,
    seed: int = 0,
    reference_time: Optional[float] = None,
) -> ResilientRun:
    """Run a job under periodic checkpoints with automatic crash recovery.

    ``faults`` is a :class:`FaultModel` or a plain list of
    :class:`Fault` events on the global time axis.  Checkpoints are cut
    every ``interval`` simulated seconds; if ``out_dir`` is given each is
    persisted (newest ``keep`` retained, numbering continuing across
    restarts) and recovery reloads the newest from disk — otherwise the
    newest set is kept in memory.  ``reference_time`` (the uninterrupted
    runtime) is measured with a clean extra run when not supplied, so
    :attr:`ResilientRun.efficiency` is always meaningful.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    model: Optional[FaultModel]
    if faults is None:
        model = None
    elif isinstance(faults, FaultModel):
        model = faults
    else:
        model = ScriptedFaults(faults)

    if reference_time is None:
        ref_job = launch_mana(
            cluster, program_factory, n_ranks, ranks_per_node=ranks_per_node,
            mpi=mpi, app_mem_bytes=app_mem_bytes, seed=seed,
        ).start()
        reference_time = ref_job.run_to_completion()

    out = ResilientRun(reference_time=reference_time)
    store = (
        CheckpointPruner(out_dir, keep=keep) if out_dir is not None
        else NewestInMemory()
    )
    hb_period = (
        heartbeat_period if heartbeat_period is not None
        else max(interval / 20.0, 1e-3)
    )
    global_t = 0.0
    last_ckpt_global_end: Optional[float] = None

    while True:
        out.attempts += 1
        try:
            target, rpn = _plan_target(
                cluster, spare_cluster, n_ranks, ranks_per_node
            )
        except ClusterError:
            out.stop_reason = "no viable cluster"
            break
        attempt_t0 = global_t
        newest = store.latest()
        if newest is None:
            job = launch_mana(
                target, program_factory, n_ranks, ranks_per_node=rpn,
                mpi=mpi, app_mem_bytes=app_mem_bytes, seed=seed,
            )
        else:
            job = restart(
                newest, target, program_factory, ranks_per_node=rpn, mpi=mpi,
                seed=seed + out.attempts,
            )
        engine = job.engine
        injector = FaultInjector(engine, target, job, offset=global_t)
        if model is not None:
            injector.arm(model)
        detector = FailureDetector(
            engine, job.runtimes, control=job.coordinator.control,
            period=hb_period, timeout=heartbeat_timeout,
        )
        dead_ranks: list[int] = []

        def _on_failure(rank: int, _job=job) -> None:
            """Route a heartbeat timeout into the coordinator's abort path."""
            dead_ranks.append(rank)
            _job.coordinator.notify_rank_failure(rank)

        def _on_cut(report: CheckpointReport, _t0=attempt_t0,
                    _e=engine) -> None:
            nonlocal last_ckpt_global_end
            out.reports.append(report)
            last_ckpt_global_end = _t0 + _e.now
            out.checkpoint_times.append(last_ckpt_global_end)
            if out_dir is not None:
                out.saved_dirs = list(store.saved_dirs)

        detector.on_failure.append(_on_failure)
        life = CheckpointLifecycle(job, interval, store)
        life.on_cut.append(_on_cut)
        aborted: list = []
        life.on_abort.append(aborted.append)
        if newest is None:
            job.start()  # restarted jobs start their own drivers post-replay
        detector.start()
        life.start()
        # step event by event, so the clock stops at the failure detection
        # or the job's completion (after a cut it finished under)
        while life.busy or not (dead_ranks or job.finished.done):
            if not engine.step():
                raise RuntimeError("resilient run stalled: no events pending")
        life.stop()
        detector.stop()
        injector.disarm()
        if not dead_ranks:
            global_t += engine.now
            out.completed = True
            out.stop_reason = "completed"
            out.final_job = job
            break

        # ----------------------------------------------------- failure path
        crash = next(
            (inj for inj in reversed(injector.injected)
             if isinstance(inj.fault, NodeCrash)), None,
        )
        crash_global = (
            global_t + crash.local_time if crash is not None
            else global_t + engine.now
        )
        resume_point = attempt_t0
        if last_ckpt_global_end is not None:
            resume_point = max(resume_point, last_ckpt_global_end)
        out.failures.append(FailureRecord(
            ranks=tuple(sorted(set(dead_ranks) | detector.failed)),
            nodes=tuple(crash.fault.nodes) if crash is not None else (),
            global_time=crash_global,
            detected_at=global_t + engine.now,
            during="checkpoint" if aborted else "compute",
            lost_work=max(0.0, crash_global - resume_point),
            attempt=out.attempts,
        ))
        global_t += engine.now
        out.final_job = job
        if len(out.failures) > max_restarts:
            out.stop_reason = "retry budget exhausted"
            break
        out.recoveries += 1

    out.wallclock = global_t
    return out
