"""Launching MPI applications under MANA, and restarting them anywhere.

:func:`launch_mana` is ``mana_launch``: it starts an MPI job whose every
rank runs inside a split process with the interposed API, and attaches a
checkpoint coordinator.

:func:`restart` is ``mana_restart``: given a :class:`CheckpointSet`, it
builds a *new* MPI session — possibly a different implementation, a
different interconnect, a different cluster, and a different ranks-per-node
layout (§3.5, §3.6) — bootstraps fresh lower halves, replays each rank's
record log to rebuild the opaque MPI state, restores the upper halves from
the images, and resumes the application exactly where it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.hardware.cluster import Cluster
from repro.mana.checkpoint_image import CheckpointSet
from repro.mana.coordinator import (
    CheckpointAborted,
    CheckpointReport,
    ControlPlaneModel,
    Coordinator,
)
from repro.mana.protocol import JobOptions
from repro.mana.rank_runtime import ManaRankRuntime
from repro.mana.split_process import SplitProcess
from repro.mpilib.launcher import init_time, launch
from repro.mprog.ast import Program
from repro.mprog.interp import ProgramState
from repro.simtime import Completion, Engine
from repro.simtime.engine import all_of

MB = 1 << 20

ProgramFactory = Callable[[int, int], Program]


@dataclass
class RestartReport:
    """Timing breakdown of one restart (Fig. 7).

    ``replayed_entries`` counts log entries actually re-executed across all
    ranks; ``restored_bindings`` counts live local handles (datatypes,
    groups) restored by direct table binding instead — the compacted-log
    fast path (docs/record_replay.md).  Both are 0 on reports produced
    before these fields existed.
    """

    total_time: float
    read_time: float
    replay_time: float
    init_time: float
    replayed_entries: int = 0
    restored_bindings: int = 0


class ManaJob:
    """A running (or restarted) MANA job."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        world,
        runtimes: list[ManaRankRuntime],
        coordinator: Coordinator,
        meta: Optional[dict] = None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.world = world
        self.runtimes = runtimes
        self.coordinator = coordinator
        self.meta = dict(meta or {})
        self.finished = all_of(
            engine, [rt.driver.finished for rt in runtimes], label="mana-job"
        )
        #: resolves once the application is actually executing: immediately
        #: on :meth:`start` for a fresh launch, or after init + image reads +
        #: record-replay for a restart.  A facility scheduler must not
        #: checkpoint a job before this fires — mid-replay there is nothing
        #: coherent to quiesce.
        self.resumed = Completion(engine, label="mana-job:resumed")
        self.restart_report: Optional[RestartReport] = None

    # ------------------------------------------------------------ execution

    def start(self) -> "ManaJob":
        """Begin execution (schedules the first event)."""
        for rt in self.runtimes:
            rt.driver.start()
        if not self.resumed.done:
            self.resumed.resolve(None)
        return self

    def kill(self) -> None:
        """Tear the whole job down (the facility's SIGKILL after a
        preemption checkpoint, or a job-fatal node crash): every rank
        runtime dies and its in-flight completions are cancelled.
        Idempotent; recovery means :func:`restart` from a checkpoint."""
        for rt in self.runtimes:
            rt.kill()

    def run_until(self, t: float) -> float:
        """Advance the simulation to absolute virtual time ``t``."""
        return self.engine.run(until=t)

    def run_to_completion(self) -> float:
        """Run the engine until every rank finishes; returns elapsed virtual seconds."""
        t0 = self.engine.now
        self.engine.run()
        if not self.finished.done:
            stuck = [
                f"{rt.driver.label}@{rt.driver.parked_at}"
                for rt in self.runtimes if rt.driver.parked_at != "finished"
            ]
            raise RuntimeError(f"MANA job did not finish: {', '.join(stuck)}")
        return self.engine.now - t0

    @property
    def states(self) -> list[ProgramState]:
        """Each rank's live ProgramState, by rank."""
        return [rt.driver.interp.state for rt in self.runtimes]

    def enable_profiling(self) -> None:
        """Turn on PMPI-style call tracing on every rank (§4.2: substitute a
        profiling MPI mid-run by enabling this after a restart)."""
        for rt in self.runtimes:
            rt.profile = {}

    def call_profile(self) -> dict:
        """Aggregated (count, bytes) per interposed operation across ranks."""
        out: dict = {}
        for rt in self.runtimes:
            for op, (count, nbytes) in (rt.profile or {}).items():
                c0, b0 = out.get(op, (0, 0))
                out[op] = (c0 + count, b0 + nbytes)
        return out

    # ----------------------------------------------------------- checkpoint

    def checkpoint(self) -> tuple[CheckpointSet, CheckpointReport]:
        """Trigger a coordinated checkpoint *now* and run the simulation
        until it completes; the application continues afterwards.

        Raises :class:`CheckpointAborted` if a rank fails mid-protocol (the
        abort is raised once a failure detector times the dead helper out).
        """
        done = self.coordinator.request_checkpoint()
        while not done.done:
            if not self.engine.step():
                raise RuntimeError(
                    "checkpoint protocol stalled: no events pending"
                )
        if isinstance(done.value, CheckpointAborted):
            raise done.value
        report: CheckpointReport = done.value
        meta = report.ckpt_set.meta
        meta.update(self.meta)
        meta["taken_at"] = self.engine.now
        meta["source_cluster"] = self.cluster.name
        meta["source_mpi"] = self.world.impl.name
        meta["options"] = self.coordinator.options.as_dict()
        stats = [rt.last_compaction for rt in self.runtimes]
        if all(s is not None for s in stats):
            # summed across ranks; per-rank stats live in each image's log
            meta["log_compaction"] = {
                key: sum(s[key] for s in stats) for key in stats[0]
            }
        else:  # a restarted job's meta may carry its source's stats
            meta.pop("log_compaction", None)
        return report.ckpt_set, report

    def checkpoint_at(self, t: float) -> tuple[CheckpointSet, CheckpointReport]:
        """Run until virtual time ``t``, then checkpoint."""
        self.run_until(t)
        return self.checkpoint()


def launch_mana(
    cluster: Cluster,
    program_factory: ProgramFactory,
    n_ranks: int,
    ranks_per_node: Optional[int] = None,
    mpi: Optional[str] = None,
    engine: Optional[Engine] = None,
    app_mem_bytes: Union[int, Callable[[int], int]] = 16 * MB,
    seed: int = 0,
    control: Optional[ControlPlaneModel] = None,
    stragglers: bool = True,
    protocol: Optional[str] = None,
    compact: Optional[bool] = None,
) -> ManaJob:
    """Launch a program under MANA on ``cluster``.  Does not start the
    drivers — call :meth:`ManaJob.start` (so tests can instrument first).
    ``protocol`` / ``compact`` are the job's :class:`JobOptions`; an
    omitted one takes its default, an invalid one raises here."""
    options = JobOptions().override(protocol=protocol, compact=compact)
    engine = engine or Engine()
    world = launch(engine, cluster, n_ranks, ranks_per_node=ranks_per_node, mpi=mpi)
    nodes = set(world.placement)
    rpn = max(world.placement.count(n) for n in nodes)
    runtimes = []
    for rank in range(n_ranks):
        node = cluster.node(world.node_of(rank))
        mem = app_mem_bytes(rank) if callable(app_mem_bytes) else app_mem_bytes
        proc = SplitProcess(
            rank, node.kernel, app_mem_bytes=mem,
            upper_mpi_copy_bytes=world.impl.text_size,
        )
        proc.bootstrap_lower_half(
            world.impl, world.fabric, world.shmem, len(nodes), rpn
        )
        runtimes.append(ManaRankRuntime(
            engine, rank, n_ranks, proc, world.endpoints[rank],
            program_factory(rank, n_ranks), options,
            core_speed=node.core_speed,
        ))
    rng = np.random.default_rng(seed) if stragglers else None
    coordinator = Coordinator(
        engine, runtimes, cluster.storage, list(world.placement), options,
        rng=rng, control=control,
    )
    return ManaJob(
        engine, cluster, world, runtimes, coordinator,
        meta={"n_ranks": n_ranks, "seed": seed},
    )


def restart(
    ckpt: CheckpointSet,
    cluster: Cluster,
    program_factory: ProgramFactory,
    ranks_per_node: Optional[int] = None,
    mpi: Optional[str] = None,
    engine: Optional[Engine] = None,
    seed: int = 0,
    control: Optional[ControlPlaneModel] = None,
    stragglers: bool = True,
    protocol: Optional[str] = None,
    compact: Optional[bool] = None,
) -> ManaJob:
    """Restart a checkpointed job on ``cluster`` — any implementation, any
    interconnect, any rank layout.  Returns a job whose drivers resume once
    init + image reads + record-replay have completed (all modeled on the
    job's fresh engine); ``job.restart_report`` is filled in at that point.
    The job inherits the :class:`JobOptions` in ``ckpt.meta``; ``protocol``
    / ``compact``, when passed, override them for its future checkpoints.
    """
    options = JobOptions(**ckpt.meta.get("options", {})).override(
        protocol=protocol, compact=compact)
    n_ranks = ckpt.n_ranks

    def mem_for(rank: int) -> int:
        for desc in ckpt.image_for(rank).regions:
            if desc.name == "app-data":
                return desc.size
        return 16 * MB

    # a restart is a launch of fresh lower halves, then reads and replay
    job = launch_mana(
        cluster, program_factory, n_ranks, ranks_per_node=ranks_per_node,
        mpi=mpi, engine=engine, app_mem_bytes=mem_for, seed=seed,
        control=control, stragglers=stragglers, **options.as_dict(),
    )
    job.meta = dict(ckpt.meta, restarted=True)
    engine, world, runtimes = job.engine, job.world, job.runtimes
    rng = job.coordinator.rng

    t_start = engine.now
    t_init = init_time(world.impl, n_ranks)
    read = cluster.storage.burst(
        [img.size_bytes for img in ckpt.images],
        node_of=list(world.placement),
        rng=rng, read=True,
    )
    t_read = read.max_time

    def begin_replay() -> None:
        replay_start = engine.now
        replays = []
        for rank, rt in enumerate(runtimes):
            state = ckpt.image_for(rank).restore_state()
            replays.append(rt.restore_from(state))
        for rp in replays:
            rp.start()
        def surface(value) -> None:
            # A failed replay resolves its `finished` with a ReplayError;
            # peers blocked in replay collectives would wait forever, so
            # raise the typed error out of the engine run immediately.
            if isinstance(value, Exception):
                raise value

        for rp in replays:
            rp.finished.on_done(surface)

        def resume_all(_values) -> None:
            errors = [rp.error for rp in replays if rp.error is not None]
            if errors:
                # A corrupted log fails the restart cleanly (typed error
                # out of the engine run) instead of hanging mid-replay.
                raise errors[0]
            replay_time = engine.now - replay_start
            # total is *elapsed* restart time — on a shared multi-tenant
            # engine the clock does not start at 0 when the restart begins
            job.restart_report = RestartReport(
                total_time=engine.now - t_start,
                read_time=t_read,
                replay_time=replay_time,
                init_time=t_init,
                replayed_entries=sum(rp.replayed for rp in replays),
                restored_bindings=sum(rp.restored_bindings for rp in replays),
            )
            for rt in runtimes:
                rt.finish_restore()
            job.resumed.resolve(None)

        all_of(engine, [rp.finished for rp in replays],
               label="restart-replay").on_done(resume_all)

    engine.call_after(t_init + t_read, begin_replay, label="restart:begin")
    return job
