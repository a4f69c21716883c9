"""Figure-by-figure experiment runners (§3 of the paper).

Every runner is deterministic: the simulation has no measurement noise, so
single runs give exact ratios.  ``scale="small"`` (default) keeps sweeps
laptop-sized; ``scale="paper"`` uses the paper's 2–64 nodes × 32 ranks.

Execution model
---------------

Each sweep is decomposed up front into :class:`~repro.harness.parallel.
SweepCell`\\ s — module-level functions over primitive, picklable parameters
that build their own cluster and engine — and executed through
:func:`~repro.harness.parallel.run_cells`.  Every runner takes a ``jobs``
argument: ``jobs=1`` (the default) runs the cells in-process exactly like
the historical sequential loops; ``jobs>1`` fans the same cells out over a
process pool and merges results by cell index, so the emitted tables are
byte-identical either way (the determinism contract, enforced by
``tests/harness/test_parallel.py``).

Shared sub-runs — the checkpoint preludes that fig6/fig7/fig8 would
otherwise re-simulate per figure, and the resilience sweep's probe runs —
go through the content-keyed :func:`~repro.harness.parallel.memo` cache and
are simulated once per (app, cluster, cfg, ranks) key per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps import get_app
from repro.apps import osu
from repro.apps.base import AppSpec
from repro.hardware.cluster import Cluster, cori, local_cluster, make_cluster
from repro.hardware.kernelmodel import PATCHED, UNPATCHED, KernelModel
from repro.harness.parallel import SweepCell, memo, run_cells
from repro.harness.results import Table
from repro.mana.job import launch_mana, restart
from repro.mana.protocol import JobOptions
from repro.mpilib.launcher import launch
from repro.runtime.native import NativeJob
from repro.simtime import Engine

MB = 1 << 20
GB = 1 << 30

PAPER_APPS = ["gromacs", "minife", "hpcg", "clamr", "lulesh"]


@dataclass(frozen=True)
class Scale:
    node_counts: tuple[int, ...]
    ranks_per_node: int
    single_node_ranks: tuple[int, ...]
    n_steps: int
    osu_sizes: tuple[int, ...]


SCALES = {
    "small": Scale(
        node_counts=(2, 4, 8),
        ranks_per_node=8,
        single_node_ranks=(1, 2, 4, 8, 16),
        n_steps=6,
        osu_sizes=(64, 1 << 12, 1 << 16, 1 << 20, 4 << 20),
    ),
    "medium": Scale(
        node_counts=(2, 8, 32),
        ranks_per_node=16,
        single_node_ranks=(1, 2, 4, 8, 16, 32),
        n_steps=8,
        osu_sizes=tuple(1 << k for k in range(3, 23, 2)),
    ),
    "paper": Scale(
        node_counts=(2, 4, 8, 16, 32, 64),
        ranks_per_node=32,
        single_node_ranks=(1, 2, 4, 8, 16, 32),
        n_steps=10,
        osu_sizes=tuple(1 << k for k in range(3, 23)),
    ),
}


def _lulesh_total_ranks(requested: int) -> int:
    from repro.apps.lulesh import cube_ranks

    return cube_ranks(requested)


def _rank_layout(app: str, n_nodes: int,
                 ranks_per_node: int) -> tuple[int, Optional[int]]:
    """(total ranks, ranks-per-node) for a multi-node sweep point; LULESH
    needs cubic rank counts and therefore a free layout."""
    requested = n_nodes * ranks_per_node
    if app == "lulesh":
        return _lulesh_total_ranks(requested), None
    return requested, ranks_per_node


# ------------------------------------------------------------ app running

def _run_native(cluster: Cluster, spec: AppSpec, cfg, n_ranks: int,
                ranks_per_node: Optional[int]) -> float:
    engine = Engine()
    world = launch(engine, cluster, n_ranks, ranks_per_node=ranks_per_node)
    factory = spec.build(cfg)
    programs = [factory(r, n_ranks) for r in range(n_ranks)]
    return NativeJob(engine, world, programs).run_to_completion()


def _launch_mana_app(cluster: Cluster, spec: AppSpec, cfg, n_ranks: int,
                     ranks_per_node: Optional[int],
                     options: JobOptions = JobOptions()):
    from repro.mana.split_process import fixed_upper_bytes

    # The app's memory model gives the *target image size*; the app-data
    # region is that minus the fixed upper-half furniture (app text, the
    # duplicated MPI copy, stack, environ, TLS, base heap).
    fixed = fixed_upper_bytes()

    def app_data(rank: int) -> int:
        return max(1 << 20, spec.memory_bytes(cfg, rank, n_ranks) - fixed)

    return launch_mana(
        cluster, spec.build(cfg), n_ranks=n_ranks,
        ranks_per_node=ranks_per_node, app_mem_bytes=app_data,
        **options.as_dict(),
    ).start()


def _run_mana(cluster: Cluster, spec: AppSpec, cfg, n_ranks: int,
              ranks_per_node: Optional[int]) -> float:
    return _launch_mana_app(
        cluster, spec, cfg, n_ranks, ranks_per_node
    ).run_to_completion()


def _overhead_row(cluster: Cluster, app: str, n_ranks: int,
                  ranks_per_node: Optional[int], n_steps: int) -> tuple:
    spec = get_app(app)
    cfg = spec.default_config.scaled(n_steps=n_steps)
    t_native = _run_native(cluster, spec, cfg, n_ranks, ranks_per_node)
    t_mana = _run_mana(cluster, spec, cfg, n_ranks, ranks_per_node)
    normalized = 100.0 * t_native / t_mana
    return (app, n_ranks, t_native, t_mana, normalized)


# ------------------------------------------------------------------ Fig 2

def _fig2_cell(app: str, n_ranks: int, n_steps: int,
               kernel: KernelModel) -> tuple:
    """One fig2 sweep point: (app, ranks) on a fresh single-node cluster."""
    cluster = make_cluster("single", 1, cores_per_node=32,
                           interconnect="aries", kernel=kernel,
                           default_mpi="craympich")
    return _overhead_row(cluster, app, n_ranks, n_ranks, n_steps)


def fig2_single_node_overhead(
    scale: str = "small",
    apps: Optional[list[str]] = None,
    kernel: KernelModel = UNPATCHED,
    jobs: Optional[int] = 1,
) -> Table:
    """Single node: normalized performance under MANA (higher is better)."""
    s = SCALES[scale]
    table = Table(
        "Figure 2: single-node runtime overhead under MANA (unpatched kernel)",
        ["app", "ranks", "native_s", "mana_s", "normalized_pct"],
    )
    cells = []
    for app in (apps or PAPER_APPS):
        ranks_list = (
            [r for r in (1, 8, 27) if r <= max(s.single_node_ranks)]
            if app == "lulesh" else s.single_node_ranks
        )
        for n_ranks in ranks_list:
            cells.append(SweepCell(_fig2_cell,
                                   (app, n_ranks, s.n_steps, kernel),
                                   label=f"fig2:{app}/{n_ranks}"))
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append(
        "paper: worst case 2.1% (GROMACS/16); most cases < 2% overhead"
    )
    return table


# ------------------------------------------------------------------ Fig 3

def _fig3_cell(app: str, n_nodes: int, ranks_per_node: int,
               n_steps: int) -> tuple:
    """One fig3 sweep point: (app, nodes) on a fresh Cori slice."""
    n_ranks, rpn = _rank_layout(app, n_nodes, ranks_per_node)
    row = _overhead_row(cori(n_nodes), app, n_ranks, rpn, n_steps)
    return (row[0], n_nodes, *row[1:])


def fig3_multi_node_overhead(
    scale: str = "small",
    apps: Optional[list[str]] = None,
    jobs: Optional[int] = 1,
) -> Table:
    """Multi-node: normalized performance under MANA across node counts."""
    s = SCALES[scale]
    table = Table(
        "Figure 3: multi-node runtime overhead under MANA",
        ["app", "nodes", "ranks", "native_s", "mana_s", "normalized_pct"],
    )
    cells = [
        SweepCell(_fig3_cell, (app, n_nodes, s.ranks_per_node, s.n_steps),
                  label=f"fig3:{app}/{n_nodes}n")
        for app in (apps or PAPER_APPS)
        for n_nodes in s.node_counts
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append("paper: typically <2%; worst 4.5% (GROMACS/512 ranks)")
    return table


# ------------------------------------------------------------------ Fig 4

def _fig4_cell(size: int) -> tuple:
    """One fig4 point: bandwidth at one message size, three configurations."""
    unpatched = make_cluster("u", 1, interconnect="aries", kernel=UNPATCHED)
    patched = make_cluster("p", 1, interconnect="aries", kernel=PATCHED)
    native = osu.measure_bandwidth(unpatched, size, mana=False)
    mana_u = osu.measure_bandwidth(unpatched, size, mana=True)
    mana_p = osu.measure_bandwidth(patched, size, mana=True)
    return (size, native / MB, mana_u / MB, mana_p / MB)


def fig4_bandwidth_kernel_patch(
    scale: str = "small",
    jobs: Optional[int] = 1,
) -> Table:
    """p2p bandwidth: native vs MANA on unpatched and patched kernels."""
    s = SCALES[scale]
    table = Table(
        "Figure 4: point-to-point bandwidth vs message size",
        ["size_bytes", "native_MBps", "mana_unpatched_MBps", "mana_patched_MBps"],
    )
    cells = [SweepCell(_fig4_cell, (size,), label=f"fig4:{size}B")
             for size in s.osu_sizes]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append(
        "paper: MANA degrades below ~1MB on the native kernel; the patched "
        "kernel closes most of the gap"
    )
    return table


# ------------------------------------------------------------------ Fig 5

def _fig5_cell(bench: str, size: int) -> tuple:
    """One fig5 point: latency of one benchmark at one message size."""
    cluster = make_cluster("osu5", 1, interconnect="aries", kernel=UNPATCHED)
    if bench == "p2p-latency":
        native = osu.measure_latency(cluster, size, mana=False, n_iters=20)
        mana = osu.measure_latency(cluster, size, mana=True, n_iters=20)
    else:
        native = osu.measure_collective(cluster, bench, size, mana=False,
                                        n_iters=15)
        mana = osu.measure_collective(cluster, bench, size, mana=True,
                                      n_iters=15)
    return (bench, size, native * 1e6, mana * 1e6)


def fig5_osu_latency(
    scale: str = "small",
    jobs: Optional[int] = 1,
) -> Table:
    """OSU latency: p2p ping-pong, Gather, Allreduce (2 ranks, 1 node)."""
    s = SCALES[scale]
    table = Table(
        "Figure 5: OSU micro-benchmark latency (2 ranks, single node)",
        ["benchmark", "size_bytes", "native_us", "mana_us"],
    )
    cells = [
        SweepCell(_fig5_cell, (bench, size), label=f"fig5:{bench}/{size}B")
        for bench in ("p2p-latency", "gather", "allreduce")
        for size in s.osu_sizes
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append("paper: MANA curves closely follow native")
    return table


# ------------------------------------------------------------------ Fig 6

def _checkpoint_after_steps(cluster, spec, cfg, n_ranks, rpn):
    job = _launch_mana_app(cluster, spec, cfg, n_ranks, rpn)
    # Let the app get ~2 steps in so real traffic is in flight, then cut.
    job.run_until(job.engine.now + 2.2 * cfg.compute_per_step)
    ckpt, report = job.checkpoint()
    return job, ckpt, report


def _ckpt_prelude(app: str, n_nodes: int, ranks_per_node: int,
                  n_steps: int):
    """Memoized checkpoint prelude shared by fig6/fig7/fig8.

    Launches the app under MANA on a Cori slice, lets ~2 steps of real
    traffic build up, cuts one checkpoint, and returns ``(ckpt, report)``.
    The result is cached per (app, nodes, ranks-per-node, steps) key: the
    checkpoint set is only ever *read* afterwards (fig9's triple restart
    relies on the same property), so the figures can share one simulation.
    """
    key = ("ckpt-prelude", "cori", app, n_nodes, ranks_per_node, n_steps)

    def compute():
        spec = get_app(app)
        n_ranks, rpn = _rank_layout(app, n_nodes, ranks_per_node)
        cfg = spec.default_config.scaled(n_steps=n_steps)
        _job, ckpt, report = _checkpoint_after_steps(
            cori(n_nodes), spec, cfg, n_ranks, rpn
        )
        return ckpt, report

    return memo(key, compute)


def _fig6_cell(app: str, n_nodes: int, ranks_per_node: int,
               n_steps: int) -> tuple:
    """One fig6 point: checkpoint time + image size at one node count."""
    n_ranks, _rpn = _rank_layout(app, n_nodes, ranks_per_node)
    ckpt, report = _ckpt_prelude(app, n_nodes, ranks_per_node, n_steps)
    return (
        app, n_nodes, n_ranks, report.total_time,
        ckpt.total_bytes / n_ranks / MB, ckpt.total_bytes / GB,
    )


def fig6_checkpoint_time(
    scale: str = "small",
    apps: Optional[list[str]] = None,
    n_steps: int = 4,
    jobs: Optional[int] = 1,
) -> Table:
    """Checkpoint time and per-rank image size across node counts."""
    s = SCALES[scale]
    table = Table(
        "Figure 6: checkpoint time and image size per rank",
        ["app", "nodes", "ranks", "ckpt_time_s", "image_MB_per_rank",
         "total_GB"],
    )
    cells = [
        SweepCell(_fig6_cell, (app, n_nodes, s.ranks_per_node, n_steps),
                  label=f"fig6:{app}/{n_nodes}n")
        for app in (apps or PAPER_APPS)
        for n_nodes in s.node_counts
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append(
        "paper: 5.9 GB (GROMACS/64 ranks) to 4 TB (HPCG/2048 ranks); time "
        "proportional to data written, bottlenecked by the slowest rank"
    )
    return table


# ------------------------------------------------------------------ Fig 7

def _fig7_cell(app: str, n_nodes: int, ranks_per_node: int,
               n_steps: int) -> tuple:
    """One fig7 point: restart from the (memoized) fig6 prelude checkpoint."""
    spec = get_app(app)
    n_ranks, rpn = _rank_layout(app, n_nodes, ranks_per_node)
    cfg = spec.default_config.scaled(n_steps=n_steps)
    ckpt, _report = _ckpt_prelude(app, n_nodes, ranks_per_node, n_steps)
    job2 = restart(ckpt, cori(n_nodes), spec.build(cfg), ranks_per_node=rpn)
    job2.run_to_completion()
    rep = job2.restart_report
    return (app, n_nodes, n_ranks, rep.total_time, rep.read_time,
            rep.replay_time)


def fig7_restart_time(
    scale: str = "small",
    apps: Optional[list[str]] = None,
    n_steps: int = 4,
    jobs: Optional[int] = 1,
) -> Table:
    """Restart time across node counts (read-dominated)."""
    s = SCALES[scale]
    table = Table(
        "Figure 7: restart time",
        ["app", "nodes", "ranks", "restart_s", "read_s", "replay_s"],
    )
    cells = [
        SweepCell(_fig7_cell, (app, n_nodes, s.ranks_per_node, n_steps),
                  label=f"fig7:{app}/{n_nodes}n")
        for app in (apps or PAPER_APPS)
        for n_nodes in s.node_counts
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append(
        "paper: <10 s to 68 s (HPCG/2048 ranks); dominated by reading "
        "images; opaque-id recreation <10% of restart"
    )
    return table


# ------------------------------------------------------------------ Fig 8

def _fig8_cell(app: str, n_nodes: int, ranks_per_node: int,
               n_steps: int) -> tuple:
    """One fig8 point: checkpoint-time breakdown at the largest node count."""
    n_ranks, _rpn = _rank_layout(app, n_nodes, ranks_per_node)
    _ckpt, report = _ckpt_prelude(app, n_nodes, ranks_per_node, n_steps)
    total = report.total_time or 1.0
    return (
        app, n_ranks,
        100 * report.write_time / total,
        100 * report.drain_time / total,
        100 * report.comm_overhead / total,
        report.drain_time, report.comm_overhead,
    )


def fig8_ckpt_breakdown(
    scale: str = "small",
    apps: Optional[list[str]] = None,
    n_steps: int = 4,
    jobs: Optional[int] = 1,
) -> Table:
    """Contribution of write / drain / protocol-comm to checkpoint time at
    the largest node count of the sweep."""
    s = SCALES[scale]
    n_nodes = s.node_counts[-1]
    table = Table(
        f"Figure 8: checkpoint-time breakdown at {n_nodes} nodes",
        ["app", "ranks", "write_pct", "drain_pct", "comm_pct",
         "drain_s", "comm_s"],
    )
    cells = [
        SweepCell(_fig8_cell, (app, n_nodes, s.ranks_per_node, n_steps),
                  label=f"fig8:{app}/{n_nodes}n")
        for app in (apps or PAPER_APPS)
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append(
        "paper (64 nodes): write dominates; drain <0.7 s; 2-phase comm "
        "<1.6 s, growing with rank count via coordinator TCP metadata"
    )
    return table


# ------------------------------------------------------------------ Fig 9

def _steady_per_step(engine: Engine, states: list, trace_key: str,
                     skip_to: int) -> float:
    """Run the engine to completion and return the average per-step time
    over the steps *after* the trace reaches ``skip_to`` entries — skipping
    partial or warm-up steps that would skew the average."""
    while len(states[0].get(trace_key, ())) < skip_to:
        if not engine.step():
            raise RuntimeError("job finished before reaching steady state")
    t1 = engine.now
    engine.run()
    done = len(states[0][trace_key])
    if done <= skip_to:
        raise RuntimeError("no steady-state steps to measure")
    return (engine.now - t1) / (done - skip_to)


def fig9_cross_cluster_migration(n_steps: int = 14) -> Table:
    """GROMACS migrated from Cori (Cray MPICH / Aries) to a local cluster,
    restarted under three configurations; degradation vs native runs.

    Inherently sequential: the three target configurations restart the same
    in-memory checkpoint cut from a single source run, so there is nothing
    to decompose into independent cells.
    """
    spec = get_app("gromacs")
    cfg = spec.default_config.scaled(n_steps=n_steps)
    src = cori(4)

    # Reference run on Cori (8 ranks over 4 nodes, 2 per node — §3.6).
    t_full = _run_native(src, spec, cfg, n_ranks=8, ranks_per_node=2)

    # Checkpoint at the halfway mark under MANA.
    job = _launch_mana_app(src, spec, cfg, 8, 2)
    ckpt, _ = job.checkpoint_at(t_full / 2)
    steps_done = len(job.states[0]["step_trace"])

    configs = [
        ("OpenMPI/IB (2x4)", local_cluster(2, "infiniband"), "openmpi", 4),
        ("MPICH/TCP (2x4)", local_cluster(2, "tcp"), "mpich", 4),
        ("MPICH (8x1)", local_cluster(1, "tcp"), "mpich", 8),
    ]
    table = Table(
        "Figure 9: GROMACS cross-cluster migration (restarted vs native)",
        ["config", "native_per_step_ms", "restarted_per_step_ms",
         "degradation_pct"],
    )
    for label, dst, mpi, rpn in configs:
        # Native reference on the target (same object files, local MPI);
        # measured over steady-state steps, skipping the first.
        engine = Engine()
        world = launch(engine, dst, 8, ranks_per_node=rpn)
        factory = spec.build(cfg)
        njob = NativeJob(engine, world, [factory(r, 8) for r in range(8)])
        njob.start()
        native_per_step = _steady_per_step(
            engine, njob.states, "step_trace", skip_to=1
        )

        job2 = restart(ckpt, dst, spec.build(cfg), mpi=mpi, ranks_per_node=rpn)
        restarted_per_step = _steady_per_step(
            job2.engine, job2.states, "step_trace", skip_to=steps_done + 1
        )
        degradation = 100.0 * (restarted_per_step / native_per_step - 1.0)
        table.add(label, native_per_step * 1e3, restarted_per_step * 1e3,
                  degradation)
    table.notes.append("paper: degradation < 1.8% across all three configs")
    return table


# ------------------------------------------------------------- §3.2.2

def _mem_cell(n_nodes: int, ranks_per_node: int) -> tuple:
    """One §3.2.2 point: split-process memory overhead at one node count."""
    from repro.mana.split_process import SplitProcess
    from repro.mpilib.impls import get_implementation
    from repro.net import make_interconnect
    from repro.net.fabrics import ShmemTransport

    engine = Engine()
    impl = get_implementation("craympich")
    proc = SplitProcess(0, UNPATCHED, app_mem_bytes=MB,
                        upper_mpi_copy_bytes=impl.text_size)
    fabric = make_interconnect("aries", engine)
    shmem = ShmemTransport(engine)
    proc.bootstrap_lower_half(impl, fabric, shmem, n_nodes, ranks_per_node)
    shmem_bytes = sum(
        r.size for r in proc.space.regions()
        if r.name == "aries-shmem"
    )
    return (
        n_nodes,
        proc.space.find("app-mpi-copy").size / MB,
        shmem_bytes / MB,
        proc.lower_bytes() / MB,
    )


def memory_overhead_analysis(
    scale: str = "small",
    jobs: Optional[int] = 1,
) -> Table:
    """Memory overhead of the split process: duplicated upper-half MPI text
    and lower-half driver regions growing with node count."""
    s = SCALES[scale]
    table = Table(
        "§3.2.2: split-process memory overhead",
        ["nodes", "upper_mpi_copy_MB", "driver_shmem_MB", "lower_total_MB"],
    )
    cells = [
        SweepCell(_mem_cell, (n_nodes, s.ranks_per_node),
                  label=f"mem:{n_nodes}n")
        for n_nodes in (2, 4, 8, 16, 32, 64)
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    table.notes.append(
        "paper: 26 MB duplicated text; driver shared memory 2 MB at 2 nodes "
        "to 40 MB at 64 nodes — all discarded at checkpoint"
    )
    return table


# --------------------------------------------------------------- ablation

def _ablation_two_phase_cell(n_ranks: int, size: int,
                             n_iters: int = 40) -> tuple:
    """One ablation point: allreduce loop with the wrapper on vs off."""
    from repro.mpilib import SUM
    from repro.mprog import Call, Compute, Loop, Program, Seq

    def factory(rank, world):
        def init(s):
            s["x"] = np.ones(8)

        def coll(s, api):
            return api.allreduce(s["x"], SUM, size=size)

        return Program(Seq(Compute(init), Loop(n_iters, Call(coll, store="y"))),
                       name="ablate-coll")

    times = {}
    for enabled in (False, True):
        cluster = cori(2)
        job = launch_mana(cluster, factory, n_ranks=n_ranks,
                          ranks_per_node=n_ranks // 2, app_mem_bytes=1 << 20)
        for rt in job.runtimes:
            rt.two_phase_enabled = enabled
        job.start()
        times[enabled] = job.run_to_completion()
    added = 100.0 * (times[True] / times[False] - 1.0)
    return (n_ranks, size, times[False], times[True], added)


def ablation_two_phase_cost(
    rank_counts: tuple[int, ...] = (4, 16),
    sizes: tuple[int, ...] = (64, 1 << 16, 1 << 21),
    jobs: Optional[int] = 1,
) -> Table:
    """Runtime price of Algorithm 1's trivial barrier, by size and ranks."""
    table = Table(
        "Ablation: two-phase wrapper runtime cost (no checkpoints)",
        ["ranks", "size_bytes", "bare_s", "two_phase_s", "added_pct"],
    )
    cells = [
        SweepCell(_ablation_two_phase_cell, (n_ranks, size),
                  label=f"ablate-2p:{n_ranks}r/{size}B")
        for n_ranks in rank_counts
        for size in sizes
    ]
    for row in run_cells(cells, jobs=jobs):
        table.add(*row)
    return table


# ------------------------------------------------------ resilience (faults)

def _res_init(s):
    """Initialize the resilience-sweep app's per-rank state."""
    s["x"] = np.array([float(s["rank"] + 1)])
    s["acc"] = 0.0


def _res_call(s, api):
    """One allreduce step of the resilience-sweep app."""
    return api.allreduce(s["x"], _res_sum())


def _res_update(s):
    """Absorb the allreduce result and advance the local state."""
    s["acc"] += float(s["sum"][0])
    s["x"] = s["x"] * 0.5 + 1.0


def _res_sum():
    """The SUM reduction op (imported lazily to keep module imports light)."""
    from repro.mpilib import SUM
    return SUM


def resilience_program(n_iters: int = 60, cost: float = 0.5):
    """Program factory for the resilience experiments: an iterative
    allreduce solver with ``cost`` simulated seconds of compute per step."""
    from repro.mprog import Call, Compute, Loop, Program, Seq

    def factory(rank, size):
        return Program(Seq(
            Compute(_res_init),
            Loop(n_iters, Seq(
                Call(_res_call, store="sum"),
                Compute(_res_update, cost=cost),
            )),
        ), name="resilient-app")

    return factory


def _resilience_probe(n_nodes: int, n_ranks: int, n_iters: int,
                      cost: float) -> tuple[float, float]:
    """Memoized (checkpoint cost, uninterrupted runtime) measurement shared
    by every (interval, seed) cell of the resilience sweep."""
    key = ("resilience-probe", n_nodes, n_ranks, n_iters, cost)

    def compute():
        factory = resilience_program(n_iters=n_iters, cost=cost)
        probe = make_cluster("probe", n_nodes)
        job = launch_mana(probe, factory, n_ranks).start()
        _ckpt, report = job.checkpoint_at(1.0)
        ckpt_cost = report.total_time

        ref_cluster = make_cluster("reference", n_nodes)
        ref_job = launch_mana(ref_cluster, factory, n_ranks).start()
        reference_time = ref_job.run_to_completion()
        return ckpt_cost, reference_time

    return memo(key, compute)


def _resilience_cell(factor: float, seed: int, interval: float,
                     n_nodes: int, n_ranks: int, n_iters: int, cost: float,
                     system_mtbf: float, reference_time: float) -> tuple:
    """One resilience sweep point: (interval factor, fault seed)."""
    from repro.faults import ExponentialNodeFaults, run_resilient
    from repro.simtime.rng import RngStreams

    factory = resilience_program(n_iters=n_iters, cost=cost)
    cluster = make_cluster(f"sweep-f{factor:g}-s{seed}", n_nodes)
    model = ExponentialNodeFaults(
        [n.node_id for n in cluster.nodes],
        mtbf_seconds=system_mtbf * n_nodes,
        rng=RngStreams(seed),
    )
    run = run_resilient(
        cluster, factory, n_ranks, interval=interval,
        faults=model, max_restarts=100, seed=seed,
        reference_time=reference_time,
    )
    if not run.completed:
        return (False, 0.0, 0, 0.0)
    return (True, run.efficiency, len(run.failures), run.lost_work_total)


def resilience_efficiency_sweep(
    system_mtbf: float = 12.0,
    interval_factors=(0.25, 0.5, 1.0, 2.0, 4.0),
    n_nodes: int = 6,
    n_ranks: int = 4,
    n_iters: int = 60,
    cost: float = 0.5,
    seeds=(0, 1, 2),
    jobs: Optional[int] = 1,
) -> Table:
    """Efficiency vs. checkpoint interval under exponential node failures.

    Measures the checkpoint cost ``C`` and the uninterrupted runtime once,
    derives the Young/Daly period ``sqrt(2 C MTBF)``, then for each
    ``interval = factor * YD`` runs :func:`repro.faults.run_resilient`
    under per-node exponential faults (per-node MTBF = ``system_mtbf *
    n_nodes``) and reports mean efficiency (useful work / total simulated
    time) over ``seeds``.  Efficiency should peak near factor 1.0:
    checkpointing too often pays protocol overhead, too rarely pays lost
    work.
    """
    from repro.mana.autockpt import young_daly_interval

    ckpt_cost, reference_time = _resilience_probe(
        n_nodes, n_ranks, n_iters, cost
    )
    yd = young_daly_interval(system_mtbf, ckpt_cost)
    table = Table(
        "Resilience: efficiency vs. checkpoint interval (exponential faults)",
        ["interval/YD", "interval_s", "efficiency", "failures", "lost_work_s"],
    )
    cells = [
        SweepCell(
            _resilience_cell,
            (factor, seed, factor * yd, n_nodes, n_ranks, n_iters, cost,
             system_mtbf, reference_time),
            label=f"resilience:f{factor:g}/s{seed}",
        )
        for factor in interval_factors
        for seed in seeds
    ]
    results = run_cells(cells, jobs=jobs)
    n_seeds = len(tuple(seeds))
    for i, factor in enumerate(interval_factors):
        chunk = results[i * n_seeds:(i + 1) * n_seeds]
        effs = [r[1] for r in chunk if r[0]]
        fails = [r[2] for r in chunk if r[0]]
        lost = [r[3] for r in chunk if r[0]]
        table.add(
            factor, factor * yd,
            float(np.mean(effs)) if effs else float("nan"),
            float(np.mean(fails)) if fails else float("nan"),
            float(np.mean(lost)) if lost else float("nan"),
        )
    table.notes.append(
        f"system MTBF {system_mtbf:g}s, measured C={ckpt_cost:.3f}s, "
        f"Young/Daly period {yd:.2f}s, uninterrupted runtime "
        f"{reference_time:.2f}s over {len(tuple(seeds))} seeds"
    )
    return table
