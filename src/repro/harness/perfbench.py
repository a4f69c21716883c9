"""Wall-clock performance benchmarks: the data behind ``BENCH_perf.json``.

Every other benchmark in this repo measures *simulated* time (the figures
of the paper); this module measures how fast the simulator itself runs on
the host — the perf trajectory the ROADMAP's "as fast as the hardware
allows" goal is held against.  ``repro bench`` (without ``--figure``) runs
the suite and writes a schema-validated ``BENCH_perf.json`` at the repo
root; CI re-runs it in quick mode and fails if event throughput regresses
more than 30% against the committed baseline.

Metrics
-------

* ``engine_events_per_s`` — raw discrete-event kernel throughput (a
  self-re-arming timer; nothing but the engine hot loop).
* ``p2p_msgs_per_s`` — simulated point-to-point messages per wall second
  (OSU-style ping-pong under MANA interposition).
* ``allreduce_per_s`` — simulated 8-rank allreduces per wall second.
* ``ckpt_restart_cycle_s`` — wall seconds for one checkpoint + restart
  cycle of a 4-rank HPCG slice.
* ``fig2_cell_s`` — wall seconds for one end-to-end fig2 sweep cell
  (native + MANA run, GROMACS/4 ranks).
* ``sweep_speedup_j2`` — wall-clock speedup of a reduced fig3 sweep at
  ``jobs=2`` over ``jobs=1`` (≈1.0 on a single-core host, approaching the
  worker count as cores allow).  On hosts with fewer than two CPUs the
  metric is emitted with ``informational: true`` — the ratio measures the
  host, not the code — and :func:`compare_bench` never thresholds
  informational metrics.
* ``facility_makespan_s`` — wall seconds to drain a whole multi-tenant
  facility workload (FIFO, tiny mix) through one shared engine: the cost
  of the scheduler + many-jobs-one-engine multiplexing path.
* ``ckpt_quiesce_wait_s`` — **simulated** seconds from checkpoint request
  to the start of draining under the topological-sort protocol on a
  collective-heavy HPCG slice, with the Algorithm-2 wait on the same cut
  alongside (``alg2_s``/``topo_s`` extras).  A simulated-time metric: it
  pins protocol v2's latency claim (one control round, not 2+extra) so
  the win is measured, not asserted.
* ``restart_replay_s_vs_log_len`` — **simulated** replay seconds of a
  compacted restart after 10× communicator churn (``commchurn``), with the
  base-churn compacted time and both full-log times as extras.  The
  compaction acceptance criterion in one number: the full log's replay
  grows with call history (``full_ratio`` ≫ 1) while the compacted
  restart stays O(live handles) and flat (``compact_ratio`` ≈ 1).  See
  ``docs/record_replay.md``.

All metrics carry ``higher_is_better`` so a generic threshold check can
compare any of them; see :func:`compare_bench`.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Callable, Optional

BENCH_SCHEMA = "repro-perf/2"

#: metric keys guaranteed to be present in every suite run
CORE_METRICS = (
    "engine_events_per_s",
    "p2p_msgs_per_s",
    "allreduce_per_s",
    "ckpt_restart_cycle_s",
    "fig2_cell_s",
    "sweep_speedup_j2",
    "facility_makespan_s",
    "ckpt_quiesce_wait_s",
    "restart_replay_s_vs_log_len",
)

#: keys :func:`compare_bench` thresholds by default — engine throughput
#: and sweep scaling; the sweep metric skips itself via the
#: ``informational`` flag on hosts that cannot overlap work
THRESHOLDED_KEYS = (
    "engine_events_per_s",
    "sweep_speedup_j2",
)


# ------------------------------------------------------------ microbenches

def bench_engine_events(n_events: int = 300_000) -> float:
    """Events per wall second through the bare engine hot loop."""
    from repro.simtime import Engine

    engine = Engine()
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.call_after(0.001, tick, label="tick")

    engine.call_after(0.0, tick, label="tick")
    t0 = time.perf_counter()
    engine.run()
    return n_events / (time.perf_counter() - t0)


def bench_p2p_message_rate(n_iters: int = 400) -> float:
    """Simulated MANA p2p messages per wall second (2-rank ping-pong)."""
    from repro.apps import osu
    from repro.hardware.cluster import make_cluster
    from repro.hardware.kernelmodel import UNPATCHED

    cluster = make_cluster("perf-p2p", 1, interconnect="aries",
                           kernel=UNPATCHED)
    t0 = time.perf_counter()
    osu.measure_latency(cluster, 1 << 10, mana=True, n_iters=n_iters)
    wall = time.perf_counter() - t0
    # each ping-pong iteration is two messages
    return 2 * n_iters / wall


def bench_allreduce_rate(n_iters: int = 60, n_ranks: int = 8) -> float:
    """Simulated 8-rank MANA allreduces per wall second."""
    import numpy as np

    from repro.hardware.cluster import make_cluster
    from repro.mana.job import launch_mana
    from repro.mpilib import SUM
    from repro.mprog import Call, Compute, Loop, Program, Seq

    def factory(rank, world):
        def init(s):
            s["x"] = np.ones(8)

        def coll(s, api):
            return api.allreduce(s["x"], SUM, size=1 << 12)

        return Program(
            Seq(Compute(init), Loop(n_iters, Call(coll, store="y"))),
            name="perf-allreduce",
        )

    cluster = make_cluster("perf-coll", 2)
    job = launch_mana(cluster, factory, n_ranks=n_ranks,
                      ranks_per_node=n_ranks // 2, app_mem_bytes=1 << 20)
    job.start()
    t0 = time.perf_counter()
    job.run_to_completion()
    return n_iters / (time.perf_counter() - t0)


def bench_ckpt_restart_cycle(n_steps: int = 3) -> float:
    """Wall seconds for one 4-rank HPCG checkpoint + restart cycle."""
    from repro.apps import get_app
    from repro.hardware.cluster import make_cluster
    from repro.harness.experiments import _launch_mana_app
    from repro.mana.job import restart

    spec = get_app("hpcg")
    cfg = spec.default_config.scaled(n_steps=n_steps)
    t0 = time.perf_counter()
    cluster = make_cluster("perf-ckpt", 2, interconnect="aries",
                           default_mpi="craympich")
    job = _launch_mana_app(cluster, spec, cfg, n_ranks=4, ranks_per_node=2)
    ckpt, _report = job.checkpoint_at(0.05)
    job2 = restart(ckpt, make_cluster("perf-rst", 2, interconnect="aries",
                                      default_mpi="craympich"),
                   spec.build(cfg), ranks_per_node=2)
    job2.run_to_completion()
    return time.perf_counter() - t0


def bench_fig2_cell(n_steps: int = 4) -> float:
    """Wall seconds for one end-to-end fig2 cell (GROMACS, 4 ranks)."""
    from repro.harness.experiments import _fig2_cell
    from repro.hardware.kernelmodel import UNPATCHED

    t0 = time.perf_counter()
    _fig2_cell("gromacs", 4, n_steps, UNPATCHED)
    return time.perf_counter() - t0


def bench_sweep_speedup(jobs: int = 2) -> dict[str, float]:
    """Wall-clock speedup of a reduced fig3 sweep at ``jobs`` workers.

    Returns ``{"seq_s": ..., "par_s": ..., "speedup": ...}``.  On a
    single-core host the pool adds overhead and the ratio sits near (or
    below) 1.0; the emitted document records the host core count next to
    it so trajectories across machines stay interpretable.
    """
    from repro.harness.experiments import fig3_multi_node_overhead
    from repro.harness.parallel import clear_memo

    apps = ["gromacs", "hpcg"]
    clear_memo()
    t0 = time.perf_counter()
    fig3_multi_node_overhead(scale="small", apps=apps, jobs=1)
    seq = time.perf_counter() - t0
    clear_memo()
    t0 = time.perf_counter()
    fig3_multi_node_overhead(scale="small", apps=apps, jobs=jobs)
    par = time.perf_counter() - t0
    return {"seq_s": seq, "par_s": par, "speedup": seq / par}


def bench_facility_makespan(n_jobs: int = 40) -> float:
    """Wall seconds to drain an ``n_jobs`` tiny-mix facility workload.

    Exercises the whole multi-tenant path — scheduler rounds, many MANA
    jobs multiplexed on one engine, the shared-storage arbiter — with no
    preemptions or faults, so the number tracks orchestration overhead
    rather than any single job's simulation cost.
    """
    from repro.facility import Facility, generate_jobs
    from repro.hardware.cluster import make_cluster

    t0 = time.perf_counter()
    cluster = make_cluster("perf-facility", 8, cores_per_node=16,
                           interconnect="aries", default_mpi="craympich")
    fac = Facility(cluster, scheduler="fifo", seed=0)
    fac.submit_all(generate_jobs("tiny", n_jobs, seed=0))
    rep = fac.run()
    if rep.completed_jobs != n_jobs:
        raise RuntimeError(
            f"facility bench dropped jobs: {rep.completed_jobs}/{n_jobs}"
        )
    return time.perf_counter() - t0


def bench_ckpt_quiesce_wait(n_steps: int = 3) -> dict[str, float]:
    """Simulated quiesce wait of one HPCG checkpoint, per protocol.

    Runs the identical 4-rank HPCG slice twice — once per protocol engine —
    and cuts a checkpoint at the same virtual instant.  Returns
    ``{"alg2_s": ..., "topo_s": ...}`` (CheckpointReport.quiesce_wait);
    the differential tests and CI assert ``topo_s <= alg2_s``.
    """
    from repro.apps import get_app
    from repro.hardware.cluster import make_cluster
    from repro.harness.experiments import _launch_mana_app
    from repro.mana.protocol import JobOptions

    spec = get_app("hpcg")
    cfg = spec.default_config.scaled(n_steps=n_steps)
    waits = {}
    for options in (JobOptions(protocol="alg2"), JobOptions(protocol="topo")):
        cluster = make_cluster(f"perf-qw-{options.protocol}", 2,
                               interconnect="aries", default_mpi="craympich")
        job = _launch_mana_app(cluster, spec, cfg, n_ranks=4,
                               ranks_per_node=2, options=options)
        _ckpt, report = job.checkpoint_at(0.05)
        waits[f"{options.protocol}_s"] = report.quiesce_wait
    return waits


def bench_restart_replay_vs_log_len(n_steps: int = 6) -> dict[str, float]:
    """Simulated restart-replay time vs record-log length (commchurn).

    Runs the churn-heavy ``commchurn`` app at ``n_steps`` and at
    ``10 * n_steps``, cuts a checkpoint at 90% of each makespan (so the
    log holds the full churn history), and restarts each image twice —
    from the full log and from the compacted one.  Returns per-variant
    replay times and entry counts plus the two growth ratios; the
    compacted ratio must stay flat (O(live handles)) while the full one
    tracks the 10× log growth.
    """
    from repro.apps import get_app
    from repro.hardware.cluster import make_cluster
    from repro.harness.experiments import _launch_mana_app
    from repro.mana.job import restart
    from repro.mana.protocol import JobOptions

    spec = get_app("commchurn")
    out: dict[str, float] = {}
    for label, steps in (("base", n_steps), ("x10", 10 * n_steps)):
        cfg = spec.default_config.scaled(n_steps=steps)
        probe = _launch_mana_app(
            make_cluster(f"perf-rr-{label}", 2, interconnect="aries",
                         default_mpi="craympich"),
            spec, cfg, n_ranks=4, ranks_per_node=2)
        makespan = probe.run_to_completion()
        for options in (JobOptions(compact=False), JobOptions(compact=True)):
            variant = "compact" if options.compact else "full"
            cluster = make_cluster(f"perf-rr-{label}-{variant}", 2,
                                   interconnect="aries",
                                   default_mpi="craympich")
            job = _launch_mana_app(cluster, spec, cfg, n_ranks=4,
                                   ranks_per_node=2, options=options)
            ckpt, _report = job.checkpoint_at(0.9 * makespan)
            job2 = restart(
                ckpt,
                make_cluster(f"perf-rr-{label}-{variant}-dst", 2,
                             interconnect="aries", default_mpi="craympich"),
                spec.build(cfg), ranks_per_node=2)
            job2.run_to_completion()
            rep = job2.restart_report
            out[f"{variant}_{label}_s"] = rep.replay_time
            out[f"{variant}_{label}_entries"] = float(rep.replayed_entries)
    out["compact_ratio"] = out["compact_x10_s"] / max(out["compact_base_s"],
                                                      1e-12)
    out["full_ratio"] = out["full_x10_s"] / max(out["full_base_s"], 1e-12)
    return out


# ------------------------------------------------------------------ suite

def _metric(value: float, unit: str, higher_is_better: bool,
            **extra: Any) -> dict:
    out = {"value": float(value), "unit": unit,
           "higher_is_better": higher_is_better}
    out.update(extra)
    return out


def run_suite(quick: bool = False, jobs: Optional[int] = None,
              log: Optional[Callable[[str], None]] = None) -> dict:
    """Run every microbenchmark and return the ``BENCH_perf.json`` document.

    ``quick`` shrinks iteration counts for CI smoke runs; ``jobs`` is the
    worker count used by the sweep-speedup benchmark (default 2).
    """
    say = log or (lambda _msg: None)
    jobs = 2 if jobs is None else max(2, jobs)

    say("engine event throughput...")
    events = bench_engine_events(60_000 if quick else 300_000)
    say(f"  {events:,.0f} events/s")

    say("p2p message rate...")
    p2p = bench_p2p_message_rate(100 if quick else 400)
    say(f"  {p2p:,.0f} msgs/s")

    say("allreduce rate...")
    coll = bench_allreduce_rate(20 if quick else 60)
    say(f"  {coll:,.1f} allreduces/s")

    say("checkpoint/restart cycle...")
    cycle = bench_ckpt_restart_cycle(2 if quick else 3)
    say(f"  {cycle:.3f} s")

    say("fig2 end-to-end cell...")
    cell = bench_fig2_cell(3 if quick else 4)
    say(f"  {cell:.3f} s")

    say(f"sequential vs parallel sweep (j{jobs})...")
    sweep = bench_sweep_speedup(jobs)
    say(f"  {sweep['seq_s']:.2f}s -> {sweep['par_s']:.2f}s "
        f"({sweep['speedup']:.2f}x)")

    say("facility workload drain...")
    facility_jobs = 15 if quick else 40
    facility = bench_facility_makespan(facility_jobs)
    say(f"  {facility:.3f} s ({facility_jobs} jobs)")

    say("checkpoint quiesce wait (alg2 vs topo)...")
    qw = bench_ckpt_quiesce_wait(2 if quick else 3)
    say(f"  alg2 {qw['alg2_s'] * 1e3:.2f} ms, topo {qw['topo_s'] * 1e3:.2f} ms")

    say("restart replay vs log length (compacted vs full)...")
    rr = bench_restart_replay_vs_log_len(3 if quick else 6)
    say(f"  compact {rr['compact_base_s'] * 1e3:.2f} -> "
        f"{rr['compact_x10_s'] * 1e3:.2f} ms across 10x churn "
        f"(full {rr['full_ratio']:.1f}x)")

    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
        },
        "metrics": {
            "engine_events_per_s": _metric(events, "events/s", True),
            "p2p_msgs_per_s": _metric(p2p, "msgs/s", True),
            "allreduce_per_s": _metric(coll, "allreduces/s", True),
            "ckpt_restart_cycle_s": _metric(cycle, "s", False),
            "fig2_cell_s": _metric(cell, "s", False),
            "sweep_speedup_j2": _metric(
                sweep["speedup"], "x", True, jobs=jobs,
                seq_s=sweep["seq_s"], par_s=sweep["par_s"],
                # with one CPU the pool cannot overlap work: the ratio is
                # a host property, never a regression signal
                informational=(os.cpu_count() or 1) < 2,
            ),
            "facility_makespan_s": _metric(
                facility, "s", False, n_jobs=facility_jobs,
            ),
            "ckpt_quiesce_wait_s": _metric(
                qw["topo_s"], "s", False,
                alg2_s=qw["alg2_s"], topo_s=qw["topo_s"],
                # simulated time, not wall time: deterministic per seed
                simulated=True,
            ),
            "restart_replay_s_vs_log_len": _metric(
                rr["compact_x10_s"], "s", False,
                compact_base_s=rr["compact_base_s"],
                full_base_s=rr["full_base_s"],
                full_x10_s=rr["full_x10_s"],
                compact_entries_x10=int(rr["compact_x10_entries"]),
                full_entries_x10=int(rr["full_x10_entries"]),
                compact_ratio=rr["compact_ratio"],
                full_ratio=rr["full_ratio"],
                # simulated time, not wall time: deterministic per seed
                simulated=True,
            ),
        },
    }


# ------------------------------------------------------------- validation

def validate_bench_doc(doc: Any) -> None:
    """Validate a ``BENCH_perf.json`` document; raises ``ValueError``.

    The schema is deliberately small: a known schema tag, a host block
    with a positive ``cpu_count``, and ≥ 5 metrics each carrying a finite
    numeric ``value``, a non-empty ``unit`` and a boolean
    ``higher_is_better``.  Every :data:`CORE_METRICS` key must be present.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"bench doc must be an object, got {type(doc).__name__}")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unknown schema {doc.get('schema')!r}; expected {BENCH_SCHEMA!r}"
        )
    host = doc.get("host")
    if not isinstance(host, dict) or not isinstance(host.get("cpu_count"), int) \
            or host["cpu_count"] < 1:
        raise ValueError("host.cpu_count must be a positive integer")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or len(metrics) < 5:
        raise ValueError("metrics must be an object with >= 5 entries")
    for key in CORE_METRICS:
        if key not in metrics:
            raise ValueError(f"missing core metric {key!r}")
    for key, m in metrics.items():
        if not isinstance(m, dict):
            raise ValueError(f"metric {key!r} must be an object")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"metric {key!r}: value must be a finite number")
        if not isinstance(m.get("unit"), str) or not m["unit"]:
            raise ValueError(f"metric {key!r}: unit must be a non-empty string")
        if not isinstance(m.get("higher_is_better"), bool):
            raise ValueError(f"metric {key!r}: higher_is_better must be a bool")


def compare_bench(current: dict, baseline: dict,
                  keys: tuple[str, ...] = THRESHOLDED_KEYS,
                  max_regression: float = 0.30) -> list[str]:
    """Compare ``current`` against ``baseline``; return regression messages.

    A metric regresses when it moves in its *bad* direction (down for
    ``higher_is_better``, up otherwise) by more than ``max_regression``
    (fractional).  Metrics missing from the baseline are skipped — a new
    benchmark must not fail the build that introduces it — and so are
    metrics flagged ``informational`` on either side (values that describe
    the host rather than the code, like pool speedup on a single-core
    runner).  An empty return value means within budget.
    """
    failures = []
    for key in keys:
        cur = current["metrics"].get(key)
        base = baseline["metrics"].get(key)
        if cur is None or base is None or base["value"] == 0:
            continue
        if cur.get("informational") or base.get("informational"):
            continue
        ratio = cur["value"] / base["value"]
        if cur["higher_is_better"]:
            regressed = ratio < 1.0 - max_regression
            direction = "dropped"
        else:
            regressed = ratio > 1.0 + max_regression
            direction = "grew"
        if regressed:
            failures.append(
                f"{key} {direction} beyond the {max_regression:.0%} budget: "
                f"{base['value']:.4g} -> {cur['value']:.4g} "
                f"({ratio:.2f}x, {cur['unit']})"
            )
    return failures


def write_bench_doc(doc: dict, path: str) -> None:
    """Validate and write the document as stable, diff-friendly JSON."""
    validate_bench_doc(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench_doc(path: str) -> dict:
    """Load and validate a ``BENCH_perf.json`` document."""
    with open(path) as fh:
        doc = json.load(fh)
    validate_bench_doc(doc)
    return doc
