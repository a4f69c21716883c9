"""Command-line interface: ``python -m repro <command>``.

The operational surface of the reproduction, mirroring how MANA is driven
in production (``mana_launch`` / ``mana_restart`` / coordinator status):

* ``repro apps`` — list the available workload applications;
* ``repro run`` — run an app natively or under MANA on a synthetic cluster,
  optionally cutting a checkpoint to disk mid-run;
* ``repro restart`` — restart a saved checkpoint on a (possibly different)
  cluster, MPI implementation, interconnect and rank layout;
* ``repro inspect`` — describe a saved checkpoint directory;
* ``repro verify`` — model-check the two-phase protocol (§2.6);
* ``repro bench`` — regenerate one of the paper's figures;
* ``repro conformance`` — differential restart conformance across the
  (MPI implementation × fabric × ranks-per-node) matrix with fuzzed
  checkpoint times;
* ``repro trace`` — run an app or example with structured tracing on and
  write a Chrome trace-event JSON (loadable in Perfetto / chrome://tracing);
* ``repro facility`` — host a whole queued workload on one shared cluster:
  preemptive scheduling via induced checkpoints, shared-Lustre contention,
  crash-requeue, and the facility operations report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.net import INTERCONNECTS
from repro.mpilib.impls import IMPLEMENTATIONS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MANA for MPI (HPDC'19), reproduced on a simulated "
                    "HPC substrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list available workload applications")

    run = sub.add_parser("run", help="run an application")
    _cluster_args(run)
    run.add_argument("--app", required=True, help="application name")
    run.add_argument("--ranks", type=int, default=8)
    run.add_argument("--steps", type=int, default=None,
                     help="override the app's step count")
    run.add_argument("--native", action="store_true",
                     help="run without MANA (baseline)")
    run.add_argument("--checkpoint-at", type=float, default=None,
                     metavar="T", help="cut a checkpoint at virtual time T")
    _job_option_args(run)
    run.add_argument("--out", default=None, metavar="DIR",
                     help="directory to save the checkpoint to")

    rst = sub.add_parser("restart", help="restart a saved checkpoint")
    _cluster_args(rst)
    rst.add_argument("--ckpt", required=True, metavar="DIR")
    rst.add_argument("--app", required=True,
                     help="application name (the program text)")
    rst.add_argument("--steps", type=int, default=None)
    rst.add_argument("--ranks-per-node", type=int, default=None)

    ins = sub.add_parser("inspect", help="describe a saved checkpoint")
    ins.add_argument("--ckpt", required=True, metavar="DIR")

    ver = sub.add_parser("verify", help="model-check the two-phase protocol")
    ver.add_argument("--ranks", type=int, default=3)
    ver.add_argument("--iters", type=int, default=2)
    ver.add_argument("--model", default="alg2",
                     choices=["alg2", "topo"],
                     help="which protocol's state space to explore "
                          "(alg2: two-phase; topo: topological-sort)")
    ver.add_argument("--naive", action="store_true",
                     help="check the strawman protocol instead (finds the "
                          "violation)")

    bench = sub.add_parser(
        "bench",
        help="regenerate a figure of the paper, or (without --figure) run "
             "the wall-clock perf suite and write BENCH_perf.json",
    )
    bench.add_argument("--figure", default=None,
                       choices=["fig2", "fig3", "fig4", "fig5", "fig6",
                                "fig7", "fig8", "fig9", "mem",
                                "resilience", "ablation"])
    bench.add_argument("--scale", default="small",
                       choices=["small", "medium", "paper"])
    bench.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                       help="worker processes for sweep cells (default: "
                            "CPU count; 1 = in-process)")
    bench.add_argument("--quick", action="store_true",
                       help="perf suite only: shrink iteration counts "
                            "(CI smoke mode)")
    bench.add_argument("--out", default="BENCH_perf.json", metavar="FILE",
                       help="perf suite only: output path "
                            "(default: BENCH_perf.json)")
    bench.add_argument("--check-against", default=None, metavar="FILE",
                       help="perf suite only: fail if event throughput "
                            "regresses >30%% vs this baseline document")

    conf = sub.add_parser(
        "conformance",
        help="cross-matrix restart conformance: golden runs, fuzzed "
             "checkpoints, restarts onto every other (MPI × fabric × "
             "ranks-per-node) cell, equivalence oracles",
    )
    tier = conf.add_mutually_exclusive_group()
    tier.add_argument("--quick", dest="tier", action="store_const",
                      const="quick",
                      help="the CI smoke matrix: 2 impls × 2 fabrics × "
                           "2 layouts (default)")
    tier.add_argument("--full", dest="tier", action="store_const",
                      const="full",
                      help="every implementation × every inter-node fabric "
                           "× 3 layouts")
    conf.set_defaults(tier="quick")
    conf.add_argument("--seed", type=int, default=0,
                      help="root seed of the checkpoint-time fuzzer")
    conf.add_argument("--apps", default=None, metavar="A,B",
                      help="comma-separated app names (default: "
                           "gromacs,hpcg,lulesh,commchurn)")
    conf.add_argument("--ranks", type=int, default=4)
    conf.add_argument("--steps", type=int, default=4)
    conf.add_argument("--sources", type=int, default=2, metavar="N",
                      help="checkpoint-origin cells, spread over the matrix")
    conf.add_argument("--ckpts-per-source", type=int, default=1, metavar="K",
                      help="fuzzed checkpoint times per source cell")
    conf.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                      help="worker processes for matrix cells "
                           "(1 = in-process)")
    conf.add_argument("--only", default=None, metavar="SRC->DST",
                      help="run a single src-label->dst-label pair, any "
                           "matrix cell as the source (the syntax "
                           "divergence repro lines use)")
    conf.add_argument("--protocol", default="alg2",
                      choices=["alg2", "topo", "both", "alternate"],
                      help="checkpoint protocol axis; 'both' runs every "
                           "cycle under each engine and cross-checks the "
                           "restart fingerprints between them; 'alternate' "
                           "cuts chained cycles under alg2 then topo")
    conf.add_argument("--compact", default="off",
                      choices=["off", "on", "both"],
                      help="checkpoint-time log-compaction axis; 'both' "
                           "runs every cycle with and without compaction "
                           "and cross-checks the restart fingerprints "
                           "(the compaction differential)")
    conf.add_argument("--report", default=None, metavar="FILE",
                      help="also write the full cycle-by-cycle report as "
                           "JSON (the scheduled-CI artifact)")

    fac = sub.add_parser(
        "facility",
        help="multi-tenant checkpoint facility: queue a job mix on one "
             "shared cluster, preempt via induced checkpoints, report "
             "node-hours lost / queue waits / checkpoint traffic",
    )
    fac.add_argument("--policy", default="fifo",
                     choices=["backfill", "fifo"])
    fac.add_argument("--mix", default="tiny",
                     choices=["tiny", "mixed", "priority"])
    fac.add_argument("--n-jobs", type=int, default=40, metavar="N",
                     help="jobs in the generated workload (default: 40)")
    fac.add_argument("--nodes", type=int, default=8)
    fac.add_argument("--cores-per-node", type=int, default=16)
    fac.add_argument("--net", default="aries",
                     choices=sorted(INTERCONNECTS))
    fac.add_argument("--mpi", default=None, choices=list(IMPLEMENTATIONS))
    fac.add_argument("--seed", type=int, default=0,
                     help="workload + straggler seed (runs are "
                          "deterministic per seed)")
    _job_option_args(fac)
    fac.add_argument("--ckpt-interval", type=float, default=None,
                     metavar="T", help="periodic checkpoint interval in "
                                       "virtual seconds (default: off)")
    fac.add_argument("--sweep", action="store_true",
                     help="run the full policy x mix sweep instead of a "
                          "single facility")
    fac.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                     help="sweep only: worker processes for sweep cells "
                          "(1 = in-process)")
    fac.add_argument("--show-jobs", type=int, default=None, metavar="N",
                     help="also print the first N per-job rows")
    fac.add_argument("--json", default=None, metavar="FILE",
                     help="write the aggregate report as JSON")

    trace = sub.add_parser(
        "trace",
        help="run a workload with tracing enabled and write a Chrome trace",
    )
    trace.add_argument("target",
                       help="an application name (see `repro apps`) or the "
                            "path of an examples/*.py script")
    _cluster_args(trace)
    trace.add_argument("--ranks", type=int, default=8)
    trace.add_argument("--steps", type=int, default=None,
                       help="override the app's step count")
    trace.add_argument("--checkpoint-at", type=float, default=None,
                       metavar="T", help="cut a checkpoint at virtual time T "
                                         "(app targets only)")
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="trace output path (default: trace.json)")
    trace.add_argument("--engine-events", action="store_true",
                       help="also record per-dispatch engine spans "
                            "(high volume)")
    trace.add_argument("--metrics", action="store_true",
                       help="print the flat metrics table after the run")
    return parser


def _job_option_args(p: argparse.ArgumentParser) -> None:
    """``--protocol`` / ``--compact``: the job's JobOptions, which its
    checkpoints carry and its restarts inherit."""
    from repro.mana.protocol import PROTOCOLS

    p.add_argument("--protocol", choices=PROTOCOLS,
                   help="checkpoint protocol engine (docs/protocols.md)")
    p.add_argument("--compact", action="store_true",
                   help="compact the record-replay log at checkpoint time "
                        "(docs/record_replay.md)")


def _cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--cores-per-node", type=int, default=32)
    p.add_argument("--net", default="aries", choices=sorted(INTERCONNECTS))
    p.add_argument("--mpi", default=None, choices=list(IMPLEMENTATIONS))
    p.add_argument("--patched-kernel", action="store_true",
                   help="model the FSGSBASE-patched Linux kernel")


def _make_cluster(args):
    from repro.hardware.cluster import make_cluster
    from repro.hardware.kernelmodel import PATCHED, UNPATCHED

    return make_cluster(
        "cli", args.nodes, cores_per_node=args.cores_per_node,
        interconnect=args.net,
        kernel=PATCHED if args.patched_kernel else UNPATCHED,
        default_mpi=args.mpi or "mpich",
    )


def _app_factory(name: str, steps: Optional[int]):
    from repro.apps import get_app

    spec = get_app(name)
    cfg = spec.default_config
    if steps is not None:
        cfg = cfg.scaled(n_steps=steps)
    return spec, cfg, spec.build(cfg)


# ------------------------------------------------------------------ commands

def cmd_apps(_args, out) -> int:
    """``repro apps``: list workloads."""
    from repro.apps import APP_REGISTRY

    for name in sorted(APP_REGISTRY):
        spec = APP_REGISTRY[name]
        cfg = spec.default_config
        print(f"{name:10s} steps={cfg.n_steps:<4d} "
              f"mem/rank={cfg.mem_bytes >> 20} MB "
              f"compute/step={cfg.compute_per_step * 1e3:.2f} ms", file=out)
    return 0


def cmd_run(args, out) -> int:
    """``repro run``: run an application (optionally checkpointing)."""
    from repro.harness.experiments import _launch_mana_app, _run_native
    from repro.mana.protocol import JobOptions
    from repro.mana.storage import save_checkpoint

    spec, cfg, factory = _app_factory(args.app, args.steps)
    n_ranks = spec.valid_ranks(args.ranks)
    if n_ranks != args.ranks:
        print(f"note: {args.app} requires rank counts of a specific shape; "
              f"running {n_ranks} ranks", file=out)
    cluster = _make_cluster(args)
    rpn = -(-n_ranks // args.nodes)

    if args.native:
        elapsed = _run_native(cluster, spec, cfg, n_ranks, rpn)
        print(f"native run: {n_ranks} ranks, {elapsed:.4f} simulated s",
              file=out)
        return 0

    options = JobOptions().override(protocol=args.protocol,
                                    compact=args.compact)
    job = _launch_mana_app(cluster, spec, cfg, n_ranks, rpn, options)
    if args.checkpoint_at is not None:
        ckpt, report = job.checkpoint_at(args.checkpoint_at)
        print(f"checkpoint at t={args.checkpoint_at}: "
              f"{report.total_time:.3f} s "
              f"(drain {report.drain_time * 1e3:.2f} ms, "
              f"write {report.write_time:.3f} s, rounds {report.rounds}), "
              f"{ckpt.total_bytes / (1 << 30):.2f} GB", file=out)
        if args.out:
            path = save_checkpoint(ckpt, args.out)
            print(f"saved to {path.parent}", file=out)
    elapsed = job.run_to_completion()
    total = job.engine.now
    print(f"MANA run: {n_ranks} ranks over {args.nodes} nodes "
          f"({job.world.impl.name}/{job.world.fabric.name}), "
          f"{total:.4f} simulated s", file=out)
    return 0


def cmd_restart(args, out) -> int:
    """``repro restart``: restart a saved checkpoint."""
    from repro.mana import restart
    from repro.mana.storage import load_checkpoint

    _spec, _cfg, factory = _app_factory(args.app, args.steps)
    ckpt = load_checkpoint(args.ckpt)
    cluster = _make_cluster(args)
    job = restart(ckpt, cluster, factory, mpi=args.mpi,
                  ranks_per_node=args.ranks_per_node)
    job.run_to_completion()
    rep = job.restart_report
    print(f"restarted {ckpt.n_ranks} ranks from {args.ckpt} on "
          f"{args.nodes} nodes ({job.world.impl.name}/{job.world.fabric.name})",
          file=out)
    print(f"restart: {rep.total_time:.3f} s (read {rep.read_time:.3f} s, "
          f"replay {rep.replay_time:.4f} s, {rep.replayed_entries} entries"
          + (f" + {rep.restored_bindings} snapshot bindings"
             if rep.restored_bindings else "")
          + f"); run finished at {job.engine.now:.4f} s", file=out)
    return 0


def cmd_inspect(args, out) -> int:
    """``repro inspect``: describe a checkpoint directory."""
    from repro.mana.storage import describe_checkpoint

    info = describe_checkpoint(args.ckpt)
    print(json.dumps(info, indent=2, default=str), file=out)
    return 0


def cmd_verify(args, out) -> int:
    """``repro verify``: model-check the protocol."""
    from repro.modelcheck import (
        ModelChecker,
        NaiveModel,
        TopoSortModel,
        TwoPhaseModel,
    )

    if args.naive:
        cls = NaiveModel
    elif args.model == "topo":
        cls = TopoSortModel
    else:
        cls = TwoPhaseModel
    model = cls(n_ranks=args.ranks, n_iters=args.iters)
    result = ModelChecker(model).run(check_liveness=not args.naive)
    print(result, file=out)
    if not result.ok:
        print("counterexample trace:", file=out)
        for step in result.trace:
            print(f"  {step}", file=out)
    # the naive model is *supposed* to fail; exit 0 when the outcome matches
    expected_ok = not args.naive
    return 0 if result.ok == expected_ok else 1


def cmd_bench(args, out) -> int:
    """``repro bench``: regenerate one figure, or run the perf suite.

    With ``--figure`` the named sweep is regenerated (``--jobs`` fans its
    cells over a process pool).  Without it, the wall-clock performance
    suite runs and writes a schema-validated ``BENCH_perf.json``; with
    ``--check-against BASELINE`` the run fails (exit 1) if event throughput
    regressed more than 30% against the baseline document.
    """
    if args.figure is None:
        return _cmd_bench_perf(args, out)

    from repro import harness
    from repro.harness import render_table

    scale, jobs = args.scale, args.jobs
    runners = {
        "fig2": lambda: harness.fig2_single_node_overhead(scale=scale,
                                                          jobs=jobs),
        "fig3": lambda: harness.fig3_multi_node_overhead(scale=scale,
                                                         jobs=jobs),
        "fig4": lambda: harness.fig4_bandwidth_kernel_patch(scale=scale,
                                                            jobs=jobs),
        "fig5": lambda: harness.fig5_osu_latency(scale=scale, jobs=jobs),
        "fig6": lambda: harness.fig6_checkpoint_time(scale=scale, jobs=jobs),
        "fig7": lambda: harness.fig7_restart_time(scale=scale, jobs=jobs),
        "fig8": lambda: harness.fig8_ckpt_breakdown(scale=scale, jobs=jobs),
        "fig9": harness.fig9_cross_cluster_migration,
        "mem": lambda: harness.memory_overhead_analysis(scale=scale,
                                                        jobs=jobs),
        "resilience": lambda: harness.resilience_efficiency_sweep(jobs=jobs),
        "ablation": lambda: harness.ablation_two_phase_cost(jobs=jobs),
    }
    print(render_table(runners[args.figure]()), file=out)
    return 0


def _cmd_bench_perf(args, out) -> int:
    """The perf-suite leg of ``repro bench`` (no ``--figure``)."""
    from repro.harness.perfbench import (
        compare_bench,
        load_bench_doc,
        run_suite,
        write_bench_doc,
    )

    doc = run_suite(quick=args.quick, jobs=args.jobs,
                    log=lambda msg: print(msg, file=out))
    write_bench_doc(doc, args.out)
    print(f"wrote {args.out} ({len(doc['metrics'])} metrics, "
          f"schema {doc['schema']})", file=out)

    if args.check_against:
        baseline = load_bench_doc(args.check_against)
        failures = compare_bench(doc, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=out)
            return 1
        print(f"perf check vs {args.check_against}: within budget", file=out)
    return 0


def cmd_conformance(args, out) -> int:
    """``repro conformance``: the cross-matrix restart conformance sweep.

    Exit code 0 only when every cycle passed every oracle; any divergence
    prints with a one-line repro recipe and exits 1.
    """
    from repro.conformance import run_conformance

    apps = tuple(a for a in (args.apps or "").split(",") if a) or None
    report = run_conformance(
        tier=args.tier, seed=args.seed, apps=apps,
        n_ranks=args.ranks, n_steps=args.steps,
        n_sources=args.sources, ckpts_per_source=args.ckpts_per_source,
        jobs=args.jobs, only=args.only, protocol=args.protocol,
        compact=args.compact,
    )
    print(report.summary(), file=out)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report.as_dict(), f, indent=2, sort_keys=True)
        print(f"wrote {args.report}", file=out)
    return 0 if report.ok else 1


def cmd_facility(args, out) -> int:
    """``repro facility``: run a queued workload through the facility.

    One facility per invocation (or, with ``--sweep``, every policy × mix
    cell in parallel).  Exit code 0 when every job completed; 1 if any job
    was unschedulable.
    """
    from repro.facility import Facility, facility_sweep, generate_jobs
    from repro.harness import render_table
    from repro.hardware.cluster import make_cluster

    if args.sweep:
        table = facility_sweep(
            n_jobs=args.n_jobs, n_nodes=args.nodes, seed=args.seed,
            ckpt_interval=args.ckpt_interval, jobs=args.jobs,
        )
        print(render_table(table), file=out)
        return 0

    cluster = make_cluster(
        "facility-cli", args.nodes, cores_per_node=args.cores_per_node,
        interconnect=args.net, default_mpi=args.mpi or "craympich",
    )
    fac = Facility(cluster, scheduler=args.policy, seed=args.seed,
                   checkpoint_interval=args.ckpt_interval,
                   protocol=args.protocol, compact=args.compact)
    fac.submit_all(generate_jobs(args.mix, args.n_jobs, seed=args.seed))
    rep = fac.run()
    print(rep.summary(), file=out)
    if args.show_jobs:
        print(file=out)
        print(render_table(rep.job_table(limit=args.show_jobs)), file=out)
    if args.json:
        with open(args.json, "w") as f:
            f.write(rep.to_json())
        print(f"wrote {args.json}", file=out)
    return 0 if rep.failed_jobs == 0 else 1


def cmd_trace(args, out) -> int:
    """``repro trace``: run a workload with tracing on, write a Chrome trace.

    The target is either an application name (run under MANA exactly like
    ``repro run``) or the path of a Python example script, executed with
    process-wide tracing enabled so every engine it creates is captured.
    """
    import contextlib
    import runpy

    from repro.obs import (
        Category,
        disable_tracing,
        drain_tracers,
        enable_tracing,
        metrics_table,
        write_chrome_trace,
    )

    categories = None if args.engine_events else Category.DEFAULT
    enable_tracing(categories)
    try:
        if args.target.endswith(".py"):
            label = args.target.rsplit("/", 1)[-1].removesuffix(".py")
            with contextlib.redirect_stdout(out):
                runpy.run_path(args.target, run_name="__main__")
        else:
            from repro.harness.experiments import _launch_mana_app

            label = args.target
            spec, cfg, _factory = _app_factory(args.target, args.steps)
            n_ranks = spec.valid_ranks(args.ranks)
            cluster = _make_cluster(args)
            job = _launch_mana_app(cluster, spec, cfg, n_ranks,
                                   -(-n_ranks // args.nodes))
            if args.checkpoint_at is not None:
                job.checkpoint_at(args.checkpoint_at)
            job.run_to_completion()
    finally:
        tracers = drain_tracers()
        disable_tracing()

    doc = write_chrome_trace(args.out, tracers, label=label)
    n_events = sum(len(t.events) for t in tracers)
    dropped = sum(t.dropped for t in tracers)
    print(f"trace: {len(tracers)} engine(s), {n_events} events"
          + (f" ({dropped} dropped)" if dropped else "")
          + f", {len(doc['traceEvents'])} trace entries -> {args.out}",
          file=out)
    print("open it at https://ui.perfetto.dev (or chrome://tracing)",
          file=out)
    if args.metrics:
        for i, tracer in enumerate(tracers, start=1):
            print(file=out)
            print(metrics_table(tracer.engine.metrics,
                                title=f"metrics: engine-{i}"), file=out)
    return 0


_COMMANDS = {
    "apps": cmd_apps,
    "run": cmd_run,
    "restart": cmd_restart,
    "inspect": cmd_inspect,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "conformance": cmd_conformance,
    "facility": cmd_facility,
    "trace": cmd_trace,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code (2, with a one-line
    message on stderr, for a checkpoint that cannot be saved, loaded or
    replayed)."""
    from repro.mana.checkpoint_image import CheckpointError
    from repro.mana.record_replay import ReplayError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](
            args, out if out is not None else sys.stdout)
    except (CheckpointError, ReplayError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
