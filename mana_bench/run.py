"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 mana_bench/run.py --workload halo_ckpt --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric; with ``--trace 1`` the metrics are the per-layer ones
(see ``mana_bench/README.md``).  The program under test is ``src/repro`` of
the checkout the script lives in; without it the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up probes per run (each a fresh interpreter); the median is reported
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60

#: per-layer counters: metric -> (unit, pass counter or tracer counter)
LAYER_COUNTS = {
    "simtime.events": ("count", "events"),
    "mprog.leaves": ("count", "leaves"),
    "mana.wrappers.fs_switches": ("count", "fs_switches"),
    "mana.rank_runtime.drained_msgs": ("count", "drained"),
    "mana.virtualize.lookups": ("count", "lookups"),
    "mpilib.p2p_msgs": ("count", "p2p_msgs"),
    "mpilib.p2p_bytes": ("bytes", "p2p_bytes"),
    "mpilib.collectives": ("count", "collectives"),
    "net.transmits": ("count", "transmits"),
    "net.bytes": ("bytes", "net_bytes"),
    "mana.coordinator.rounds": ("count", "rounds"),
    "mana.coordinator.sim_quiesce_s": ("sim_s", "sim_quiesce_s"),
    "mana.coordinator.sim_drain_s": ("sim_s", "sim_drain_s"),
    "mana.coordinator.sim_write_s": ("sim_s", "sim_write_s"),
    "mana.checkpoint_image.bytes": ("bytes", "image_bytes"),
    "mana.checkpoint_image.capture_s": ("s", "capture_s"),
    "mana.checkpoint_image.restore_s": ("s", "restore_s"),
    "hardware.storage.sim_write_s": ("sim_s", "storage_write_s"),
    "hardware.storage.sim_read_s": ("sim_s", "storage_read_s"),
    "mana.record_replay.recorded": ("count", "recorded"),
    "mana.record_replay.replayed": ("count", "replayed"),
    "mana.record_replay.sim_replay_s": ("sim_s", "sim_replay_s"),
    "mana.log_compaction.compact_s": ("s", "compact_s"),
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "msgs_per_s": "1/s", "peak_rss_mb": "MB",
    "sim_makespan_s": "sim_s", "sim_overhead_pct": "%", "sim_ckpt_s": "sim_s",
    "sim_restart_s": "sim_s", "ok_frac": "frac",
}


def _import_program() -> None:
    """Put the checkout's ``src`` and this directory on the import path, or
    exit with code 2 if the checkout holds no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"no program to benchmark: {SRC}/repro is missing\n")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]


def _parse(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------------ set-up

def setup_seconds(workload: str, seed: int) -> tuple[list, list]:
    """Host seconds from spawning a fresh interpreter to the first event of
    the workload's first job (imports and job construction), one sample per
    probe that succeeded; plus one error line per probe that failed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples, errors = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.monotonic() - t0
            try:
                proc.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if line.strip() == "ready" and proc.returncode == 0:
            samples.append(elapsed)
        else:
            errors.append(f"set-up probe: no first event (exit {proc.returncode})")
    return samples, errors


# ------------------------------------------------------------- measuring

def measure(inputs, budget_s: float, tracer=None) -> list:
    """Run closed-loop passes until ``budget_s`` host seconds are used (at
    least one); returns ``(wall_s, pass, layer snapshot)`` per pass."""
    from workloads import run_pass

    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < budget_s:
        gc.collect()  # every pass starts from the same, collected heap
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        p = run_pass(inputs)
        wall = time.perf_counter() - t0
        snapshot = None
        if tracer is not None:
            tracer.stop()
            snapshot = {
                "self_s": tracer.layer_self_s(),
                "calls": tracer.layer_calls(),
                "counts": dict(tracer.counts),
                "timers": dict(tracer.timers),
                "sim": dict(tracer.sim),
            }
        out.append((wall, p, snapshot))
    return out


def _outcome(passes) -> tuple[int, int, list]:
    """(attempted, failed, errors) over the passes, plus a determinism
    check: every pass of the same inputs must simulate exactly the same."""
    attempted = sum(p.attempted for _, p, _ in passes)
    failed = sum(p.failed for _, p, _ in passes)
    errors = [e for _, p, _ in passes for e in p.errors]
    first = passes[0][1]
    for _, p, _ in passes[1:]:
        attempted += 1
        if (p.sim, p.counts) != (first.sim, first.counts):
            failed += 1
            errors.append("determinism: a repeated pass simulated differently")
    return attempted, failed, errors


def end_to_end(passes, setup: list, attempted: int, failed: int) -> dict:
    """The end-to-end metrics of an untraced run, from its passes, its
    set-up samples and its operation counts.  A metric that a failure left
    unmeasured (no set-up sample, an aborted first pass) reads NaN."""
    return {
        "setup_s": statistics.median(setup) if setup else math.nan,
        "wall_s": statistics.median(wall for wall, _, _ in passes),
        "msgs_per_s": statistics.median(p.messages / wall
                                        for wall, p, _ in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{name: math.nan for name in END_TO_END_UNITS
           if name.startswith("sim_")},
        **passes[0][1].sim,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced, traced) -> dict:
    """The per-layer metrics of the traced pass with the median wall time."""
    from layers import LAYERS

    wall, p, snap = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    values = {f"{layer}.self_s": snap["self_s"][layer] for layer in LAYERS}
    found = {**p.counts, **snap["counts"], **snap["timers"], **snap["sim"]}
    for name, (_unit, key) in LAYER_COUNTS.items():
        values[name] = found.get(key, 0)
    values["mana.wrappers.calls"] = snap["calls"]["mana.wrappers"]
    counts = snap["counts"]
    values["simtime.cancelled_frac"] = (
        counts["cancelled"] / counts["completions"] if counts["completions"]
        else 0.0)
    examined = p.counts["compact_examined"]
    values["mana.log_compaction.kept_frac"] = (
        p.counts["compact_kept"] / examined if examined else 0.0)
    values["trace.overhead_x"] = wall / statistics.median(
        w for w, _, _ in untraced)
    return values


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in LAYER_COUNTS:
        return LAYER_COUNTS[name][0]
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name == "trace.overhead_x":
        return "x"
    return "count"


def main(argv=None) -> int:
    _import_program()
    args = _parse(argv)
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_probe:
        workloads.source_shape(args.workload).native()
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        setup, setup_errors = setup_seconds(args.workload, args.seed)
        passes = measure(inputs, args.seconds)
        attempted, failed, errors = _outcome(passes)
        attempted += SETUP_PROBES
        failed += len(setup_errors)
        errors += setup_errors
        values = end_to_end(passes, setup, attempted, failed)
        units = END_TO_END_UNITS
    else:
        from layers import LayerTracer

        passes = measure(inputs, args.seconds / 2)
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = measure(inputs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        values = per_layer(passes, traced)
        units = {name: layer_unit(name) for name in values}
        # tracing must not change what is simulated
        passes += [(wall, p, None) for wall, p, _ in traced]
        attempted, failed, errors = _outcome(passes)

    for line in errors:
        sys.stderr.write(f"FAILED {line}\n")
    for name, value in values.items():
        print(f"{args.workload:>14} {name:<36} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
