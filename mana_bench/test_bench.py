"""Tests of the benchmark itself (not of ``repro``).

    python3 -m pytest mana_bench/test_bench.py -q

Workload sizes are shrunk so the whole file runs in about a minute; the
shapes (ranks, nodes, fabrics, checkpoints, restarts) stay the same.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import adapter  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WALL_BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")

#: layers each workload is documented to drive (README, "Workloads")
P2P_PATH = ("simtime", "mprog", "runtime", "mana.wrappers",
            "mana.rank_runtime", "mpilib", "net")
LAYER_PATHS = {
    "pingpong": P2P_PATH,
    "halo_ckpt": P2P_PATH + ("mana.coordinator", "mana.checkpoint_image",
                             "hardware.storage"),
    "churn_restart": ("simtime", "mana.wrappers", "mana.virtualize", "mpilib",
                      "mana.coordinator", "mana.record_replay",
                      "mana.log_compaction"),
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "PINGPONG_ITERS", 400)
    monkeypatch.setattr(workloads, "PINGPONG_SHORT", 100)
    monkeypatch.setattr(workloads, "HALO_STEPS", 4)
    monkeypatch.setattr(workloads, "CHURN_STEPS", 40)


def one_pass(workload: str, seed: int = 3):
    return workloads.run_pass(workloads.make_inputs(workload, seed))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_passes_on_seed_code(workload):
    p = one_pass(workload)
    assert p.errors == []
    assert p.failed == 0 and p.attempted > 5
    assert set(p.sim) == {"sim_makespan_s", "sim_overhead_pct",
                          "sim_ckpt_s", "sim_restart_s"}
    assert all(value > 0 for value in p.sim.values())
    assert p.messages > 0


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_inputs("halo_ckpt", 7)
    assert a == workloads.make_inputs("halo_ckpt", 7)
    assert a != workloads.make_inputs("halo_ckpt", 8)
    for (lo, hi), cut in zip(workloads.CUT_WINDOWS["halo_ckpt"], a.cuts):
        assert lo <= cut <= hi


def test_corrupted_restored_value_counts_as_failure(monkeypatch):
    restart = adapter.restart

    def corrupted_restart(ckpt, *args):
        adapter.corrupt_restored_value(ckpt, rank=0, key="checksum", delta=1.0)
        return restart(ckpt, *args)

    monkeypatch.setattr(adapter, "restart", corrupted_restart)
    p = one_pass("halo_ckpt")
    assert p.failed == 1
    assert [e.split(":")[0] for e in p.errors] == ["restart state"]


def test_failed_operation_is_reported_not_raised(monkeypatch):
    def broken(*_args):
        raise RuntimeError("checkpoint protocol stalled")

    monkeypatch.setattr(adapter, "checkpoint_at", broken)
    p = one_pass("churn_restart")
    assert p.failed == 1
    assert "checkpoint protocol stalled" in p.errors[0]
    # the aborted pass still reports every end-to-end metric
    e2e = run.end_to_end([(0.5, p, None)], [], p.attempted, p.failed)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert math.isnan(e2e["sim_ckpt_s"]) and math.isnan(e2e["setup_s"])
    assert e2e["ok_frac"] < 1.0


def test_failed_setup_probe_is_counted_not_raised(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    samples, errors = run.setup_seconds("no-such-workload", 1)
    assert samples == [] and len(errors) == 2


# ------------------------------------------------- count-type predictions

def test_pingpong_bypasses_replay_and_collectives():
    p = one_pass("pingpong")
    assert p.counts["checkpoints"] == 1      # the probe only; hot loop: none
    assert p.replays == [0]
    assert p.counts["collectives"] == 0


def test_halo_ckpt_replays_nothing():
    p = one_pass("halo_ckpt")
    assert p.counts["checkpoints"] == 3
    assert p.replays == [0]


def test_churn_full_log_replays_far_more_than_compacted():
    p = one_pass("churn_restart")
    full, compacted = p.replays
    assert full > 20 * compacted > 0
    assert p.counts["p2p_msgs"] == 0


# -------------------------------------------------------- the traced run

def traced_pass(workload: str):
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        return run.measure(workloads.make_inputs(workload, 3), 0.0, tracer)[0]
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_nothing_simulated(workload):
    untraced = one_pass(workload)
    _wall, traced, _snap = traced_pass(workload)
    assert traced.errors == []
    assert (traced.sim, traced.counts) == (untraced.sim, untraced.counts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_layer_on_the_documented_path_is_charged(workload):
    wall, _p, snap = traced_pass(workload)
    idle = [layer for layer in LAYER_PATHS[workload]
            if not (snap["self_s"][layer] > 0 and snap["calls"][layer] > 0)]
    assert idle == []
    # holds by construction (each interval is charged to exactly one layer);
    # it guards the bookkeeping, while the check above guards attribution
    total = sum(snap["self_s"].values())
    assert abs(total - wall) <= WALL_BOUND * wall


def test_uninstall_restores_the_originals():
    from repro.simtime.engine import Completion, Engine

    before = (Engine.call_at, Completion.on_done, adapter.cori)
    traced_pass("pingpong")
    assert (Engine.call_at, Completion.on_done, adapter.cori) == before


def test_every_executed_repro_function_maps_to_a_layer():
    executed = set()

    def profile(frame, event, _arg):
        if event == "call":
            executed.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        for workload in workloads.WORKLOADS:
            one_pass(workload)
    finally:
        sys.setprofile(None)
    assert any(m.startswith("repro.") for m in executed)
    assert layers.unmapped_modules(executed) == []


# ------------------------------------------------------------ the report

def test_metric_names_match_benchmark_json():
    p = one_pass("pingpong")
    untraced = [(0.5, p, None)]
    e2e = run.end_to_end(untraced, [0.4], p.attempted, p.failed)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert e2e["ok_frac"] == 1.0
    traced = [traced_pass("pingpong")]
    per_layer = run.per_layer(untraced, traced)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "mana_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "mana_bench/run.py", "--workload", "pingpong",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
