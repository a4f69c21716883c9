"""The perf suite produces sane, schema-valid measurements."""

import json

import pytest

from benchmarks.conftest import run_once
from repro.harness import perfbench


@pytest.fixture(scope="module")
def doc():
    return perfbench.run_suite(quick=True)


def test_suite_is_schema_valid(doc):
    perfbench.validate_bench_doc(doc)


def test_suite_round_trips_through_json(doc, tmp_path):
    path = tmp_path / "BENCH_perf.json"
    perfbench.write_bench_doc(doc, str(path))
    loaded = perfbench.load_bench_doc(str(path))
    assert loaded == json.loads(path.read_text())
    assert set(perfbench.CORE_METRICS) <= set(loaded["metrics"])


def test_metric_values_are_plausible(doc):
    m = doc["metrics"]
    # a laptop-class host clears 100k events/s with huge margin; anything
    # below means the kernel hot path broke
    assert m["engine_events_per_s"]["value"] > 100_000
    assert m["p2p_msgs_per_s"]["value"] > 100
    assert m["allreduce_per_s"]["value"] > 10
    assert 0 < m["ckpt_restart_cycle_s"]["value"] < 60
    assert 0 < m["fig2_cell_s"]["value"] < 60
    assert m["sweep_speedup_j2"]["value"] > 0
    assert 0 < m["facility_makespan_s"]["value"] < 120


def test_facility_makespan_benchmark(benchmark):
    wall = run_once(benchmark, perfbench.bench_facility_makespan, 10)
    assert wall < 120


def test_event_throughput_benchmark(benchmark):
    events_per_s = run_once(benchmark, perfbench.bench_engine_events, 60_000)
    assert events_per_s > 100_000


def test_ckpt_restart_cycle_benchmark(benchmark):
    cycle = run_once(benchmark, perfbench.bench_ckpt_restart_cycle, 2)
    assert cycle < 60
