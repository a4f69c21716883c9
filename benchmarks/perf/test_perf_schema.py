"""Schema validation and regression comparison for BENCH_perf.json docs."""

import copy

import pytest

from repro.harness.perfbench import (
    BENCH_SCHEMA,
    CORE_METRICS,
    compare_bench,
    validate_bench_doc,
)


def _valid_doc(events=500_000.0):
    metrics = {
        "engine_events_per_s": {"value": events, "unit": "events/s",
                                "higher_is_better": True},
        "p2p_msgs_per_s": {"value": 9000.0, "unit": "msgs/s",
                           "higher_is_better": True},
        "allreduce_per_s": {"value": 4000.0, "unit": "allreduces/s",
                            "higher_is_better": True},
        "ckpt_restart_cycle_s": {"value": 0.02, "unit": "s",
                                 "higher_is_better": False},
        "fig2_cell_s": {"value": 0.01, "unit": "s",
                        "higher_is_better": False},
        "sweep_speedup_j2": {"value": 1.0, "unit": "x",
                             "higher_is_better": True},
        "facility_makespan_s": {"value": 0.5, "unit": "s",
                                "higher_is_better": False},
        "ckpt_quiesce_wait_s": {"value": 0.0017, "unit": "s",
                                "higher_is_better": False,
                                "alg2_s": 0.0034, "topo_s": 0.0017,
                                "simulated": True},
        "restart_replay_s_vs_log_len": {"value": 0.0002, "unit": "s",
                                        "higher_is_better": False,
                                        "simulated": True},
    }
    return {"schema": BENCH_SCHEMA, "quick": False,
            "host": {"cpu_count": 4, "python": "3.11.0"},
            "metrics": metrics}


def test_valid_doc_passes():
    validate_bench_doc(_valid_doc())


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(schema="bogus/9"), "schema"),
    (lambda d: d.pop("host"), "cpu_count"),
    (lambda d: d["host"].update(cpu_count=0), "cpu_count"),
    (lambda d: d.pop("metrics"), "metrics"),
    (lambda d: d["metrics"].pop("engine_events_per_s"), "core metric"),
    (lambda d: d["metrics"].pop("p2p_msgs_per_s"), "core metric"),
    (lambda d: d["metrics"].pop("facility_makespan_s"), "core metric"),
    (lambda d: d["metrics"]["fig2_cell_s"].update(value="fast"), "finite"),
    (lambda d: d["metrics"]["fig2_cell_s"].update(value=float("nan")), "finite"),
    (lambda d: d["metrics"]["fig2_cell_s"].update(value=float("inf")), "finite"),
    (lambda d: d["metrics"]["fig2_cell_s"].update(unit=""), "unit"),
    (lambda d: d["metrics"]["fig2_cell_s"].update(higher_is_better=1),
     "higher_is_better"),
])
def test_invalid_docs_rejected(mutate, msg):
    doc = _valid_doc()
    mutate(doc)
    with pytest.raises(ValueError, match=msg):
        validate_bench_doc(doc)


def test_five_metric_floor():
    doc = _valid_doc()
    doc["metrics"] = dict(list(doc["metrics"].items())[:4])
    with pytest.raises(ValueError, match=">= 5"):
        validate_bench_doc(doc)


class TestCompare:
    def test_within_budget_passes(self):
        base = _valid_doc(events=500_000.0)
        cur = _valid_doc(events=400_000.0)  # -20% < 30% budget
        assert compare_bench(cur, base) == []

    def test_throughput_regression_fails(self):
        base = _valid_doc(events=500_000.0)
        cur = _valid_doc(events=300_000.0)  # -40%
        failures = compare_bench(cur, base)
        assert len(failures) == 1
        assert "engine_events_per_s" in failures[0]

    def test_lower_is_better_direction(self):
        base = _valid_doc()
        cur = copy.deepcopy(base)
        cur["metrics"]["ckpt_restart_cycle_s"]["value"] = 0.05  # 2.5x slower
        failures = compare_bench(cur, base, keys=("ckpt_restart_cycle_s",))
        assert failures and "grew" in failures[0]

    def test_improvement_never_fails(self):
        base = _valid_doc(events=500_000.0)
        cur = _valid_doc(events=5_000_000.0)
        assert compare_bench(cur, base, keys=tuple(CORE_METRICS)) == []

    def test_new_metric_missing_from_baseline_is_skipped(self):
        base = _valid_doc()
        cur = _valid_doc()
        assert compare_bench(cur, base, keys=("brand_new_metric",)) == []

    def test_default_keys_threshold_sweep_speedup(self):
        """Without the informational flag (≥2-core hosts), the sweep
        speedup is enforced by the *default* key set."""
        base = _valid_doc()
        cur = _valid_doc()
        cur["metrics"]["sweep_speedup_j2"]["value"] *= 0.5
        failures = compare_bench(cur, base)
        assert failures and "sweep_speedup_j2" in failures[0]
