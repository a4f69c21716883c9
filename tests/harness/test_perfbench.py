"""perfbench document handling: validation, regression math, and the
single-core gate on host-property metrics."""

import pytest

from repro.harness.perfbench import (
    BENCH_SCHEMA,
    CORE_METRICS,
    compare_bench,
    validate_bench_doc,
)


def _doc(**overrides):
    metrics = {
        "engine_events_per_s": {"value": 1000.0, "unit": "events/s",
                                "higher_is_better": True},
        "p2p_msgs_per_s": {"value": 100.0, "unit": "msgs/s",
                           "higher_is_better": True},
        "allreduce_per_s": {"value": 50.0, "unit": "allreduces/s",
                            "higher_is_better": True},
        "ckpt_restart_cycle_s": {"value": 0.5, "unit": "s",
                                 "higher_is_better": False},
        "fig2_cell_s": {"value": 0.1, "unit": "s",
                        "higher_is_better": False},
        "sweep_speedup_j2": {"value": 0.85, "unit": "x",
                             "higher_is_better": True,
                             "informational": True},
        "facility_makespan_s": {"value": 0.5, "unit": "s",
                                "higher_is_better": False},
        "ckpt_quiesce_wait_s": {"value": 0.0017, "unit": "s",
                                "higher_is_better": False,
                                "alg2_s": 0.0034, "topo_s": 0.0017,
                                "simulated": True},
        "restart_replay_s_vs_log_len": {"value": 0.0002, "unit": "s",
                                        "higher_is_better": False,
                                        "compact_base_s": 0.0002,
                                        "full_base_s": 0.001,
                                        "full_x10_s": 0.01,
                                        "compact_ratio": 1.0,
                                        "full_ratio": 10.0,
                                        "simulated": True},
    }
    for key, m in overrides.items():
        metrics[key] = {**metrics[key], **m}
    return {
        "schema": BENCH_SCHEMA,
        "quick": True,
        "host": {"cpu_count": 1, "python": "3.11"},
        "metrics": metrics,
    }


def test_valid_doc_passes_and_covers_core_metrics():
    doc = _doc()
    validate_bench_doc(doc)
    assert set(CORE_METRICS) <= set(doc["metrics"])
    # older documents that still carry a retired metric or host field
    # validate under the same schema tag
    doc["host"]["retired_field"] = 2
    doc["metrics"]["retired_metric"] = {
        "value": 900.0, "unit": "events/s", "higher_is_better": True}
    validate_bench_doc(doc)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(schema="other/9"),
    lambda d: d["host"].update(cpu_count=0),
    lambda d: d["metrics"].pop("sweep_speedup_j2"),
    lambda d: d["metrics"].pop("p2p_msgs_per_s"),
    lambda d: d["metrics"].pop("ckpt_quiesce_wait_s"),
    lambda d: d["metrics"].pop("restart_replay_s_vs_log_len"),
    lambda d: d["metrics"]["fig2_cell_s"].update(value=float("nan")),
    lambda d: d["metrics"]["fig2_cell_s"].update(unit=""),
])
def test_invalid_docs_rejected(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ValueError):
        validate_bench_doc(doc)


def test_regression_detected_in_both_directions():
    base = _doc()
    slow = _doc(engine_events_per_s={"value": 500.0})  # throughput halved
    assert compare_bench(slow, base)
    bloat = _doc(fig2_cell_s={"value": 0.2})  # wall time doubled
    assert compare_bench(bloat, base, keys=("fig2_cell_s",))
    assert compare_bench(base, base, keys=CORE_METRICS) == []


def test_within_budget_change_passes():
    base = _doc()
    ok = _doc(engine_events_per_s={"value": 800.0})  # -20% < 30% budget
    assert compare_bench(ok, base) == []


def test_informational_metrics_are_never_thresholded():
    """A single-core host's pool 'speedup' is a host property: even a
    collapse to 0.1x must not fail the perf gate, whichever side carries
    the flag."""
    base = _doc()
    crashed = _doc(sweep_speedup_j2={"value": 0.1})
    assert compare_bench(crashed, base, keys=("sweep_speedup_j2",)) == []

    multi_base = _doc(sweep_speedup_j2={"informational": False,
                                        "value": 1.8})
    assert compare_bench(crashed, multi_base,
                         keys=("sweep_speedup_j2",)) == []
    # ...but with the flag off on both sides it is a real regression
    multi_cur = _doc(sweep_speedup_j2={"informational": False,
                                       "value": 0.9})
    assert compare_bench(multi_cur, multi_base, keys=("sweep_speedup_j2",))


def test_run_suite_flags_speedup_on_single_core_hosts(monkeypatch):
    """The emitted document must carry the gate, derived from the host."""
    import repro.harness.perfbench as pb

    monkeypatch.setattr(pb.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(pb, "bench_engine_events", lambda *a, **k: 1e6)
    monkeypatch.setattr(pb, "bench_p2p_message_rate", lambda *a, **k: 1e4)
    monkeypatch.setattr(pb, "bench_allreduce_rate", lambda *a, **k: 1e3)
    monkeypatch.setattr(pb, "bench_ckpt_restart_cycle", lambda *a, **k: 0.02)
    monkeypatch.setattr(pb, "bench_fig2_cell", lambda *a, **k: 0.01)
    monkeypatch.setattr(
        pb, "bench_sweep_speedup",
        lambda jobs: {"seq_s": 1.0, "par_s": 1.2, "speedup": 1 / 1.2},
    )
    monkeypatch.setattr(
        pb, "bench_restart_replay_vs_log_len",
        lambda *a, **k: {
            "compact_base_s": 2e-4, "compact_x10_s": 2e-4,
            "full_base_s": 1e-3, "full_x10_s": 1e-2,
            "compact_base_entries": 8.0, "compact_x10_entries": 8.0,
            "full_base_entries": 100.0, "full_x10_entries": 1000.0,
            "compact_ratio": 1.0, "full_ratio": 10.0,
        },
    )
    doc = pb.run_suite(quick=True)
    validate_bench_doc(doc)
    assert doc["metrics"]["sweep_speedup_j2"]["informational"] is True

    monkeypatch.setattr(pb.os, "cpu_count", lambda: 8)
    doc = pb.run_suite(quick=True)
    assert doc["metrics"]["sweep_speedup_j2"]["informational"] is False


def test_default_threshold_keys_cover_parallel_metrics():
    """compare_bench enforces engine throughput and sweep scaling by
    default; the parallel sweep opts out only via the per-host
    informational flag."""
    from repro.harness.perfbench import THRESHOLDED_KEYS

    assert THRESHOLDED_KEYS == ("engine_events_per_s", "sweep_speedup_j2")
    base = _doc()
    cur = _doc(engine_events_per_s={"value": 500.0})  # halved, default keys
    assert compare_bench(cur, base)
    # the sweep carries informational=True in the single-core doc:
    # collapsing it must not trip the default gate
    quiet = _doc(sweep_speedup_j2={"value": 0.1})
    assert compare_bench(quiet, base) == []
    # ...but on a multi-core doc (flag off both sides) the sweep
    # regression is caught without naming any keys explicitly
    fast = _doc(sweep_speedup_j2={"informational": False, "value": 1.8})
    slow = _doc(sweep_speedup_j2={"informational": False, "value": 0.9})
    failures = compare_bench(slow, fast)
    assert failures and "sweep_speedup_j2" in failures[0]


def test_restart_replay_bench_flat_under_compaction():
    """The acceptance criterion behind the metric: across 10x communicator
    churn the full log's replay grows with call history while the
    compacted restart stays O(live handles) — same entry count, flat
    simulated replay time (both deterministic)."""
    from repro.harness.perfbench import bench_restart_replay_vs_log_len

    rr = bench_restart_replay_vs_log_len(n_steps=3)
    assert rr["full_x10_entries"] >= 5 * rr["full_base_entries"]
    assert rr["compact_x10_entries"] == rr["compact_base_entries"]
    assert rr["compact_ratio"] <= 1.5
    assert rr["full_ratio"] >= 3.0
    assert rr["compact_x10_s"] < rr["full_x10_s"]


def test_quiesce_wait_bench_topo_at_most_alg2():
    """The acceptance criterion behind the metric: topo <= alg2 on the
    collective-heavy slice, both deterministic simulated times."""
    from repro.harness.perfbench import bench_ckpt_quiesce_wait

    qw = bench_ckpt_quiesce_wait(n_steps=2)
    assert 0 < qw["topo_s"] <= qw["alg2_s"]
