"""Parallel sweep execution: determinism, crash surfacing, memoization.

The contract mirrors the obs A/B determinism suite: running a sweep with
``jobs=4`` must be *invisible* in the output — every figure/ablation/
resilience runner produces byte-identical tables (rows, notes, rendering)
to its ``jobs=1`` in-process execution; only the wall-clock may differ.
"""

import pytest

from repro.harness import render_table
from repro.harness import experiments as ex
from repro.harness.parallel import (
    CellError,
    SweepCell,
    clear_memo,
    memo,
    memo_stats,
    run_cells,
)

# ----------------------------------------------------------- cell plumbing


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"cell exploded on {x}")


class TestRunCells:
    def test_results_in_cell_order(self):
        cells = [SweepCell(_square, (i,)) for i in range(10)]
        assert run_cells(cells, jobs=1) == [i * i for i in range(10)]

    def test_parallel_results_in_cell_order(self):
        cells = [SweepCell(_square, (i,)) for i in range(10)]
        assert run_cells(cells, jobs=4) == [i * i for i in range(10)]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([SweepCell(_square, (1,))], jobs=0)

    def test_empty_cell_list(self):
        assert run_cells([], jobs=4) == []

    def test_cell_label_and_name(self):
        assert SweepCell(_square, (3,), label="sq:3").name() == "sq:3"
        assert "(_square" not in SweepCell(_square, (3,)).name()
        assert SweepCell(_square, (3,)).name() == "_square(3,)"

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_raising_cell_surfaces_as_cell_error(self, jobs):
        cells = [SweepCell(_square, (1,)),
                 SweepCell(_fail, (7,), label="boom:7"),
                 SweepCell(_square, (2,))]
        with pytest.raises(CellError) as err:
            run_cells(cells, jobs=jobs)
        # the error names the cell and carries the original message +
        # worker-side traceback — enough to diagnose without re-running
        assert "boom:7" in str(err.value)
        assert "cell exploded on 7" in str(err.value)
        assert err.value.exc_type == "ValueError"
        assert "ValueError" in err.value.worker_traceback

    def test_raising_cell_lands_in_report_errors_section(self):
        """A crashing cell inside a sweep must reach the report's
        ``## errors`` section (not hang the pool or kill the sweep)."""
        from repro.harness import report

        def broken_runner():
            return run_cells([SweepCell(_fail, (3,), label="boom")], jobs=4)

        def good_runner():
            from repro.harness.results import Table
            t = Table("ok", ["x"])
            t.add(1)
            return t

        import io

        text, errors = report.generate(
            runners=[("broken", broken_runner), ("good", good_runner)],
            log=io.StringIO(),
        )
        assert len(errors) == 1 and errors[0][0] == "broken"
        assert "## errors" in text
        assert "CellError" in text
        assert "## ok" in text, "later runners still execute"


# ------------------------------------------------------------- memo cache


class TestMemo:
    def setup_method(self):
        clear_memo()

    def teardown_method(self):
        clear_memo()

    def test_computes_once_per_key(self):
        calls = []
        out1 = memo(("k", 1), lambda: calls.append(1) or "v1")
        out2 = memo(("k", 1), lambda: calls.append(2) or "v2")
        assert out1 == out2 == "v1"
        assert calls == [1]
        stats = memo_stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.runs_by_key[("k", 1)] == 1

    def test_distinct_keys_compute_separately(self):
        memo(("k", 1), lambda: "a")
        memo(("k", 2), lambda: "b")
        assert memo_stats().misses == 2

    def test_clear_resets(self):
        memo(("k",), lambda: 1)
        clear_memo()
        assert memo_stats().misses == 0
        memo(("k",), lambda: 2)
        assert memo_stats().misses == 1


class TestCheckpointPreludeSharing:
    """fig6/fig7/fig8 share one checkpoint prelude per (app, nodes, cfg,
    ranks) key instead of re-simulating it per figure."""

    def setup_method(self):
        clear_memo()

    def teardown_method(self):
        clear_memo()

    def test_prelude_runs_once_per_key_across_figures(self):
        apps = ["gromacs"]
        ex.fig6_checkpoint_time(apps=apps)
        ex.fig7_restart_time(apps=apps)
        ex.fig8_ckpt_breakdown(apps=apps)
        stats = memo_stats()
        prelude_keys = [k for k in stats.runs_by_key if k[0] == "ckpt-prelude"]
        # fig6/fig7 sweep the small scale's 3 node counts; fig8 reuses the
        # largest.  Every key was simulated exactly once.
        assert len(prelude_keys) == 3
        assert all(stats.runs_by_key[k] == 1 for k in prelude_keys)
        # fig7 (3 nodes counts) + fig8 (1) hit the cache
        assert stats.hits == 4

    def test_shared_prelude_preserves_figure_outputs(self):
        apps = ["gromacs"]
        warm6 = ex.fig6_checkpoint_time(apps=apps)
        clear_memo()
        cold6 = ex.fig6_checkpoint_time(apps=apps)
        assert warm6.rows == cold6.rows


# --------------------------------------------- sequential/parallel A/B

RUNNERS = [
    ("fig2", lambda jobs: ex.fig2_single_node_overhead(
        apps=["gromacs"], jobs=jobs)),
    ("fig3", lambda jobs: ex.fig3_multi_node_overhead(
        apps=["gromacs"], jobs=jobs)),
    ("fig4", lambda jobs: ex.fig4_bandwidth_kernel_patch(jobs=jobs)),
    ("fig5", lambda jobs: ex.fig5_osu_latency(jobs=jobs)),
    ("fig6", lambda jobs: ex.fig6_checkpoint_time(
        apps=["gromacs"], jobs=jobs)),
    ("fig7", lambda jobs: ex.fig7_restart_time(
        apps=["gromacs"], jobs=jobs)),
    ("fig8", lambda jobs: ex.fig8_ckpt_breakdown(
        apps=["gromacs"], jobs=jobs)),
    ("mem", lambda jobs: ex.memory_overhead_analysis(jobs=jobs)),
    ("ablation", lambda jobs: ex.ablation_two_phase_cost(
        rank_counts=(4,), sizes=(64, 1 << 16), jobs=jobs)),
    ("resilience", lambda jobs: ex.resilience_efficiency_sweep(
        interval_factors=(0.5, 1.0), seeds=(0, 1), n_iters=20, jobs=jobs)),
]


@pytest.mark.parametrize("name,runner", RUNNERS,
                         ids=[name for name, _ in RUNNERS])
def test_parallel_matches_sequential(name, runner):
    clear_memo()
    seq = runner(1)
    clear_memo()
    par = runner(4)
    clear_memo()
    assert par.rows == seq.rows
    assert par.notes == seq.notes
    assert render_table(par) == render_table(seq), \
        f"{name}: jobs=4 must render byte-identically to jobs=1"
