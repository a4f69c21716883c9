"""Experiment harness: one runner per figure of the paper's evaluation.

Each ``fig*`` function reproduces one artifact of §3 end-to-end on the
simulated substrate and returns a structured result that both the benchmark
suite (``benchmarks/``) and EXPERIMENTS.md rendering consume.  Scale is a
parameter: the defaults are laptop-sized sweeps; ``scale="paper"`` runs the
full 64-node × 32-rank configurations of the paper.
"""

import importlib

# Public name -> defining submodule, loaded on first use (PEP 562): the
# figure runners and the sweep pool stay unloaded until something asks.
_EXPORTS = {
    **dict.fromkeys(("Series", "Table", "render_table"), "results"),
    **dict.fromkeys((
        "CellError", "SweepCell", "clear_memo", "memo", "memo_stats",
        "run_cells",
    ), "parallel"),
    **dict.fromkeys((
        "ablation_two_phase_cost", "fig2_single_node_overhead",
        "fig3_multi_node_overhead", "fig4_bandwidth_kernel_patch",
        "fig5_osu_latency", "fig6_checkpoint_time", "fig7_restart_time",
        "fig8_ckpt_breakdown", "fig9_cross_cluster_migration",
        "memory_overhead_analysis", "resilience_efficiency_sweep",
        "resilience_program",
    ), "experiments"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a re-exported name (or a submodule) on first use."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Module attributes, including the names not yet loaded."""
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
