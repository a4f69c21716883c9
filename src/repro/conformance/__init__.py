"""Cross-matrix restart conformance (the paper's m×n agnosticism claim,
run as an executable, fuzzed, continuously-tested contract).

A checkpoint taken under any MPI implementation on any network must restart
correctly under *every other* implementation, fabric, and ranks-per-node
layout.  :mod:`repro.conformance` turns that sentence into a differential
harness:

* :mod:`repro.conformance.matrix` enumerates the (MPI impl × fabric ×
  ranks-per-node) configuration cells of the quick and full tiers;
* :mod:`repro.conformance.oracles` defines the equivalence oracles — a
  bit-identical final-state fingerprint and p2p byte/message conservation
  over the merged source+restart metrics;
* :mod:`repro.conformance.harness` runs each app to completion
  uncheckpointed (the golden state), re-runs it with checkpoints injected
  at seeded-random virtual times, restarts the images onto every other
  cell, and reports every divergence with a reproduction recipe.

See ``docs/conformance.md``.
"""

import importlib

# Public name -> defining submodule.  The submodules load on first use
# (PEP 562), so importing the oracles alone does not pull in the harness
# and its process-pool machinery.
_EXPORTS = {
    **dict.fromkeys((
        "ConformanceReport", "differential_cycle", "golden_run",
        "run_conformance",
    ), "harness"),
    **dict.fromkeys((
        "FULL_TIER", "QUICK_TIER", "ConfigCell", "cluster_for",
        "enumerate_cells", "matrix_for", "source_cells",
    ), "matrix"),
    **dict.fromkeys((
        "ConservationTotals", "Divergence", "check_conservation",
        "check_golden_state", "check_handle_ledger",
        "check_replay_accounting", "check_replay_consistency",
        "conservation_totals", "state_fingerprint",
    ), "oracles"),
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
