"""CLAMR mini-app: cell-based adaptive mesh refinement.

CLAMR's distinguishing MPI behaviour is *imbalance*: refinement makes some
ranks' cell counts (and therefore compute time) grow while others shrink,
with the skew drifting over time; every few steps the mesh is rebalanced
with collective communication (cell-count allgather + redistribution).
The drifting skew means ranks arrive at collectives at very different
times — which is precisely the workload the two-phase wrapper's phase 1
exists for.

Per step: 2D neighbour halo exchange (~24 KB), a shallow-water kernel whose
cost varies ±35 % by rank and step, a dt allreduce; every 4th step a
regrid: allgather of cell counts plus a redistribution alltoall (modeled by
a larger allgather payload).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import (
    AppConfig,
    AppSpec,
    grid_neighbors,
    halo_exchange_seq,
    init_common_state,
    register_app,
    roll,
    steps_program,
)
from repro.mpilib.ops import MIN
from repro.mprog.ast import Call, Compute, If, Program, Seq

MB = 1 << 20

DEFAULT = AppConfig(
    name="clamr",
    n_steps=16,
    mem_bytes=560 * MB,
    compute_per_step=2.2e-3,
    halo_bytes=24 << 10,
    reduce_bytes=8,
)

REGRID_EVERY = 4


def _init(state) -> None:
    init_common_state(state)
    rng = np.random.default_rng(41 + state["rank"])
    state["h"] = 1.0 + rng.random(40)          # water heights
    state["cells"] = 1000 + 50 * state["rank"]  # refined-cell count
    state["dt_trace"] = []


def _imbalance_factor(state) -> float:
    """Per-rank, per-step compute skew in [0.65, 1.35], drifting over time."""
    phase = 0.7 * state["step"] + 1.3 * state["rank"]
    return 1.0 + 0.35 * float(np.sin(phase))


def _hydro_cost(state) -> float:
    return DEFAULT.compute_per_step * _imbalance_factor(state)


def _hydro_kernel(state) -> None:
    h = state["h"]
    halo_in = state["halo_in"]
    state["h"] = h + 0.01 * (roll(h, 1) - 2 * h + roll(h, -1)) \
        + 1e-4 * (halo_in.sum() / halo_in.size)
    state["local_dt"] = float(0.1 / (np.abs(h).max() + 1.0))


def _dt_reduce(state, api):
    return api.allreduce(np.array([state["local_dt"]]), MIN,
                         size=DEFAULT.reduce_bytes)


def _is_regrid_step(state) -> bool:
    return state["step"] % REGRID_EVERY == REGRID_EVERY - 1


def _cellcount_allgather(state, api):
    return api.allgather(np.array([float(state["cells"])]), size=8)


def _redistribute(state, api):
    # Cell redistribution: a bulky allgather stands in for the irregular
    # alltoallv of real CLAMR (same synchronizing shape, similar volume).
    return api.allgather(state["h"][:8].copy(), size=64 << 10)


def _apply_regrid(state) -> None:
    counts = np.array([float(c[0]) for c in state["counts"]])
    mean = counts.sum() / counts.size
    state["cells"] = int(mean)  # perfectly rebalanced
    state["checksum"] += round(float(mean), 6)


def _record_dt(state) -> None:
    state["dt_trace"].append(round(float(state["dt"][0]), 12))
    state["checksum"] += state["dt_trace"][-1]


def build(config: AppConfig):
    """Program factory for this application at the given config."""
    scale = config.compute_per_step / DEFAULT.compute_per_step

    def cost(state) -> float:
        return _hydro_cost(state) * scale

    def factory(rank: int, size: int) -> Program:
        neighbors = grid_neighbors(rank, size, ndims=2)
        parts = []
        halo = halo_exchange_seq(neighbors, config.halo_bytes, tag=71)
        if halo is not None:
            parts.append(halo)
        parts.extend([
            Compute(_hydro_kernel, cost=cost, label="hydro"),
            Call(_dt_reduce, store="dt", label="dt-min"),
            Compute(_record_dt),
            If(_is_regrid_step, Seq(
                Call(_cellcount_allgather, store="counts", label="cell-counts"),
                Call(_redistribute, store="_redis", label="redistribute"),
                Compute(_apply_regrid),
            )),
        ])
        return steps_program(
            Compute(_init, label="amr-init"), Seq(*parts),
            config.n_steps, name="clamr-mini",
        )

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    # Fig. 6 shows 500–660 MB/rank with mild variation across node counts.
    """Modeled per-rank memory (drives checkpoint image sizes)."""
    return config.mem_bytes


SPEC = register_app(AppSpec(
    name="clamr", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes,
))
