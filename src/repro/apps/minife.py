"""miniFE mini-app: unstructured implicit finite elements (CG solve).

miniFE assembles a sparse system then runs conjugate gradient.  Per CG
iteration: one SpMV (halo exchange with a handful of neighbours, tens of
kilobytes each) and two dot products (scalar allreduces), against heavy
local compute.  The call-to-compute ratio is low, which is why the paper
measures essentially zero MANA overhead for miniFE.

Image sizes in Fig. 6 vary 0.8–2 GB/rank with node count (the problem is
re-partitioned); we model 2 GB at 2 nodes shrinking toward 0.8 GB.
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
from repro.mpilib.ops import SUM
from repro.mprog.ast import Call, Compute, Program, Seq

MB = 1 << 20

DEFAULT = AppConfig(
    name="minife",
    n_steps=15,                 # CG iterations
    mem_bytes=1300 * MB,
    compute_per_step=6e-3,      # SpMV + vector ops on the local partition
    halo_bytes=96 << 10,
    reduce_bytes=8,
)


def _init(state) -> None:
    init_common_state(state)
    rng = np.random.default_rng(23 + state["rank"])
    state["x"] = rng.random(48)
    state["r"] = rng.random(48)
    state["rho_trace"] = []


def _spmv(state) -> None:
    x = state["x"]
    halo_in = state["halo_in"]
    state["ax"] = 2.0 * x - 0.5 * roll(x, 1) - 0.5 * roll(x, -1) \
        + 1e-3 * (halo_in.sum() / halo_in.size)


def _dot_rr(state, api):
    return api.allreduce(np.array([float(np.dot(state["r"], state["r"]))]),
                         SUM, size=DEFAULT.reduce_bytes)


def _dot_pap(state, api):
    return api.allreduce(np.array([float(np.dot(state["x"], state["ax"]))]),
                         SUM, size=DEFAULT.reduce_bytes)


def _cg_update(state) -> None:
    rho = float(state["rho"][0])
    pap = float(state["pap"][0]) or 1.0
    alpha = rho / pap
    state["x"] = state["x"] + alpha * 0.01 * state["r"]
    state["r"] = state["r"] - alpha * 0.01 * state["ax"]
    state["rho_trace"].append(round(rho, 10))
    state["checksum"] += rho


def build(config: AppConfig):
    """Program factory for this application at the given config."""
    def factory(rank: int, size: int) -> Program:
        neighbors = grid_neighbors(rank, size, ndims=3)
        parts = []
        halo = halo_exchange_seq(neighbors, config.halo_bytes, tag=51)
        if halo is not None:
            parts.append(halo)
        parts.extend([
            Compute(_spmv, cost=config.compute_per_step, label="spmv"),
            Call(_dot_rr, store="rho", label="dot-rr"),
            Call(_dot_pap, store="pap", label="dot-pAp"),
            Compute(_cg_update),
        ])
        return steps_program(
            Compute(_init, label="fe-assembly"), Seq(*parts),
            config.n_steps, name="minife-mini",
        )

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    # Larger jobs hold smaller partitions per rank (strong-scaling flavour),
    # matching Fig. 6's 2.0 GB → 0.8 GB spread.
    """Modeled per-rank memory (drives checkpoint image sizes)."""
    n_nodes = max(1, size // 32)
    shrink = min(1.0, 2.0 / max(n_nodes, 1) + 0.6)
    return int(config.mem_bytes * shrink)


SPEC = register_app(AppSpec(
    name="minife", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes,
))
