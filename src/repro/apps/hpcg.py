"""HPCG mini-app: high-performance conjugate gradient.

HPCG is a preconditioned CG with a 27-point stencil SpMV, a symmetric
Gauss-Seidel multigrid smoother and global dot products.  It is strongly
compute-bound with a fixed, large per-rank working set — the paper's 2 GB
per-rank checkpoint images regardless of node count (weak scaling), summing
to 4 TB for 2048 ranks at 64 nodes.

Per iteration: one 27-point halo exchange (up to 6 paired exchanges in our
3D factorization, ~128 KB faces), one multigrid V-cycle (extra compute + a
coarse-grid allreduce), and two CG dot products.
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
    name="hpcg",
    n_steps=12,
    mem_bytes=2048 * MB,
    compute_per_step=11e-3,
    halo_bytes=128 << 10,
    reduce_bytes=8,
)


def _init(state) -> None:
    init_common_state(state)
    rng = np.random.default_rng(31 + state["rank"])
    state["z"] = rng.random(64)
    state["res_trace"] = []


def _spmv27(state) -> None:
    z = state["z"]
    halo_in = state["halo_in"]
    state["az"] = (
        26.0 * z - 13.0 * roll(z, 1) - 13.0 * roll(z, -1)
    ) / 26.0 + 1e-3 * (halo_in.sum() / halo_in.size)


def _mg_smooth(state) -> None:
    state["z"] = 0.9 * state["z"] + 0.1 * state["az"]


def _dot(state, api):
    return api.allreduce(np.array([float(np.dot(state["z"], state["az"]))]),
                         SUM, size=DEFAULT.reduce_bytes)


def _coarse_reduce(state, api):
    return api.allreduce(np.array([float(state["z"].sum())]), SUM,
                         size=DEFAULT.reduce_bytes)


def _update(state) -> None:
    beta = float(state["beta"][0])
    coarse = float(state["coarse"][0])
    state["z"] = state["z"] + 1e-4 * beta * np.sign(coarse or 1.0)
    state["res_trace"].append(round(beta, 10))
    state["checksum"] += beta


def build(config: AppConfig):
    """Program factory for this application at the given config."""
    def factory(rank: int, size: int) -> Program:
        neighbors = grid_neighbors(rank, size, ndims=3)
        parts = []
        halo = halo_exchange_seq(neighbors, config.halo_bytes, tag=61)
        if halo is not None:
            parts.append(halo)
        parts.extend([
            Compute(_spmv27, cost=config.compute_per_step * 0.6, label="spmv"),
            Compute(_mg_smooth, cost=config.compute_per_step * 0.4, label="mg"),
            Call(_coarse_reduce, store="coarse", label="mg-coarse"),
            Call(_dot, store="beta", label="dot"),
            Compute(_update),
        ])
        return steps_program(
            Compute(_init, label="hpcg-setup"), Seq(*parts),
            config.n_steps, name="hpcg-mini",
        )

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    """Modeled per-rank memory (drives checkpoint image sizes)."""
    return config.mem_bytes  # weak scaling: flat 2 GB/rank


SPEC = register_app(AppSpec(
    name="hpcg", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes,
))
