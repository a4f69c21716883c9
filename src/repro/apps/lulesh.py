"""LULESH mini-app: unstructured Lagrangian explicit shock hydrodynamics.

LULESH runs on a cubic process grid (rank counts 1, 8, 27, 64, …, 512 —
the reason Fig. 2 shows it at 1/8/27 ranks and Figs. 3/6/7 at 64/512
total), exchanging with up to 26 neighbours (faces, edges, corners) each
step and agreeing on the time increment with a MIN allreduce.

Per step: 3D halo (6 face exchanges of ~40 KB dominate; edge/corner traffic
is folded into the modeled size), two compute phases (Lagrange nodal +
element), and the dt allreduce.
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
)
from repro.mpilib.ops import MIN
from repro.mprog.ast import Call, Compute, Program, Seq

MB = 1 << 20

DEFAULT = AppConfig(
    name="lulesh",
    n_steps=18,
    mem_bytes=160 * MB,
    compute_per_step=1.6e-3,
    halo_bytes=40 << 10,
    reduce_bytes=8,
)


def cube_ranks(n: int) -> int:
    """The largest cube not exceeding ``n`` (LULESH's rank-count rule)."""
    k = max(1, round(n ** (1 / 3)))
    while k ** 3 > n:
        k -= 1
    return max(1, k) ** 3


def _init(state) -> None:
    init_common_state(state)
    rng = np.random.default_rng(53 + state["rank"])
    state["e"] = rng.random(54)      # element energies
    state["dt_trace"] = []


def _lagrange_nodal(state) -> None:
    e = state["e"]
    state["grad"] = roll(e, 1) - roll(e, -1)


def _lagrange_elems(state) -> None:
    halo_in = state["halo_in"]
    state["e"] = state["e"] - 0.005 * state["grad"] \
        + 1e-4 * (halo_in.sum() / halo_in.size)
    state["local_dt"] = float(0.05 / (np.abs(state["grad"]).max() + 1.0))


def _make_cart(state, api):
    # LULESH runs on an explicit 3-D processor cube: create the Cartesian
    # communicator (a persistent opaque object MANA records and replays at
    # restart — this is what Fig. 7's "recreate opaque identifiers" time is).
    from repro.mpilib.topology import dims_create

    dims = dims_create(state["size"], 3)
    return api.cart_create(dims, [True] * 3)


def _dt_reduce(state, api):
    return api.allreduce(np.array([state["local_dt"]]), MIN,
                         size=DEFAULT.reduce_bytes, comm=state["cart"])


def _advance(state) -> None:
    state["dt_trace"].append(round(float(state["dt"][0]), 12))
    state["checksum"] += state["dt_trace"][-1]


def build(config: AppConfig):
    """Program factory for this application at the given config."""
    def factory(rank: int, size: int) -> Program:
        neighbors = grid_neighbors(rank, size, ndims=3)
        parts = [
            Compute(_lagrange_nodal, cost=config.compute_per_step * 0.45,
                    label="lagrange-nodal"),
        ]
        halo = halo_exchange_seq(neighbors, config.halo_bytes, tag=81)
        if halo is not None:
            parts.append(halo)
        parts.extend([
            Compute(_lagrange_elems, cost=config.compute_per_step * 0.55,
                    label="lagrange-elems"),
            Call(_dt_reduce, store="dt", label="dt-min"),
            Compute(_advance),
        ])
        from repro.mprog.ast import Loop, Program

        return Program(Seq(
            Compute(_init, label="lulesh-init"),
            Call(_make_cart, store="cart", label="cart-create"),
            Loop(config.n_steps, Seq(*parts), var="step"),
        ), name="lulesh-mini")

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    # Fig. 6: 276 MB at 64 ranks shrinking to ~85 MB at 512 ranks (strong
    # scaling of a fixed mesh).
    """Modeled per-rank memory (drives checkpoint image sizes)."""
    return int(config.mem_bytes * min(1.8, 64.0 / max(size, 32) + 0.45))


SPEC = register_app(AppSpec(
    name="lulesh", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes, valid_ranks=cube_ranks,
))
