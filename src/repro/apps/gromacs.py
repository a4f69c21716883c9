"""GROMACS mini-app: molecular dynamics communication skeleton.

Real GROMACS with domain decomposition sends *many small messages* every MD
step: coordinate halos to neighbour domains before the force computation,
force halos back after, plus a tiny global allreduce for energies/virial.
That call-dense, small-message profile is why GROMACS is the paper's
worst case for MANA's per-call overhead (2.1 % at 16 ranks unpatched,
0.6 % patched, §3.2/§3.3).

Calibration (per MD step, per rank):
* 2 × paired exchanges with each of ~4 neighbours (coords out, forces back),
  ~2 KB each — small, eager, latency-bound;
* 1 × 64 B allreduce (energy);
* ~420 µs of compute (force kernels), matching the per-step budget of a
  ~100k-atom system at 32 ranks.

Modeled image: ~93 MB/rank (Fig. 6's GROMACS numbers are 91–94 MB).
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
    steps_program,
)
from repro.mpilib.ops import SUM
from repro.mprog.ast import Call, Compute, If, Program, Seq

MB = 1 << 20

DEFAULT = AppConfig(
    name="gromacs",
    n_steps=20,
    mem_bytes=93 * MB,
    compute_per_step=420e-6,
    halo_bytes=2 << 10,
    reduce_bytes=64,
)

#: Energies/virial are reduced globally only every few steps (GROMACS's
#: nstcalcenergy behaviour); halo traffic happens every step.
ENERGY_EVERY = 4


def _init(state) -> None:
    init_common_state(state)
    rng = np.random.default_rng(11 + state["rank"])
    state["velocities"] = rng.random(64)
    state["energy_trace"] = []
    state["step_trace"] = []


def _tick(state) -> None:
    state["step_trace"].append(state["step"])


def _is_energy_step(state) -> bool:
    return state["step"] % ENERGY_EVERY == ENERGY_EVERY - 1


def _force_kernel(state) -> None:
    # Deterministic toy dynamics over the small real state.
    v = state["velocities"]
    v *= 0.999
    halo_in = state["halo_in"]
    v += 0.001 * np.sin(v) + 1e-4 * (halo_in.sum() / halo_in.size)
    state["local_energy"] = float(np.dot(v, v))


def _energy_reduce(state, api):
    return api.allreduce(np.array([state["local_energy"]]), SUM,
                         size=DEFAULT.reduce_bytes)


def _record_energy(state) -> None:
    state["energy_trace"].append(round(float(state["esum"][0]), 10))
    state["checksum"] += state["energy_trace"][-1]


def build(config: AppConfig):
    """Program factory for GROMACS-mini."""

    def factory(rank: int, size: int) -> Program:
        neighbors = grid_neighbors(rank, size, ndims=3)
        parts = [Compute(_force_kernel, cost=config.compute_per_step,
                         label="force-kernel")]
        coord_halo = halo_exchange_seq(neighbors, config.halo_bytes, tag=41)
        force_halo = halo_exchange_seq(neighbors, config.halo_bytes, tag=42)
        if coord_halo is not None:
            parts.insert(0, coord_halo)       # coords out before forces
            parts.append(force_halo)          # forces back after
        parts.append(If(_is_energy_step, Seq(
            Call(_energy_reduce, store="esum", label="energy"),
            Compute(_record_energy),
        )))
        parts.append(Compute(_tick))
        return steps_program(
            Compute(_init, label="md-init"), Seq(*parts),
            config.n_steps, name="gromacs-mini",
        )

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    # Replicated topology tables shrink slightly as ranks grow; the paper
    # measured 91–94 MB/rank essentially flat.
    """Modeled per-rank memory (drives checkpoint image sizes)."""
    return config.mem_bytes


SPEC = register_app(AppSpec(
    name="gromacs", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes,
))
