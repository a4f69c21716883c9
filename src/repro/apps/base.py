"""Shared application machinery: configs, registry, halo-exchange builders.

All state-mutating callables referenced by program nodes are module-level
(or built from module-level factories that close only over plain data), so
program *text* is reconstructible at restart exactly like an on-disk binary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.mprog.ast import Call, Compute, Loop, Node, Program, Seq


@dataclass(frozen=True)
class AppConfig:
    """Knobs every mini-app shares.

    ``mem_bytes`` is the modeled per-rank application memory (drives image
    sizes, Fig. 6); ``compute_per_step`` is seconds of reference-node work
    per outer step; message sizes are modeled wire bytes.
    """

    name: str = "app"
    n_steps: int = 10
    mem_bytes: int = 64 << 20
    compute_per_step: float = 1e-3
    halo_bytes: int = 8 << 10
    reduce_bytes: int = 64

    def scaled(self, **kw) -> "AppConfig":
        """A copy with the given fields overridden."""
        return replace(self, **kw)


@dataclass(frozen=True)
class AppSpec:
    """Registry entry: how to build and size one application."""

    name: str
    default_config: AppConfig
    #: factory(config) -> program_factory(rank, size) -> Program
    build: Callable[[AppConfig], Callable[[int, int], Program]]
    #: per-rank modeled memory (config, rank, size) -> bytes
    memory_bytes: Callable[[AppConfig, int, int], int]
    #: ranks-per-node constraint hook (LULESH needs cubes); returns a valid
    #: total rank count closest to the requested one
    valid_ranks: Callable[[int], int] = lambda n: n


APP_REGISTRY: dict[str, AppSpec] = {}


def register_app(spec: AppSpec) -> AppSpec:
    """Add an application spec to the registry."""
    APP_REGISTRY[spec.name] = spec
    return spec


def get_app(name: str) -> AppSpec:
    """Look up a registered application by name."""
    try:
        return APP_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown app {name!r}; known: {sorted(APP_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------- neighbours

def grid_neighbors(rank: int, size: int, ndims: int) -> list[int]:
    """Neighbours on a periodic Cartesian factorization of ``size``."""
    from repro.mpilib.topology import CartTopology, dims_create

    dims = dims_create(size, ndims)
    topo = CartTopology(tuple(dims), tuple(True for _ in dims))
    out = set()
    for d in range(len(dims)):
        src, dst = topo.shift(rank, d, 1)
        for n in (src, dst):
            if n is not None and n != rank:
                out.add(n)
    return sorted(out)


# ------------------------------------------------------- small-vector math
#
# The apps' vectors hold tens of elements, where NumPy's generic entry
# points cost more than the arithmetic: ``np.roll`` sets up a general
# n-dimensional shift and ``mean`` goes through ``_methods._mean``.
# ``roll`` gathers through a cached index array, and ``v.sum() / v.size``
# is the reduction ``mean`` performs, in the same order; both give
# bit-identical results.

#: (length, shift) -> read-only gather indices of ``roll``; one entry per
#: vector length and shift the apps use
_ROLL_INDEX: dict[tuple[int, int], np.ndarray] = {}


def roll(v: np.ndarray, shift: int) -> np.ndarray:
    """``np.roll(v, shift)`` of a 1-D vector: a new array with
    ``out[i] == v[(i - shift) % len(v)]``."""
    key = (len(v), shift)
    index = _ROLL_INDEX.get(key)
    if index is None:
        index = (np.arange(key[0]) - shift) % key[0]
        index.flags.writeable = False
        _ROLL_INDEX[key] = index
    return v[index]


# --------------------------------------------------------- halo exchange

def halo_exchange_seq(neighbors: list[int], size_bytes: int,
                      tag: int = 40) -> Optional[Node]:
    """One batched exchange with every neighbour, plus absorption.

    All sends and receives are posted together (isend/irecv + waitall, as
    real halo exchanges do), so transfers overlap and no cyclic-rendezvous
    deadlock is possible.  The real payload carries the rank's evolving
    halo state, so checkpoint/restart exactness tests detect any lost,
    duplicated, or reordered halo message.
    """
    if not neighbors:
        return None

    def do_exchange(state, api):
        payload = state["halo_out"][:8].copy()
        sends = [(nb, payload, tag, size_bytes) for nb in neighbors]
        recvs = [(nb, tag) for nb in neighbors]
        return api.exchange(sends, recvs)

    def absorb(state):
        received = np.array([data for data, _status in state["_halo"]])
        state["halo_in"] = 0.5 * (state["halo_in"]
                                  + received.sum(axis=0) / len(received))
        # the outgoing halo evolves every step: stale duplicates are visible
        out = state["halo_out"]
        out[:] = roll(out, 1)
        out[:8] += 0.125 * state["halo_in"]

    return Seq(
        Call(do_exchange, store="_halo", label=f"halo-x{len(neighbors)}"),
        Compute(absorb, label="halo-absorb"),
    )


def init_common_state(state) -> None:
    """Baseline numeric state every app starts from (deterministic)."""
    rng = np.random.default_rng(97 + state["rank"])
    state["halo_out"] = rng.random(32)
    state["halo_in"] = np.zeros(8)
    state["checksum"] = 0.0


def steps_program(init: Compute, step_body: Node, n_steps: int,
                  name: str) -> Program:
    """The canonical outer shape: init once, then the stepping loop."""
    return Program(Seq(init, Loop(n_steps, step_body, var="step")), name=name)
