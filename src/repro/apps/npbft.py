"""NPB FT-style mini-app: 3-D FFT with global transposes (extension).

Not part of the paper's evaluation — included as an adoption-grade
extension because its communication pattern (an **all-to-all transpose**
dominating each iteration) is one none of the paper's five benchmarks
exercises, and all-to-all is the hardest case for a checkpointer: every
rank talks to every rank, so the two-phase wrapper and the drain logic see
maximal concurrency.

Per iteration: local 1-D FFTs (compute), a global transpose (alltoall of
1/p of the local volume to each peer), more local FFTs, and a periodic
checksum reduce — the exact skeleton of NPB FT.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppConfig, AppSpec, register_app
from repro.mpilib.ops import SUM
from repro.mprog.ast import Call, Compute, If, Program, Seq
from repro.apps.base import steps_program

MB = 1 << 20

DEFAULT = AppConfig(
    name="npbft",
    n_steps=10,
    mem_bytes=1024 * MB,
    compute_per_step=8e-3,
    halo_bytes=0,            # unused: FT has no halos
    reduce_bytes=16,
)

#: per-iteration all-to-all volume per rank (split across all peers)
TRANSPOSE_BYTES = 256 * MB
CHECKSUM_EVERY = 2


def _init(state) -> None:
    rng = np.random.default_rng(67 + state["rank"])
    state["u"] = rng.random(64) + 1j * rng.random(64)
    state["checksum"] = 0.0
    state["cksum_trace"] = []


def _fft_local_1(state) -> None:
    state["u"] = np.fft.fft(state["u"]) / len(state["u"])


def _transpose(state, api):
    size = api.size
    chunk_bytes = max(1, TRANSPOSE_BYTES // max(size, 1))
    chunks = [state["u"][:4].copy() for _ in range(size)]
    return api.alltoall(chunks, size=chunk_bytes)


def _absorb_transpose(state) -> None:
    received = state["_tp"]
    state["u"][:4] = np.array(received).sum(axis=0) / len(received)


def _fft_local_2(state) -> None:
    state["u"] = np.fft.ifft(state["u"]) * len(state["u"])


def _is_checksum_step(state) -> bool:
    return state["step"] % CHECKSUM_EVERY == CHECKSUM_EVERY - 1


def _checksum(state, api):
    local = complex(state["u"].sum())
    return api.allreduce(np.array([local.real, local.imag]), SUM,
                         size=DEFAULT.reduce_bytes)


def _record(state) -> None:
    re, im = state["_ck"]
    state["cksum_trace"].append((round(float(re), 9), round(float(im), 9)))
    state["checksum"] += round(float(re), 9)


def build(config: AppConfig):
    """Program factory for this application at the given config."""
    def factory(rank: int, size: int) -> Program:
        body = Seq(
            Compute(_fft_local_1, cost=config.compute_per_step * 0.4,
                    label="fft-pass-1"),
            Call(_transpose, store="_tp", label="global-transpose"),
            Compute(_absorb_transpose),
            Compute(_fft_local_2, cost=config.compute_per_step * 0.6,
                    label="fft-pass-2"),
            If(_is_checksum_step, Seq(
                Call(_checksum, store="_ck", label="checksum"),
                Compute(_record),
            )),
        )
        return steps_program(Compute(_init, label="ft-init"), body,
                             config.n_steps, name="npbft-mini")

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    # strong scaling of a fixed grid: per-rank volume shrinks with p
    """Modeled per-rank memory (drives checkpoint image sizes)."""
    return max(64 * MB, int(config.mem_bytes * 64 / max(size, 64)))


SPEC = register_app(AppSpec(
    name="npbft", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes,
))
