"""Communicator/datatype churn mini-app (extension, not in the paper).

A synthetic tenant patterned on long-horizon ensemble drivers: every step
it creates *and frees* a duplicated communicator, a uniformly-coloured
split, a derived datatype and a pair of groups.  Its record-replay log
therefore grows linearly with runtime while its live handle set stays
constant — the adversarial workload for restart cost, and the one
checkpoint-time log compaction (docs/record_replay.md) flattens.

Two communicators are created once and kept for the whole run (a dup of
the world and a split of that dup): a compacted image describes exactly
those two, as two equal-membership communicators, and none of the churn.
Each step's allreduce results feed the checksum, making the conformance
fingerprint sensitive to any replay divergence.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import (
    AppConfig,
    AppSpec,
    init_common_state,
    register_app,
)
from repro.mpilib import DOUBLE
from repro.mpilib.ops import SUM
from repro.mprog.ast import Call, Compute, Loop, Program, Seq
from repro.simtime import Completion

MB = 1 << 20

DEFAULT = AppConfig(
    name="commchurn",
    n_steps=8,
    mem_bytes=16 * MB,
    compute_per_step=0.5e-3,
    halo_bytes=0,
    reduce_bytes=16,
)


def _done(api, value=None) -> Completion:
    """A pre-resolved completion for synchronous persistent-call bundles."""
    engine = api.rt.engine if hasattr(api, "rt") else api.endpoint.engine
    out = Completion(engine)
    out.resolve(value)
    return out


def _init(state) -> None:
    init_common_state(state)
    state["churn_trace"] = []
    state["live_trace"] = []


def _persist_dup(state, api):
    # Long-lived: stays bound across every checkpoint in the run.
    return api.comm_dup()


def _persist_split(state, api):
    # Uniform colour on the persistent dup: full membership, stays live.
    return api.comm_split(color=0, key=state["rank"], comm=state["pdup"])


def _ephemeral_dup(state, api):
    return api.comm_dup()


def _ephemeral_split(state, api):
    # Same colour on every rank each step: full parent membership.
    return api.comm_split(color=state["step"] % 3, key=state["rank"])


def _edup_barrier(state, api):
    return api.barrier(comm=state["edup"])


def _esplit_reduce(state, api):
    payload = np.array([float(state["rank"] + state["step"])])
    return api.allreduce(payload, SUM, comm=state["esplit"],
                         size=DEFAULT.reduce_bytes)


def _free_ephemerals(state, api):
    """Free this step's churned handles: both comms, a derived datatype
    and two groups (created and retired in one go: none of it reaches a
    compacted image)."""
    api.comm_free(state.pop("edup"))
    api.comm_free(state.pop("esplit"))
    tvid = api.type_contiguous(2 + state["step"] % 7, DOUBLE)
    state["checksum"] += api.resolve_type(tvid).extent * 1e-6
    api.type_free(tvid)
    g = api.comm_group()
    half = api.group_incl(g, list(range((state["size"] + 1) // 2)))
    state["checksum"] += api.group_size(half) * 1e-3
    api.group_free(half)
    api.group_free(g)
    return _done(api)


def _psub_reduce(state, api):
    payload = np.array([float(state["rank"]) + state["checksum"]])
    return api.allreduce(payload, SUM, comm=state["psub"],
                         size=DEFAULT.reduce_bytes)


def _absorb(state) -> None:
    churn = float(state["esum"][0])
    live = float(state["psum"][0])
    state["churn_trace"].append(round(churn, 10))
    state["live_trace"].append(round(live, 10))
    state["checksum"] += churn * 1e-3 + live * 1e-6


def build(config: AppConfig):
    """Program factory for this application at the given config."""
    def factory(rank: int, size: int) -> Program:
        step = Seq(
            Call(_ephemeral_dup, store="edup", label="churn-dup"),
            Call(_ephemeral_split, store="esplit", label="churn-split"),
            Call(_edup_barrier, label="churn-barrier"),
            Call(_esplit_reduce, store="esum", label="churn-reduce"),
            Call(_free_ephemerals, label="churn-free"),
            Call(_psub_reduce, store="psum", label="live-reduce"),
            Compute(_absorb, cost=config.compute_per_step),
        )
        return Program(Seq(
            Compute(_init, label="churn-setup"),
            Call(_persist_dup, store="pdup"),
            Call(_persist_split, store="psub"),
            Loop(config.n_steps, step, var="step"),
        ), name="commchurn")

    return factory


def memory_bytes(config: AppConfig, rank: int, size: int) -> int:
    """Modeled per-rank memory (small: the churn is the point)."""
    return config.mem_bytes


SPEC = register_app(AppSpec(
    name="commchurn", default_config=DEFAULT, build=build,
    memory_bytes=memory_bytes,
))
