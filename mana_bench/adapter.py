"""Every call the benchmark makes into ``repro``'s API, in one module.

The workloads in :mod:`workloads` speak only to this module, so an API
change in ``repro`` (an options object replacing keyword arguments, a
different engine backend) changes this file and nothing else in the
benchmark.  Jobs are always built the default way: the sequential engine,
no ``shards=``, no ``jobs=``, the default checkpoint protocol.  The only
job option the benchmark varies is ``compact`` (record-log compaction).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps import get_app, osu
from repro.conformance import oracles
from repro.hardware.cluster import cori, local_cluster, make_cluster
from repro.hardware.kernelmodel import UNPATCHED
from repro.mana import job as mana_job
from repro.mana.split_process import fixed_upper_bytes
from repro.mpilib.launcher import launch as launch_world
from repro.runtime.native import NativeJob
from repro.simtime import Engine

#: Seed of the modeled Lustre straggler draws.  Fixed, so simulated
#: checkpoint and restart times compare across benchmark seeds: the slowest
#: of 32 heavy-tailed writers spreads by ~25% (quartile distance over the
#: median) from one straggler stream to the next, wider than any usable bound.
STORAGE_SEED = 0

ProgramFactory = Callable[[int, int], object]


# ------------------------------------------------------------------ clusters

def aries_node() -> object:
    """One Aries node with the unpatched kernel (the OSU runs of §3.2.3)."""
    return make_cluster("pp-aries", 1, interconnect="aries", kernel=UNPATCHED)


def aries_nodes(n_nodes: int) -> object:
    """``n_nodes`` Aries nodes running Cray MPICH."""
    return make_cluster("aries", n_nodes, interconnect="aries",
                        default_mpi="craympich")


def cori_nodes(n_nodes: int) -> object:
    """A Cori slice: Aries, Cray MPICH, the calibrated Lustre model."""
    return cori(n_nodes)


def infiniband_nodes(n_nodes: int) -> object:
    """The paper's local InfiniBand cluster running Open MPI."""
    return local_cluster(n_nodes)


# ------------------------------------------------------------------ programs

@dataclass(frozen=True)
class App:
    """A program factory plus the per-rank memory the images are sized by."""

    factory: ProgramFactory
    mem_bytes: Callable[[int], int]


def mini_app(name: str, n_steps: int, n_ranks: int) -> App:
    """A registered mini-app at ``n_steps``, sized like the figure runners:
    the app-data region is the modeled image size minus the fixed
    upper-half furniture."""
    spec = get_app(name)
    cfg = spec.default_config.scaled(n_steps=n_steps)
    fixed = fixed_upper_bytes()

    def mem_bytes(rank: int) -> int:
        return max(1 << 20, spec.memory_bytes(cfg, rank, n_ranks) - fixed)

    return App(spec.build(cfg), mem_bytes)


def pingpong_app(size_bytes: int, n_iters: int) -> App:
    """The OSU latency ping-pong with 1 MiB of application data per rank."""
    return App(osu.latency_program(size_bytes, n_iters), lambda _rank: 1 << 20)


# ---------------------------------------------------------------------- jobs

def native_job(cluster, app: App, n_ranks: int,
               ranks_per_node: Optional[int]) -> NativeJob:
    """A native (no MANA) job, started: its first event is scheduled."""
    engine = Engine()
    world = launch_world(engine, cluster, n_ranks, ranks_per_node=ranks_per_node)
    job = NativeJob(engine, world, [app.factory(r, n_ranks) for r in range(n_ranks)])
    return job.start()


def run_native(cluster, app: App, n_ranks: int,
               ranks_per_node: Optional[int]) -> tuple[NativeJob, float]:
    """Run ``app`` natively to completion; (job, simulated makespan)."""
    job = native_job(cluster, app, n_ranks, ranks_per_node)
    return job, job.run_to_completion()


def launch(cluster, app: App, n_ranks: int, ranks_per_node: Optional[int],
           compact: bool = False):
    """Launch ``app`` under MANA and schedule its first event."""
    return mana_job.launch_mana(
        cluster, app.factory, n_ranks=n_ranks, ranks_per_node=ranks_per_node,
        app_mem_bytes=app.mem_bytes, seed=STORAGE_SEED, compact=compact,
    ).start()


def restart(ckpt, cluster, app: App, ranks_per_node: Optional[int]):
    """Restart a checkpoint set on ``cluster`` (its default MPI and fabric)."""
    return mana_job.restart(ckpt, cluster, app.factory,
                            ranks_per_node=ranks_per_node, seed=STORAGE_SEED)


def run_to_completion(job) -> float:
    """Run a MANA job until every rank finishes; simulated seconds elapsed."""
    return job.run_to_completion()


def checkpoint_at(job, t: float):
    """Run to virtual time ``t``, then take a coordinated checkpoint;
    returns (checkpoint set, report)."""
    return job.checkpoint_at(t)


def restart_report(job):
    """Timing of a finished restart: init, image reads, record-replay."""
    return job.restart_report


def now(job) -> float:
    """The job's current virtual time."""
    return job.engine.now


# -------------------------------------------------------------- observations

def fingerprint(job) -> str:
    """SHA-256 over every rank's final application state."""
    return oracles.state_fingerprint(job.states)


#: the ping-pong's receive buffers: the payload each rank got last
RECEIVED_KEYS = ("_ping", "_pong")


def received_fingerprint(job) -> str:
    """:func:`fingerprint` that also hashes the ping-pong's received payloads,
    which ``state_fingerprint`` skips as interpreter scratch."""
    return oracles.state_fingerprint(
        {k.lstrip("_") if k in RECEIVED_KEYS else k: v
         for k, v in dict(state).items()}
        for state in job.states)


def traffic(job) -> oracles.ConservationTotals:
    """The p2p conservation counters of the job's engine so far."""
    return oracles.conservation_totals(job.engine.metrics)


def conservation_errors(merged, golden) -> list:
    """Violations of sent == received and, given golden totals, of the
    golden traffic."""
    return oracles.check_conservation(merged, golden=golden)


#: benchmark counter -> always-on metric of the job's engine
_REGISTRY_COUNTERS = {
    "p2p_msgs": "mpi.p2p.recv_messages",
    "p2p_bytes": "mpi.p2p.recv_bytes",
    "collectives": "mpi.coll.ops",
    "fs_switches": "mana.fs_switches",
    "lookups": "mana.vhandle_lookups",
    "drained": "mana.drained_messages",
}


def job_counters(job) -> dict:
    """The job's layer counters: its engine's always-on metrics plus the
    wire statistics of its fabric and shared-memory transport."""
    metrics = job.engine.metrics
    out = {key: metrics.total(name) for key, name in _REGISTRY_COUNTERS.items()}
    nets = (job.world.fabric, job.world.shmem)
    out["transmits"] = sum(net.messages_sent for net in nets)
    out["net_bytes"] = sum(net.bytes_sent for net in nets)
    return out


def compaction_stats(ckpt) -> Optional[dict]:
    """Summed log-compaction statistics of a checkpoint set, if compacted."""
    return ckpt.meta.get("log_compaction")


def image_bytes(ckpt) -> int:
    """Modeled bytes of every image in a checkpoint set."""
    return ckpt.total_bytes


def corrupt_restored_value(ckpt, rank: int, key: str, delta: float) -> None:
    """Add ``delta`` to one application value in one rank's image payload.

    Only the benchmark's own test calls this, to prove that a restart that
    resumes from a wrong value is counted as a failure.  The value must be
    one that survives to the end of the run, like HPCG's ``checksum``.
    """
    image = ckpt.image_for(rank)
    payload = image.restore_state()
    payload["app_state"][key] = payload["app_state"][key] + delta
    image.payload = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
