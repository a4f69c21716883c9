"""A dropped MANA job is freed by reference counting, not the cycle collector.

A finished job holds every rank's record log, handle table and upper half,
and its lower half (the ``MpiWorld``).  The per-call state of the wrappers
is acyclic, and a dropped job breaks its remaining cycles once no event can
run it further, so all of that is released at ``del job`` — with the cycle
collector switched off.  A job that something else still reaches (an event
queued on its engine, a failure detector) is never kept alive by that
machinery: the cycle collector can always free it.
"""

import gc
import weakref

import pytest

from repro.apps import get_app
from repro.faults.detector import FailureDetector
from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.simtime import Engine

STEPS, RANKS = 20, 8


@pytest.fixture
def no_cycle_collector():
    """Switch the cycle collector off for the test, starting from a
    collected heap."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _program():
    spec = get_app("commchurn")
    return spec.build(spec.default_config.scaled(n_steps=STEPS))


def _launch(program, engine=None):
    cluster = make_cluster("aries", 2, interconnect="aries",
                           default_mpi="craympich")
    return launch_mana(cluster, program, n_ranks=RANKS, ranks_per_node=4,
                       app_mem_bytes=1 << 20, engine=engine).start()


def _restart(ckpt, program):
    dst = make_cluster("ib", 2, interconnect="infiniband")
    return restart(ckpt, dst, program, ranks_per_node=4, mpi="openmpi")


def _watch(job) -> list:
    """Weak references to every rank's record log and to the job's world."""
    return [weakref.ref(rt.log) for rt in job.runtimes] + [weakref.ref(job.world)]


def _alive(watched) -> int:
    return sum(ref() is not None for ref in watched)


def _run_finished_job() -> None:
    _launch(_program()).run_to_completion()


def test_finished_job_freed_at_del(no_cycle_collector):
    job = _launch(_program())
    job.run_to_completion()
    watched = _watch(job)
    del job
    assert _alive(watched) == 0


def test_restarted_job_freed_at_del(no_cycle_collector):
    program = _program()
    job = _launch(program)
    ckpt, _ = job.checkpoint_at(0.002)
    source = _watch(job)
    del job  # dropped mid-run, on its own engine, with events still queued
    assert _alive(source) == 0

    job = _restart(ckpt, program)
    job.run_to_completion()
    assert job.restart_report.replayed_entries > 0
    watched = _watch(job)
    del job
    assert _alive(watched) == 0


def test_restart_dropped_before_running_is_collectable(no_cycle_collector):
    """The queued replay refers to the job, so the job is on a cycle
    through its engine: the cycle collector, not the finalizer, frees it."""
    program = _program()
    source = _launch(program)
    ckpt, _ = source.checkpoint_at(0.002)
    del source
    job = _restart(ckpt, program)
    watched = _watch(job)
    del job
    gc.collect()
    assert _alive(watched) == 0


def test_job_abandoned_under_failure_detector_is_collectable(
        no_cycle_collector):
    """A failure detector's callback holds the job and its queued
    heartbeats hold the detector (as in ``run_resilient``)."""
    job = _launch(_program())
    detector = FailureDetector(job.engine, job.runtimes, period=2e-4)
    detector.on_failure.append(
        lambda rank, _job=job: _job.coordinator.notify_rank_failure(rank)
    )
    detector.start()
    job.run_until(0.001)
    detector.stop()
    assert job.engine.pending_events > 0
    watched = _watch(job)
    del job, detector
    gc.collect()
    assert _alive(watched) == 0


def test_finished_run_leaves_no_cyclic_garbage():
    _run_finished_job()  # first-use imports leave garbage of their own
    gc.collect()
    gc.disable()
    try:
        _run_finished_job()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{found} objects were left for the cycle collector"


def test_parts_kept_beyond_their_job_stay_readable(no_cycle_collector):
    """A dropped job's engine keeps its clock and metrics (its queued
    events are cancelled with the job), and a kept runtime or world keeps
    its state."""
    job = _launch(_program())
    job.run_until(0.002)
    engine, rt, world = job.engine, job.runtimes[0], job.world
    trivial_barriers = rt.stats.trivial_barriers
    del job
    assert engine.now == 0.002
    assert engine.metrics.total("mpi.coll.ops") > 0
    assert engine.pending_events == 0
    assert engine.run() == 0.002
    assert rt.stats.trivial_barriers == trivial_barriers > 0
    assert len(rt.log) > 0
    assert len(world.endpoints) == RANKS


def test_job_on_a_shared_engine(no_cycle_collector):
    """On a caller's engine, a job dropped mid-run keeps running, and a
    finished one is freed at ``del``."""
    engine = Engine()
    job = _launch(_program(), engine=engine)
    job.run_until(0.002)
    drivers = [rt.driver for rt in job.runtimes]
    del job
    engine.run()
    assert all(d.finished.done for d in drivers)
    del drivers
    gc.collect()

    job = _launch(_program(), engine=engine)
    job.run_to_completion()
    watched = _watch(job)
    del job
    assert _alive(watched) == 0
