"""The checkpoint lifecycle (periodic + induced cuts) and Young/Daly."""

import math

import pytest

from repro.hardware.cluster import make_cluster
from repro.mana import restart
from repro.mana.autockpt import (
    CheckpointLifecycle,
    CheckpointPruner,
    young_daly_interval,
)

from tests.mana.conftest import allreduce_factory, launch_small


@pytest.fixture
def cluster():
    return make_cluster("auto", 2, interconnect="aries")


def _lifecycle(job, interval, store=None, cap=None):
    """A started lifecycle and the list its finished cuts land in; ``cap``
    stops it after that many cuts."""
    life = CheckpointLifecycle(job, interval, store)
    reports = []

    def on_cut(report):
        reports.append(report)
        if cap is not None and len(reports) >= cap:
            life.stop()

    life.on_cut.append(on_cut)
    life.start()
    return life, reports


def test_young_daly():
    assert young_daly_interval(3600.0, 30.0) == pytest.approx(
        math.sqrt(2 * 30 * 3600)
    )
    with pytest.raises(ValueError):
        young_daly_interval(0, 1)


def test_periodic_checkpoints_taken(cluster):
    job = launch_small(cluster, allreduce_factory(n_iters=10))
    life, reports = _lifecycle(job, interval=1.4)
    job.run_to_completion()
    assert len(reports) >= 2
    assert sum(r.total_time for r in reports) > 0
    assert all(len(s["hist"]) == 10 for s in job.states)
    # every set is stamped on the one completion path job.checkpoint() uses
    assert life.store.latest() is reports[-1].ckpt_set
    assert reports[-1].ckpt_set.meta["options"] == {"protocol": "alg2",
                                                    "compact": False}


def test_max_checkpoints_cap(cluster):
    job = launch_small(cluster, allreduce_factory(n_iters=10))
    _life, reports = _lifecycle(job, interval=0.8, cap=2)
    job.run_to_completion()
    assert len(reports) == 2


def test_save_and_prune(cluster, tmp_path):
    job = launch_small(cluster, allreduce_factory(n_iters=10))
    pruner = CheckpointPruner(tmp_path, keep=2)
    _life, reports = _lifecycle(job, interval=1.0, store=pruner)
    job.run_to_completion()
    assert len(reports) > 2
    assert len(pruner.saved_dirs) == 2
    remaining = sorted(p.name for p in tmp_path.iterdir())
    assert remaining == sorted(p.name for p in pruner.saved_dirs)
    assert pruner.latest_dir is not None


def test_recover_from_latest(cluster, tmp_path):
    factory = allreduce_factory(n_iters=10)
    baseline = launch_small(cluster, factory)
    baseline.run_to_completion()

    job = launch_small(cluster, factory)
    pruner = CheckpointPruner(tmp_path)
    _lifecycle(job, interval=1.2, store=pruner)
    job.run_to_completion()
    recovered = restart(pruner.latest(), cluster, factory, ranks_per_node=2)
    recovered.run_to_completion()
    assert [s["hist"] for s in recovered.states] == \
        [s["hist"] for s in baseline.states]


def test_bad_args(cluster):
    job = launch_small(cluster, allreduce_factory(n_iters=2))
    with pytest.raises(ValueError):
        CheckpointLifecycle(job, interval=0)
    with pytest.raises(ValueError):
        CheckpointPruner("unused", keep=0)
    job.run_to_completion()


def test_no_checkpoint_if_job_finishes_first(cluster):
    job = launch_small(cluster, allreduce_factory(n_iters=2))
    _life, reports = _lifecycle(job, interval=1e6)
    job.run_to_completion()
    assert reports == []


def test_until_deadline_interrupts(cluster, tmp_path):
    """Injected failure: the job is abandoned at a deadline, and the sets
    saved before it recover the run."""
    factory = allreduce_factory(n_iters=10)
    job = launch_small(cluster, factory)
    pruner = CheckpointPruner(tmp_path)
    life, reports = _lifecycle(job, interval=1.0, store=pruner)
    job.run_until(2.6)
    life.stop()
    assert not job.finished.done
    assert len(reports) >= 1

    baseline = launch_small(cluster, factory)
    baseline.run_to_completion()
    recovered = restart(pruner.latest(), cluster, factory, ranks_per_node=2)
    recovered.run_to_completion()
    assert [s["hist"] for s in recovered.states] == \
        [s["hist"] for s in baseline.states]


def test_induced_cut_waits_for_start_and_in_flight_cut_serves_it(cluster):
    """A request before :meth:`start` cuts at start, not before; one made
    while a cut is in flight is served by that cut."""
    job = launch_small(cluster, allreduce_factory(n_iters=6))
    life = CheckpointLifecycle(job)
    reports = []
    life.on_cut.append(reports.append)
    life.request()
    job.run_until(0.5)
    assert reports == [] and not life.busy
    life.start()
    assert life.busy
    life.request()  # served by the cut in flight
    job.run_to_completion()
    assert len(reports) == 1
    assert reports[0].ckpt_set.meta["taken_at"] > 0.5
