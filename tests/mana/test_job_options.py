"""Job options ride in the checkpoint: a restart inherits them.

``launch_mana``'s ``protocol`` / ``compact`` are stamped into every
checkpoint's ``meta["options"]``; ``restart`` rebuilds them from there,
through a save/load round trip too, and only keywords a caller passes
override them (docs/architecture.md, "Job options").
"""

import pathlib

import pytest

from repro.facility.facility import Facility
from repro.hardware.cluster import make_cluster
from repro.mana import JobOptions, launch_mana, restart
from repro.mana.storage import load_checkpoint, save_checkpoint

from tests.mana.conftest import allreduce_factory, launch_small
from tests.mana.images.make_commchurn import app_config

IMAGES = pathlib.Path(__file__).parent / "images"


def _live_restart(ckpt, **overrides):
    """Restart ``ckpt`` onto InfiniBand/Open MPI and run until it resumed."""
    job = restart(ckpt, make_cluster("dst", 4, interconnect="infiniband"),
                  allreduce_factory(n_iters=8), mpi="openmpi",
                  ranks_per_node=1, **overrides)
    while not job.resumed.done:
        assert job.engine.step()
    return job


def test_restart_inherits_options_through_disk(small_cluster, tmp_path):
    job = launch_small(small_cluster, allreduce_factory(n_iters=8),
                       protocol="topo", compact=True)
    ckpt, report = job.checkpoint_at(1.0)
    assert report.protocol == "topo"
    assert ckpt.meta["options"] == {"protocol": "topo", "compact": True}
    save_checkpoint(ckpt, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")

    # no options passed: the restarted job checkpoints like its source
    ckpt2, report2 = _live_restart(loaded).checkpoint()
    assert report2.protocol == "topo"
    assert "log_compaction" in ckpt2.meta
    assert ckpt2.meta["options"] == {"protocol": "topo", "compact": True}

    # an explicit keyword wins over the inherited value
    ckpt3, report3 = _live_restart(loaded, protocol="alg2",
                                   compact=False).checkpoint()
    assert report3.protocol == "alg2"
    assert "log_compaction" not in ckpt3.meta
    assert ckpt3.meta["options"] == JobOptions().as_dict()


def test_image_without_options_restarts_with_defaults():
    ckpt = load_checkpoint(IMAGES / "commchurn_v1")
    assert "options" not in ckpt.meta
    spec, cfg = app_config()
    job = restart(ckpt, make_cluster("dst", 2, interconnect="infiniband"),
                  spec.build(cfg), ranks_per_node=2, mpi="openmpi")
    while not job.resumed.done:
        assert job.engine.step()
    ckpt2, report = job.checkpoint()
    assert report.protocol == JobOptions().protocol
    assert ckpt2.meta["options"] == JobOptions().as_dict()
    assert "log_compaction" not in ckpt2.meta


def test_invalid_options_fail_when_the_job_is_built(small_cluster):
    factory = allreduce_factory()
    with pytest.raises(ValueError, match="unknown checkpoint protocol"):
        launch_mana(small_cluster, factory, n_ranks=4, protocol="nope")
    with pytest.raises(ValueError, match="unknown checkpoint protocol"):
        Facility(small_cluster, protocol="nope")
    with pytest.raises(TypeError, match="compact must be a bool"):
        Facility(small_cluster, compact="yes")
    ckpt, _ = launch_small(small_cluster, factory).checkpoint_at(1.0)
    with pytest.raises(ValueError, match="unknown checkpoint protocol"):
        restart(ckpt, small_cluster, factory, protocol="nope")


def test_override_keeps_the_unpassed_fields():
    base = JobOptions(protocol="topo", compact=True)
    assert base.override() == base
    assert base.override(protocol=None, compact=False) == JobOptions("topo")
    assert JobOptions(**base.as_dict()) == base
