"""CheckpointPruner retention and the lifecycle's end-of-job semantics."""

import pytest

from repro.hardware.cluster import make_cluster
from repro.mana.autockpt import CheckpointLifecycle, CheckpointPruner

from tests.mana.conftest import allreduce_factory, launch_small


@pytest.fixture
def cluster():
    return make_cluster("prune", 2, interconnect="aries")


def _one_ckpt(cluster):
    job = launch_small(cluster, allreduce_factory(n_iters=6))
    ckpt, _ = job.checkpoint_at(0.5)
    return ckpt


def test_pruner_keeps_newest_generations(cluster, tmp_path):
    ckpt = _one_ckpt(cluster)
    pruner = CheckpointPruner(tmp_path, keep=2)
    for _ in range(4):
        pruner.save(ckpt)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["ckpt_0002", "ckpt_0003"]
    assert [p.name for p in pruner.saved_dirs] == names
    assert pruner.latest_dir.name == "ckpt_0003"


def test_pruner_never_deletes_the_newest(cluster, tmp_path):
    ckpt = _one_ckpt(cluster)
    pruner = CheckpointPruner(tmp_path, keep=1)
    for i in range(3):
        target = pruner.save(ckpt)
        # after every save, the set just written is on disk and readable
        assert target.exists()
        assert pruner.latest_dir == target
        assert [p.name for p in pruner.saved_dirs] == [f"ckpt_{i:04d}"]


def test_pruner_rejects_keep_below_one(tmp_path):
    with pytest.raises(ValueError):
        CheckpointPruner(tmp_path, keep=0)


def test_total_time_is_finish_time_not_deadline(cluster):
    # a finished job stops its lifecycle: the periodic cut armed far
    # beyond the end is cancelled, so the clock stops at the finish
    factory = allreduce_factory(n_iters=4)
    ref = launch_small(make_cluster("prune3", 2, interconnect="aries"),
                       factory)
    ref_time = ref.run_to_completion()

    job = launch_small(cluster, factory)
    life = CheckpointLifecycle(job, interval=100.0)
    reports = []
    life.on_cut.append(reports.append)
    life.start()
    total_time = job.run_to_completion()
    assert reports == []
    assert total_time == pytest.approx(ref_time)
    assert total_time < 100.0
