"""On-disk checkpoint persistence: save / load / verify / restart-from-disk."""

import json
import pathlib
import shutil

import pytest

from repro.hardware.cluster import make_cluster
from repro.mana import CheckpointError, restart
from repro.mana.checkpoint_image import SCHEMA, CheckpointSet
from repro.mana.storage import describe_checkpoint, load_checkpoint, save_checkpoint

from tests.mana.conftest import allreduce_factory, launch_small


@pytest.fixture
def cluster():
    return make_cluster("disk", 2, interconnect="aries")


@pytest.fixture
def checkpoint(cluster):
    job = launch_small(cluster, allreduce_factory(n_iters=6))
    ckpt, _ = job.checkpoint_at(1.0)
    return ckpt


def test_save_load_round_trip(cluster, checkpoint, tmp_path):
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.n_ranks == checkpoint.n_ranks
    assert loaded.total_bytes == checkpoint.total_bytes
    for orig, back in zip(checkpoint.images, loaded.images):
        assert back.rank == orig.rank
        assert back.payload == orig.payload
        assert back.regions == orig.regions
        assert back.taken_at == orig.taken_at
    assert loaded.meta["source_cluster"] == "disk"


def test_restart_from_disk(cluster, checkpoint, tmp_path):
    """The full operational loop: save, forget everything, load, restart."""
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    del checkpoint

    loaded = load_checkpoint(tmp_path / "ckpt")
    dst = make_cluster("dst", 4, interconnect="tcp")
    job2 = restart(loaded, dst, allreduce_factory(n_iters=6),
                   ranks_per_node=1, mpi="openmpi")
    job2.run_to_completion()
    assert all(len(s["hist"]) == 6 for s in job2.states)


def test_manifest_contents(cluster, checkpoint, tmp_path):
    manifest_path = save_checkpoint(checkpoint, tmp_path / "ckpt")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == "mana-checkpoint/1"
    assert manifest["n_ranks"] == 4
    assert len(manifest["images"]) == 4
    assert all("sha256" in e for e in manifest["images"])


def test_corruption_detected(cluster, checkpoint, tmp_path):
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    victim = tmp_path / "ckpt" / "rank_00002.img"
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(tmp_path / "ckpt")


def test_corrupt_image_detected(cluster, checkpoint, tmp_path):
    """Overwritten bytes under an unchanged manifest fail the digest check
    (a wrong header under a true digest: test_image_corpus.py)."""
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    victim = tmp_path / "ckpt" / "rank_00001.img"
    blob = victim.read_bytes()
    victim.write_bytes(b"NOTMANA!" + blob[8:])
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(tmp_path / "ckpt")


def test_truncated_manifest_detected(tmp_path):
    """A manifest whose image list lost an entry must not load as a
    smaller job."""
    directory = tmp_path / "ckpt"
    shutil.copytree(pathlib.Path(__file__).parent / "images" / "commchurn_v2",
                    directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["images"][-1]
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="3 images for 4 ranks"):
        load_checkpoint(directory)


def test_save_refuses_a_different_rank_count(checkpoint, tmp_path):
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    two = CheckpointSet(images=checkpoint.images[:2], meta=checkpoint.meta)
    with pytest.raises(CheckpointError, match="4-rank"):
        save_checkpoint(two, tmp_path / "ckpt")
    assert load_checkpoint(tmp_path / "ckpt").n_ranks == 4
    save_checkpoint(checkpoint, tmp_path / "ckpt")  # same count: rewritten


def test_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        load_checkpoint(tmp_path)


def test_describe_checkpoint(cluster, checkpoint, tmp_path):
    save_checkpoint(checkpoint, tmp_path / "ckpt")
    info = describe_checkpoint(tmp_path / "ckpt")
    assert info["n_ranks"] == 4
    assert info["schema"] == SCHEMA
    assert info["total_modeled_bytes"] == checkpoint.total_bytes
    assert any(name == "app-data" for name, _size in info["regions_rank0"])
    assert info["meta"]["source_mpi"] == "mpich"  # the cluster's default
