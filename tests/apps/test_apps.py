"""The five mini-apps: registry, correctness, determinism, MANA-compat."""

import numpy as np
import pytest

from repro.apps import APP_REGISTRY, get_app
from repro.apps.base import roll
from repro.apps.lulesh import cube_ranks
from repro.hardware.cluster import cori, make_cluster
from repro.mana import launch_mana, restart
from repro.runtime.native import run_native

ALL_APPS = sorted(APP_REGISTRY)


def run_app_native(name, n_ranks=8, n_steps=4, cluster=None):
    spec = get_app(name)
    cfg = spec.default_config.scaled(n_steps=n_steps)
    cluster = cluster or cori(1)
    n = spec.valid_ranks(n_ranks)
    return run_native(cluster, spec.build(cfg), n_ranks=n, ranks_per_node=n)


def test_registry_has_the_papers_five_plus_extension():
    assert ALL_APPS == ["clamr", "commchurn", "gromacs", "hpcg", "lulesh",
                        "minife", "npbft"]


def test_unknown_app_raises():
    with pytest.raises(ValueError, match="unknown app"):
        get_app("namd")


@pytest.mark.parametrize("name", ALL_APPS)
def test_app_runs_and_produces_trace(name):
    job = run_app_native(name)
    for state in job.states:
        assert state["checksum"] != 0.0
        trace_keys = [k for k in state if k.endswith("_trace")]
        assert trace_keys, "every app records a per-step trace"
        assert all(len(state[k]) > 0 for k in trace_keys)


@pytest.mark.parametrize("name", ALL_APPS)
def test_app_deterministic(name):
    a = run_app_native(name)
    b = run_app_native(name)
    for sa, sb in zip(a.states, b.states):
        assert sa["checksum"] == sb["checksum"]
    assert a.engine.now == b.engine.now


@pytest.mark.parametrize("name", ALL_APPS)
def test_app_single_rank(name):
    job = run_app_native(name, n_ranks=1)
    assert job.states[0]["checksum"] != 0.0


@pytest.mark.parametrize("name", ALL_APPS)
def test_app_checkpoint_restart_exact(name):
    spec = get_app(name)
    cfg = spec.default_config.scaled(n_steps=5)
    cluster = cori(2)
    n = spec.valid_ranks(8)
    rpn = -(-n // 2)

    baseline = launch_mana(cluster, spec.build(cfg), n_ranks=n,
                           ranks_per_node=rpn, app_mem_bytes=1 << 20).start()
    baseline.run_to_completion()
    t_total = baseline.engine.now

    job = launch_mana(cluster, spec.build(cfg), n_ranks=n,
                      ranks_per_node=rpn, app_mem_bytes=1 << 20).start()
    ckpt, _ = job.checkpoint_at(t_total * 0.5)
    dst = make_cluster("dst", n, cores_per_node=8, interconnect="tcp")
    job2 = restart(ckpt, dst, spec.build(cfg), ranks_per_node=1, mpi="openmpi")
    job2.run_to_completion()
    for s2, sb in zip(job2.states, baseline.states):
        assert s2["checksum"] == sb["checksum"]


@pytest.mark.parametrize("n", [1, 8, 32, 64])
@pytest.mark.parametrize("shift", [-3, -1, 0, 1, 2, 65])
def test_roll_is_np_roll(n, shift):
    v = np.random.default_rng(n).random(n)
    got = roll(v, shift)
    assert np.array_equal(got, np.roll(v, shift))
    got[:] = -1  # a new array, like np.roll's
    assert (v >= 0).all()


class TestCubeRanks:
    @pytest.mark.parametrize("n,expect", [
        (1, 1), (7, 1), (8, 8), (26, 8), (27, 27), (64, 64), (100, 64),
        (511, 343), (512, 512), (2048, 1728),
    ])
    def test_largest_cube(self, n, expect):
        assert cube_ranks(n) == expect


class TestMemoryModels:
    def test_gromacs_flat(self):
        spec = get_app("gromacs")
        cfg = spec.default_config
        assert spec.memory_bytes(cfg, 0, 64) == spec.memory_bytes(cfg, 0, 2048)
        assert 85 << 20 < spec.memory_bytes(cfg, 0, 64) < 100 << 20

    def test_hpcg_weak_scaling_2gb(self):
        spec = get_app("hpcg")
        assert spec.memory_bytes(spec.default_config, 0, 2048) == 2048 << 20

    def test_lulesh_strong_scaling_shrinks(self):
        spec = get_app("lulesh")
        cfg = spec.default_config
        assert spec.memory_bytes(cfg, 0, 64) > spec.memory_bytes(cfg, 0, 512)

    def test_minife_shrinks_with_nodes(self):
        spec = get_app("minife")
        cfg = spec.default_config
        assert spec.memory_bytes(cfg, 0, 64) > spec.memory_bytes(cfg, 0, 2048)


def test_clamr_imbalance_varies_by_rank_and_step():
    from repro.apps.clamr import _imbalance_factor

    factors = {
        (r, s): _imbalance_factor({"rank": r, "step": s})
        for r in range(4) for s in range(4)
    }
    assert len({round(v, 6) for v in factors.values()}) > 8
    assert all(0.6 <= v <= 1.4 for v in factors.values())


def test_gromacs_has_higher_call_density_than_hpcg():
    """The profile property behind Fig. 2's overhead ordering."""
    gj = run_app_native("gromacs", n_steps=3)
    hj = run_app_native("hpcg", n_steps=3)

    def calls_per_compute(job):
        calls = sum(ep.calls for ep in job.world.endpoints)
        compute = sum(d.compute_seconds for d in job.drivers)
        return calls / compute

    assert calls_per_compute(gj) > 5 * calls_per_compute(hj)
