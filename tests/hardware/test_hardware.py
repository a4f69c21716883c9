"""Kernel model, cluster placement, and Lustre storage model."""

import struct

import numpy as np
import pytest

from repro.hardware import Cluster, ClusterError, KernelModel, LustreModel
from repro.hardware.cluster import cori, local_cluster, make_cluster
from repro.hardware.kernelmodel import PATCHED, UNPATCHED
from repro.hardware.storage import median_and_p90


class TestKernelModel:
    def test_unpatched_uses_syscall_cost(self):
        k = KernelModel(fsgsbase_patched=False)
        assert k.fs_switch == k.fs_switch_syscall

    def test_patched_is_much_cheaper(self):
        assert PATCHED.fs_switch < UNPATCHED.fs_switch / 5

    def test_transition_is_two_switches(self):
        assert UNPATCHED.upper_lower_transition() == 2 * UNPATCHED.fs_switch


class TestClusterPlacement:
    def test_explicit_ranks_per_node(self):
        c = make_cluster("t", 4, cores_per_node=8)
        assert c.place_ranks(8, ranks_per_node=2) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_auto_placement_spreads_evenly(self):
        c = make_cluster("t", 4, cores_per_node=8)
        placement = c.place_ranks(6)
        counts = {n: placement.count(n) for n in set(placement)}
        assert max(counts.values()) - min(counts.values()) <= 1
        assert len(placement) == 6

    def test_auto_placement_more_nodes_than_ranks(self):
        c = make_cluster("t", 8)
        assert len(set(c.place_ranks(3))) == 3

    def test_too_many_ranks_raises(self):
        c = make_cluster("t", 2, cores_per_node=8)
        with pytest.raises(ClusterError, match="need"):
            c.place_ranks(32, ranks_per_node=8)

    def test_oversubscription_raises(self):
        c = make_cluster("t", 2, cores_per_node=8)
        with pytest.raises(ClusterError, match="oversubscribes"):
            c.place_ranks(16, ranks_per_node=16)

    def test_nonpositive_counts_raise(self):
        c = make_cluster("t", 2)
        with pytest.raises(ClusterError):
            c.place_ranks(0)
        with pytest.raises(ClusterError):
            c.place_ranks(4, ranks_per_node=0)

    def test_node_lookup(self):
        c = make_cluster("t", 2)
        assert c.node(1).node_id == 1
        with pytest.raises(ClusterError):
            c.node(99)

    def test_presets_describe_the_papers_testbeds(self):
        assert cori(4).interconnect == "aries"
        assert cori(4).default_mpi == "craympich"
        assert cori(4).nodes[0].cores == 32
        assert local_cluster(2).interconnect == "infiniband"
        assert local_cluster(2).default_mpi == "openmpi"


class TestLustreModel:
    def test_single_writer_exact_time(self):
        fs = LustreModel(per_node_bandwidth=1e9, per_file_overhead=0.0)
        rep = fs.burst([1_000_000_000], node_of=[0], rng=None)
        assert rep.max_time == pytest.approx(1.0)
        assert rep.total_bytes == 1_000_000_000

    def test_node_contention_halves_bandwidth(self):
        fs = LustreModel(per_node_bandwidth=1e9, per_file_overhead=0.0)
        solo = fs.burst([1 << 30], node_of=[0], rng=None).max_time
        shared = fs.burst([1 << 30, 1 << 30], node_of=[0, 0], rng=None).max_time
        assert shared == pytest.approx(2 * solo)

    def test_separate_nodes_do_not_contend(self):
        fs = LustreModel(per_node_bandwidth=1e9, aggregate_bandwidth=1e12,
                         per_file_overhead=0.0)
        solo = fs.burst([1 << 30], node_of=[0], rng=None).max_time
        spread = fs.burst([1 << 30, 1 << 30], node_of=[0, 1], rng=None).max_time
        assert spread == pytest.approx(solo)

    def test_aggregate_ceiling_applies(self):
        fs = LustreModel(per_node_bandwidth=1e9, aggregate_bandwidth=2e9,
                         per_file_overhead=0.0)
        rep = fs.burst([1 << 30] * 8, node_of=list(range(8)), rng=None)
        # 8 GiB through a 2 GB/s backend: ~4.3 s, not ~1.07 s
        assert rep.max_time > 4.0

    def test_stragglers_bounded_and_reproducible(self):
        fs = LustreModel()
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        a = fs.burst([1 << 28] * 64, node_of=[i // 8 for i in range(64)], rng=rng1)
        b = fs.burst([1 << 28] * 64, node_of=[i // 8 for i in range(64)], rng=rng2)
        assert np.array_equal(a.per_rank, b.per_rank)
        assert a.max_time <= fs.straggler_cap * a.p90_time + 1e-9
        assert a.max_time >= a.median_time

    def test_reads_cheaper_fixed_cost(self):
        fs = LustreModel(per_node_bandwidth=1e9, per_file_overhead=1.0)
        w = fs.burst([0x1000], node_of=[0], rng=None, read=False).max_time
        r = fs.burst([0x1000], node_of=[0], rng=None, read=True).max_time
        assert r < w

    def test_empty_burst(self):
        rep = LustreModel().burst([], node_of=[])
        assert rep.max_time == 0.0 and rep.total_bytes == 0

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            LustreModel().burst([1], node_of=[])

    def test_median_and_p90_are_numpys_bit_for_bit(self):
        def bits(x: float) -> bytes:
            return struct.pack("<d", x)

        rng = np.random.default_rng(7)
        for n in range(1, 66):
            for _ in range(10):
                values = rng.pareto(1.5, size=n) * rng.uniform(1e-3, 1e3)
                median, p90 = median_and_p90(values)
                assert bits(median) == bits(float(np.median(values))), n
                assert bits(p90) == bits(float(np.percentile(values, 90))), n
