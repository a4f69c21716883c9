"""Group handles under MANA: virtualization, algebra, replay across restart."""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mana.virtualize import HandleKind
from repro.mpilib import SUM
from repro.mprog import Call, Compute, Loop, Program, Seq
from repro.simtime import Completion


def _resolved(api, value):
    done = Completion(api.rt.engine)
    done.resolve(value)
    return done


def group_factory(n_iters=4):
    """MPI_Comm_group -> Group_excl -> Comm_create(subgroup) -> use it."""

    def factory(rank, size):
        def make_group(s, api):
            wg = api.comm_group()
            sub = api.group_excl(wg, [size - 1])   # drop the last rank
            s["group_size"] = api.group_size(sub)
            s["my_pos"] = api.group_rank(sub)
            return _resolved(api, sub)

        def create(s, api):
            return api.comm_create(s["vgroup"])

        def use(s, api):
            if s["subcomm"] is None:
                return _resolved(api, None)
            return api.allreduce(np.array([1.0]), SUM, comm=s["subcomm"])

        def absorb(s):
            if s["res"] is not None:
                s.setdefault("sums", []).append(float(s["res"][0]))

        return Program(Seq(
            Call(make_group, store="vgroup"),
            Call(create, store="subcomm"),
            Loop(n_iters, Seq(
                Call(use, store="res"),
                Compute(absorb, cost=0.4),
            )),
        ), name="group-app")

    return factory


@pytest.fixture
def cluster():
    return make_cluster("grp", 2, interconnect="aries")


def run(cluster, factory, **kw):
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2,
                      app_mem_bytes=1 << 20, **kw).start()
    return job


def test_group_algebra_and_comm_create(cluster):
    job = run(cluster, group_factory())
    job.run_to_completion()
    for r, s in enumerate(job.states):
        assert s["group_size"] == 3
        if r < 3:
            assert s["my_pos"] == r
            assert s["sums"] == [3.0] * 4
        else:
            assert s["my_pos"] is None
            assert s["subcomm"] is None
            assert "sums" not in s


def test_group_ops_are_logged(cluster):
    job = run(cluster, group_factory())
    job.run_to_completion()
    ops = [row[0] for row in job.runtimes[0].log.rows()]
    assert ops[:3] == ["comm_group", "group_excl", "comm_create"]


def test_group_handles_survive_restart(cluster):
    factory = group_factory(n_iters=6)
    baseline = run(cluster, factory)
    baseline.run_to_completion()

    job = run(cluster, factory)
    ckpt, _ = job.checkpoint_at(1.0)
    dst = make_cluster("dst", 4, interconnect="tcp")
    job2 = restart(ckpt, dst, factory, ranks_per_node=1, mpi="openmpi")
    job2.run_to_completion()
    for s2, sb in zip(job2.states, baseline.states):
        assert s2.get("sums") == sb.get("sums")
    # the group virtual id in app state resolves in the rebuilt table
    vgroup = job2.states[0]["vgroup"]
    g = job2.runtimes[0].table.resolve(HandleKind.GROUP, vgroup)
    assert g.world_ranks == (0, 1, 2)


def test_group_free_replay(cluster):
    def factory(rank, size):
        def make_and_free(s, api):
            wg = api.comm_group()
            sub = api.group_incl(wg, [0, 1])
            api.group_free(sub)
            api.group_free(wg)
            return _resolved(api, None)

        def work(s, api):
            return api.allreduce(np.ones(1), SUM)

        return Program(Seq(
            Call(make_and_free),
            Loop(3, Seq(Call(work, store="w"),
                        Compute(lambda s: None, cost=0.5))),
        ))

    job = run(cluster, factory)
    ckpt, _ = job.checkpoint_at(0.8)
    job2 = restart(ckpt, cluster, factory, ranks_per_node=2)
    job2.run_to_completion()
    assert job2.states[0]["w"][0] == 4.0
    assert not job2.runtimes[0].table.bound(HandleKind.GROUP)


def test_group_union_intersection(cluster):
    def factory(rank, size):
        def ops(s, api):
            wg = api.comm_group()
            a = api.group_incl(wg, [0, 1])
            b = api.group_incl(wg, [1, 2])
            s["union"] = api.group_size(api.group_union(a, b))
            s["inter"] = api.group_size(api.group_intersection(a, b))
            return _resolved(api, None)

        return Program(Call(ops))

    job = run(cluster, factory)
    job.run_to_completion()
    assert job.states[0]["union"] == 3
    assert job.states[0]["inter"] == 1
