"""Record-replay of persistent MPI calls (§2.2): communicators, topologies
and derived datatypes created before a checkpoint must work after restart on
a different MPI implementation."""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mana.virtualize import HandleKind
from repro.mpilib import DOUBLE, SUM
from repro.mprog import Call, Compute, Loop, Program, Seq


# ---------------------------------------------------------------- programs

def _split_comm(s, api):
    # even/odd sub-communicators
    return api.comm_split(color=s["rank"] % 2, key=s["rank"])


def _sub_allreduce(s, api):
    return api.allreduce(np.array([float(s["rank"])]), SUM, comm=s["subcomm"])


def _record_sub(s):
    s.setdefault("sub_results", []).append(float(s["subsum"][0]))


def _dup_world(s, api):
    return api.comm_dup()


def _dup_barrier(s, api):
    return api.barrier(comm=s["dupcomm"])


def _make_cart(s, api):
    return api.cart_create([2, 2], [True, True])


def _cart_exchange(s, api):
    topo = api.topology(s["cart"])
    me = api.comm_rank(s["cart"])
    _src, dst = topo.shift(me, dim=0, disp=1)
    src, _ = topo.shift(me, dim=0, disp=1)
    api.send(dst, np.array([float(me)]), tag=11, comm=s["cart"])
    return api.recv(source=src, tag=11, comm=s["cart"])


def _record_cart(s):
    data, status = s["cart_got"]
    s.setdefault("cart_results", []).append((float(data[0]), status.source))


def _make_type(s, api):
    from repro.simtime import Completion

    vid = api.type_contiguous(8, DOUBLE)
    s["vec_type"] = vid
    done = Completion(api.rt.engine)
    done.resolve(vid)
    return done


def comm_mgmt_factory(n_iters=4):
    def factory(rank, size):
        return Program(Seq(
            Call(_split_comm, store="subcomm"),
            Call(_dup_world, store="dupcomm"),
            Call(_make_cart, store="cart"),
            Call(_make_type, store="type_vid"),
            Loop(n_iters, Seq(
                Call(_sub_allreduce, store="subsum"),
                Compute(_record_sub, cost=0.3),
                Call(_cart_exchange, store="cart_got"),
                Compute(_record_cart),
                Call(_dup_barrier),
            )),
        ), name="comm-mgmt")

    return factory


@pytest.fixture
def cluster():
    return make_cluster("rr", 2, interconnect="aries", default_mpi="craympich")


def run_baseline(cluster, factory):
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    job.run_to_completion()
    return job


def test_comm_management_works_under_mana(cluster):
    job = run_baseline(cluster, comm_mgmt_factory())
    for r, s in enumerate(job.states):
        # even subcomm sums 0+2, odd sums 1+3
        expected = 2.0 if r % 2 == 0 else 4.0
        assert s["sub_results"] == [expected] * 4
        assert len(s["cart_results"]) == 4
        assert isinstance(s["subcomm"], int), "app must hold virtual handles"


def test_record_log_contains_persistent_calls(cluster):
    job = run_baseline(cluster, comm_mgmt_factory())
    ops = [row[0] for row in job.runtimes[0].log.rows()]
    assert ops[:4] == ["comm_split", "comm_dup", "cart_create", "type_create"]


def test_restart_replays_communicators(cluster):
    factory = comm_mgmt_factory(n_iters=6)
    baseline = run_baseline(cluster, factory)

    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(1.0)  # mid-loop: sub-comms already exist

    dst = make_cluster("dst", 4, interconnect="infiniband")
    job2 = restart(ckpt, dst, factory, mpi="openmpi", ranks_per_node=1)
    job2.run_to_completion()

    for s, b in zip(job2.states, baseline.states):
        assert s["sub_results"] == b["sub_results"]
        assert s["cart_results"] == b["cart_results"]


def test_replayed_real_handles_are_fresh(cluster):
    factory = comm_mgmt_factory(n_iters=5)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(1.0)
    old_sub_vid = job.states[0]["subcomm"]
    old_real = job.runtimes[0].table.resolve(HandleKind.COMM, old_sub_vid)

    dst = make_cluster("dst", 2, interconnect="tcp")
    # Open MPI mints pointer-style handles from a different value space than
    # Cray MPICH's tagged small integers.
    job2 = restart(ckpt, dst, factory, mpi="openmpi", ranks_per_node=2)
    job2.run_to_completion()
    assert job2.states[0]["subcomm"] == old_sub_vid  # virtual id stable
    new_real = job2.runtimes[0].table.resolve(HandleKind.COMM, old_sub_vid)
    assert new_real is not old_real
    assert new_real.handle != old_real.handle
    assert new_real.group.world_ranks == old_real.group.world_ranks


def test_cart_topology_survives_restart(cluster):
    factory = comm_mgmt_factory(n_iters=5)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(1.0)
    dst = make_cluster("dst", 2, interconnect="tcp")
    job2 = restart(ckpt, dst, factory, mpi="intelmpi", ranks_per_node=2)
    job2.run_to_completion()
    cart_vid = job2.states[0]["cart"]
    real = job2.runtimes[0].table.resolve(HandleKind.COMM, cart_vid)
    assert real.topology.dims == (2, 2)


def test_datatype_replay(cluster):
    factory = comm_mgmt_factory(n_iters=3)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(1.0)
    dst = make_cluster("dst", 2, interconnect="tcp")
    job2 = restart(ckpt, dst, factory, ranks_per_node=2)
    job2.run_to_completion()
    vid = job2.states[0]["vec_type"]
    dtype = job2.runtimes[0].table.resolve(HandleKind.DATATYPE, vid)
    assert dtype.extent == 8 * 8


def test_replay_time_counted_in_restart_report(cluster):
    factory = comm_mgmt_factory(n_iters=4)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(1.0)
    dst = make_cluster("dst", 2, interconnect="tcp")
    job2 = restart(ckpt, dst, factory, ranks_per_node=2)
    job2.run_to_completion()
    rep = job2.restart_report
    assert rep.replay_time > 0, "comm replay is collective work, takes time"
    # §3.4: opaque-id recreation is a small share of restart
    assert rep.replay_time < 0.5 * rep.total_time


# ----------------------------------------------- long-log iterative replay

def _build_local_heavy_table_and_log(n_entries):
    """An original-run table + log made (almost) entirely of local entries:
    derived datatypes and group algebra, with some handles freed again
    before the snapshot so replay exercises both bind paths."""
    from repro.mpilib.comm import Group
    from repro.mpilib.datatypes import contiguous
    from repro.mpilib import DOUBLE
    from repro.mana.record_replay import RecordLog
    from repro.mana.virtualize import VCOMM_WORLD, VirtualHandleTable

    class _WorldStub:
        group = Group((0, 1, 2, 3))

    world = _WorldStub()
    table = VirtualHandleTable()
    table.register(HandleKind.COMM, world, virtual=VCOMM_WORLD)
    log = RecordLog()

    gvid = table.register(HandleKind.GROUP, world.group)
    log.record("comm_group", (VCOMM_WORLD,), gvid,
               result_kind=HandleKind.GROUP)
    for i in range(n_entries):
        if i % 2 == 0:
            dt = contiguous(2 + i % 5, DOUBLE)
            vid = table.register(HandleKind.DATATYPE, dt)
            log.record("type_create", (dt.recipe, vid), vid,
                       result_kind=HandleKind.DATATYPE)
        else:
            derived = world.group.incl([0, 1])
            vid = table.register(HandleKind.GROUP, derived)
            log.record("group_incl", (gvid, (0, 1)), vid,
                       result_kind=HandleKind.GROUP)
            if i % 4 == 1:  # freed before the checkpoint: replay re-frees it
                table.unregister(HandleKind.GROUP, vid)
                log.record("group_free", (vid,), None,
                           result_kind=HandleKind.GROUP)
    return world, table, log


def test_long_local_log_replays_without_recursion():
    """Regression: ~1000+ consecutive local entries used to recurse through
    _step and blow the interpreter's recursion limit on restart."""
    import sys

    from repro.mana.record_replay import RecordLog, ReplayEngine
    from repro.mana.virtualize import VCOMM_WORLD, VirtualHandleTable
    from repro.simtime import Engine

    n_entries = 4 * sys.getrecursionlimit()  # far beyond any stack budget
    world, table, log = _build_local_heavy_table_and_log(n_entries)
    n_logged = len(log)

    fresh = VirtualHandleTable()
    fresh.restore(table.snapshot())
    fresh.rebind(HandleKind.COMM, VCOMM_WORLD, world)
    log2 = RecordLog()
    log2.restore(log.snapshot())

    engine = Engine()
    replay = ReplayEngine(engine, None, fresh, log2)
    replay.start()
    engine.run()

    assert replay.finished.done
    assert replay.finished.value == replay.replayed == n_logged
    # the table converged to the pre-checkpoint bindings, kind by kind
    for kind in HandleKind:
        assert sorted(fresh.bound(kind)) == sorted(table.bound(kind))


def test_log_entries_carry_result_kind():
    """Non-comm creations must not rebind into the COMM namespace: the
    recorded entry carries its handle kind through the checkpoint image."""
    from repro.mana.record_replay import RecordLog

    _world, _table, log = _build_local_heavy_table_and_log(8)
    log2 = RecordLog()
    log2.restore(log.snapshot())
    kinds = {op: kind for op, _args, _vid, kind in log2.rows()}
    assert kinds["type_create"] is HandleKind.DATATYPE
    assert kinds["group_incl"] is HandleKind.GROUP
    # default stays COMM so comm-management entries are unchanged
    log2.record("comm_dup", (1,), 1000)
    assert list(log2.rows())[-1] == ("comm_dup", (1,), 1000, HandleKind.COMM)
