"""Collective semantics and timing of the simulated MPI world."""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.mpilib import MAX, SUM, Group, MpiError, launch
from repro.mpilib.collectives import collective_duration
from repro.simtime import Engine


def make_world(n_ranks=4, n_nodes=4, ranks_per_node=1, mpi="mpich"):
    engine = Engine()
    cluster = make_cluster("t", n_nodes, cores_per_node=32, interconnect="aries")
    world = launch(engine, cluster, n_ranks, ranks_per_node=ranks_per_node, mpi=mpi)
    return engine, world


def run_collective(engine, world, fn):
    """Apply fn(endpoint) on every rank, run, return list of values."""
    dones = [fn(ep) for ep in world.endpoints]
    engine.run()
    assert all(d.done for d in dones), "collective did not complete"
    return [d.value for d in dones]


def test_barrier_completes_for_all():
    engine, world = make_world()
    values = run_collective(engine, world, lambda ep: ep.barrier())
    assert values == [None] * 4


def test_barrier_waits_for_last_arrival():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    d0 = world.endpoints[0].barrier()
    engine.run()
    assert not d0.done  # rank 1 has not arrived
    world.endpoints[1].barrier()
    engine.run()
    assert d0.done


def test_bcast_from_root():
    engine, world = make_world()
    payload = np.arange(5.0)
    values = run_collective(
        engine, world,
        lambda ep: ep.bcast(payload if ep.rank == 2 else None, root=2),
    )
    for v in values:
        assert np.array_equal(v, payload)


def test_bcast_results_are_independent_copies():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    payload = np.zeros(3)
    values = run_collective(
        engine, world,
        lambda ep: ep.bcast(payload if ep.rank == 0 else None, root=0),
    )
    values[0][0] = 99.0
    assert values[1][0] == 0.0


def test_reduce_to_root_only():
    engine, world = make_world()
    values = run_collective(
        engine, world,
        lambda ep: ep.reduce(np.array([float(ep.rank)]), SUM, root=1),
    )
    assert values[1][0] == 0 + 1 + 2 + 3
    assert values[0] is None and values[2] is None and values[3] is None


def test_allreduce_sum_and_max():
    engine, world = make_world()
    sums = run_collective(
        engine, world, lambda ep: ep.allreduce(np.array([ep.rank + 1.0]), SUM)
    )
    assert all(v[0] == 10.0 for v in sums)
    engine2, world2 = make_world()
    maxes = run_collective(
        engine2, world2, lambda ep: ep.allreduce(np.array([float(ep.rank)]), MAX)
    )
    assert all(v[0] == 3.0 for v in maxes)


def test_gather_order_at_root():
    engine, world = make_world()
    values = run_collective(
        engine, world, lambda ep: ep.gather(np.array([float(ep.rank)]), root=0)
    )
    gathered = values[0]
    assert [g[0] for g in gathered] == [0.0, 1.0, 2.0, 3.0]
    assert values[1] is None


def test_allgather():
    engine, world = make_world()
    values = run_collective(
        engine, world, lambda ep: ep.allgather(np.array([ep.rank * 2.0]))
    )
    for v in values:
        assert [g[0] for g in v] == [0.0, 2.0, 4.0, 6.0]


def test_scatter():
    engine, world = make_world()
    chunks = [np.array([float(i) * 10]) for i in range(4)]
    values = run_collective(
        engine, world,
        lambda ep: ep.scatter(chunks if ep.rank == 0 else None, root=0),
    )
    assert [v[0] for v in values] == [0.0, 10.0, 20.0, 30.0]


def test_scatter_wrong_chunk_count():
    engine, world = make_world()
    bad = [np.zeros(1)] * 3
    with pytest.raises(MpiError, match="scatter root"):
        for ep in world.endpoints:
            ep.scatter(bad if ep.rank == 0 else None, root=0)
        engine.run()


def test_alltoall_transposes():
    engine, world = make_world()
    values = run_collective(
        engine, world,
        lambda ep: ep.alltoall([np.array([ep.rank * 10.0 + j]) for j in range(4)]),
    )
    for r, v in enumerate(values):
        assert [x[0] for x in v] == [s * 10.0 + r for s in range(4)]


def test_reduce_scatter():
    engine, world = make_world()
    values = run_collective(
        engine, world,
        lambda ep: ep.reduce_scatter(np.arange(8.0) + ep.rank, SUM),
    )
    full = sum(np.arange(8.0) + r for r in range(4))
    for r, v in enumerate(values):
        assert np.array_equal(v, full[2 * r: 2 * r + 2])


def test_scan_prefix_sums():
    engine, world = make_world()
    values = run_collective(
        engine, world, lambda ep: ep.scan(np.array([1.0]), SUM)
    )
    assert [v[0] for v in values] == [1.0, 2.0, 3.0, 4.0]


def test_mismatched_collective_ops_raise():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    world.endpoints[0].barrier()
    with pytest.raises(MpiError, match="mismatch"):
        world.endpoints[1].allreduce(np.ones(1), SUM)


def test_mismatched_roots_raise():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    world.endpoints[0].bcast(np.ones(1), root=0)
    with pytest.raises(MpiError, match="root mismatch"):
        world.endpoints[1].bcast(None, root=1)


def test_non_member_rank_raises():
    engine, world = make_world()
    done = world.endpoints[0].comm_create(Group((0, 1)))
    for r in (1, 2, 3):
        world.endpoints[r].comm_create(Group((0, 1)))
    engine.run()
    sub = done.value
    with pytest.raises(MpiError, match="does not belong"):
        world.endpoints[2].barrier(sub)


def test_successive_collectives_match_in_order():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    a0 = world.endpoints[0].allreduce(np.array([1.0]), SUM)
    b0 = world.endpoints[0].allreduce(np.array([10.0]), SUM)
    a1 = world.endpoints[1].allreduce(np.array([2.0]), SUM)
    b1 = world.endpoints[1].allreduce(np.array([20.0]), SUM)
    engine.run()
    assert a0.value[0] == 3.0 and a1.value[0] == 3.0
    assert b0.value[0] == 30.0 and b1.value[0] == 30.0


def test_open_collectives_counter():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    world.endpoints[0].barrier()
    assert world.open_collectives == 1
    world.endpoints[1].barrier()
    engine.run()
    assert world.open_collectives == 0


class TestCommManagement:
    def test_comm_dup_shares_group_new_context(self):
        engine, world = make_world()
        dones = [ep.comm_dup() for ep in world.endpoints]
        engine.run()
        dups = [d.value for d in dones]
        ctxs = {c.context_id for c in dups}
        assert len(ctxs) == 1
        assert ctxs != {world.endpoints[0].comm_world.context_id}
        assert dups[0].group == world.endpoints[0].comm_world.group

    def test_comm_split_by_parity(self):
        engine, world = make_world()
        dones = [ep.comm_split(color=ep.rank % 2, key=ep.rank)
                 for ep in world.endpoints]
        engine.run()
        comms = [d.value for d in dones]
        assert comms[0].group.world_ranks == (0, 2)
        assert comms[1].group.world_ranks == (1, 3)
        assert comms[0].context_id == comms[2].context_id
        assert comms[0].context_id != comms[1].context_id

    def test_comm_split_key_orders_ranks(self):
        engine, world = make_world()
        dones = [ep.comm_split(color=0, key=-ep.rank) for ep in world.endpoints]
        engine.run()
        assert dones[0].value.group.world_ranks == (3, 2, 1, 0)

    def test_comm_split_ties_keep_parent_order(self):
        """MPI-3.1 §6.4.2: ranks with equal keys keep their order in the
        parent communicator, not their world order."""
        engine, world = make_world()
        reversed_ = run_collective(engine, world, lambda ep: ep.comm_split(
            color=0, key=-ep.rank))
        assert reversed_[0].group.world_ranks == (3, 2, 1, 0)
        again = run_collective(engine, world, lambda ep: ep.comm_split(
            color=0, key=0, comm=reversed_[ep.rank]))
        assert [c.group.world_ranks for c in again] == [(3, 2, 1, 0)] * 4

    def test_comm_split_undefined_color(self):
        engine, world = make_world()
        dones = [ep.comm_split(color=(-1 if ep.rank == 3 else 0), key=0)
                 for ep in world.endpoints]
        engine.run()
        assert dones[3].value is None
        assert dones[0].value.size == 3

    def test_undefined_split_rank_keeps_context_ids_in_step(self):
        """A rank left out of a split (MPI_UNDEFINED) still takes part in
        the instance: the next split of the same parent gives every rank
        one fresh context, and messages on it match."""
        engine, world = make_world()
        first = run_collective(engine, world, lambda ep: ep.comm_split(
            color=(-1 if ep.rank == 3 else 0), key=ep.rank))
        second = run_collective(engine, world, lambda ep: ep.comm_split(
            color=0, key=ep.rank))
        assert first[3] is None
        ctxs = {c.context_id for c in second}
        assert len(ctxs) == 1
        assert ctxs.isdisjoint({c.context_id for c in first[:3]})

        payload = np.array([3.0, 1.0])
        sent = world.endpoints[3].send(0, payload, tag=5, comm=second[3])
        got = world.endpoints[0].recv(3, tag=5, comm=second[0])
        engine.run()
        assert sent.done and got.done
        np.testing.assert_array_equal(got.value[0], payload)

    def test_comm_management_bookkeeping_is_bounded(self):
        """Dup + split + free rounds leave the per-context collective
        sequences and the open comm-management instances at a size that
        does not depend on the number of rounds."""
        engine, world = make_world()

        def churn(rounds):
            for i in range(rounds):
                dups = run_collective(engine, world, lambda ep: ep.comm_dup())
                splits = run_collective(engine, world, lambda ep: ep.comm_split(
                    color=(-1 if ep.rank == i % 4 else 0), key=ep.rank))
                run_collective(engine, world, lambda ep: ep.barrier(
                    comm=dups[ep.rank]))
                members = [ep for ep in world.endpoints if splits[ep.rank]]
                done = [ep.barrier(comm=splits[ep.rank]) for ep in members]
                engine.run()
                assert all(d.done for d in done)
                for ep in world.endpoints:
                    ep.comm_free(dups[ep.rank])
                    if splits[ep.rank] is not None:
                        ep.comm_free(splits[ep.rank])
            return (world._comm_creations.copy(),
                    [len(ep._coll_seq) for ep in world.endpoints])

        assert churn(3) == churn(12)
        assert world._comm_creations == {}

    def test_split_comm_is_usable(self):
        engine, world = make_world()
        dones = [ep.comm_split(color=ep.rank % 2, key=ep.rank)
                 for ep in world.endpoints]
        engine.run()
        comms = {ep.rank: d.value for ep, d in zip(world.endpoints, dones)}
        results = [
            world.endpoints[r].allreduce(np.array([1.0]), SUM, comm=comms[r])
            for r in range(4)
        ]
        engine.run()
        assert all(r.value[0] == 2.0 for r in results)

    def test_comm_create_non_member_gets_none(self):
        engine, world = make_world()
        grp = Group((1, 2))
        dones = [ep.comm_create(grp) for ep in world.endpoints]
        engine.run()
        assert dones[0].value is None
        assert dones[1].value.size == 2

    def test_successive_dups_get_distinct_contexts(self):
        engine, world = make_world(n_ranks=2, n_nodes=2)
        first = [ep.comm_dup() for ep in world.endpoints]
        engine.run()
        second = [ep.comm_dup() for ep in world.endpoints]
        engine.run()
        assert first[0].value.context_id != second[0].value.context_id
        assert second[0].value.context_id == second[1].value.context_id


class TestTopologyComms:
    def test_cart_create_attaches_topology(self):
        engine, world = make_world()
        dones = [ep.cart_create([2, 2], [True, False]) for ep in world.endpoints]
        engine.run()
        cart = dones[0].value
        assert cart.topology.dims == (2, 2)
        assert cart.context_id == dones[3].value.context_id

    def test_cart_create_size_mismatch(self):
        engine, world = make_world()
        with pytest.raises(MpiError, match="need"):
            world.endpoints[0].cart_create([3, 2], [False, False])

    def test_graph_create(self):
        engine, world = make_world()
        edges = [(1,), (0, 2), (1, 3), (2,)]
        dones = [ep.graph_create(edges) for ep in world.endpoints]
        engine.run()
        assert dones[0].value.topology.neighbors(1) == (0, 2)


class TestCollectiveTiming:
    def test_duration_models_positive_and_monotone_in_size(self):
        engine, world = make_world()
        net, impl = world.fabric, world.impl
        for op in ("barrier", "bcast", "allreduce", "gather", "alltoall"):
            small = collective_duration(op, 1 << 10, 8, net, impl)
            large = collective_duration(op, 1 << 22, 8, net, impl)
            assert small > 0
            assert large >= small

    def test_unknown_op_raises(self):
        engine, world = make_world()
        with pytest.raises(ValueError):
            collective_duration("fft", 1, 2, world.fabric, world.impl)

    def test_allreduce_algorithm_switch_is_continuousish(self):
        """Ring beats recursive doubling for big payloads at scale."""
        engine, world = make_world()
        net, impl = world.fabric, world.impl
        big = 8 << 20
        ring = collective_duration("allreduce", big, 64, net, impl)
        # recursive doubling estimate for same size
        from repro.mpilib.collectives import _log2ceil
        rd = _log2ceil(64) * (net.alpha + big / net.beta + 0.25e-9 * big)
        assert ring < rd

    def test_cray_collectives_faster_than_debug_mpich(self):
        def bench(mpi):
            engine, world = make_world(mpi=mpi)
            [ep.allreduce(np.zeros(1 << 14), SUM) for ep in world.endpoints]
            t0 = engine.now
            engine.run()
            return engine.now - t0

        assert bench("craympich") < bench("mpich-debug")


def test_ibarrier_returns_request():
    engine, world = make_world(n_ranks=2, n_nodes=2)
    req = world.endpoints[0].ibarrier()
    assert not req.done
    world.endpoints[1].ibarrier()
    engine.run()
    assert req.done
