"""Point-to-point semantics of the simulated MPI world."""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.mpilib import MpiError, launch
from repro.mpilib.comm import ANY_SOURCE, ANY_TAG
from repro.simtime import Engine


def make_world(n_ranks=2, n_nodes=2, ranks_per_node=1, mpi="mpich",
               interconnect="tcp"):
    engine = Engine()
    cluster = make_cluster("t", n_nodes, cores_per_node=32,
                           interconnect=interconnect)
    world = launch(engine, cluster, n_ranks, ranks_per_node=ranks_per_node,
                   mpi=mpi)
    return engine, world


def test_eager_send_recv_delivers_payload():
    engine, world = make_world()
    data = np.arange(10.0)
    world.endpoints[0].send(1, data, tag=5)
    recv = world.endpoints[1].recv(source=0, tag=5)
    engine.run()
    got, status = recv.value
    assert np.array_equal(got, data)
    assert status.source == 0 and status.tag == 5


def test_send_buffer_has_value_semantics():
    engine, world = make_world()
    data = np.arange(4.0)
    world.endpoints[0].send(1, data)
    data[:] = -1  # mutate after send: receiver must see the original
    recv = world.endpoints[1].recv(source=0)
    engine.run()
    got, _ = recv.value
    assert np.array_equal(got, [0, 1, 2, 3])


def test_recv_before_send():
    engine, world = make_world()
    recv = world.endpoints[1].recv(source=0)
    engine.run()
    assert not recv.done  # nothing sent yet
    world.endpoints[0].send(1, np.ones(3))
    engine.run()
    assert recv.done


def test_unexpected_message_queued_then_matched():
    engine, world = make_world()
    world.endpoints[0].send(1, np.array([7.0]))
    engine.run()
    assert world.endpoints[1].unexpected_count == 1
    recv = world.endpoints[1].recv(source=0)
    engine.run()
    assert recv.done
    assert world.endpoints[1].unexpected_count == 0


def test_tag_matching_is_selective():
    engine, world = make_world()
    world.endpoints[0].send(1, np.array([1.0]), tag=1)
    world.endpoints[0].send(1, np.array([2.0]), tag=2)
    recv2 = world.endpoints[1].recv(source=0, tag=2)
    recv1 = world.endpoints[1].recv(source=0, tag=1)
    engine.run()
    assert recv2.value[0][0] == 2.0
    assert recv1.value[0][0] == 1.0


def test_wildcard_source_and_tag():
    engine, world = make_world(n_ranks=3, n_nodes=3)
    world.endpoints[2].send(0, np.array([9.0]), tag=42)
    recv = world.endpoints[0].recv(source=ANY_SOURCE, tag=ANY_TAG)
    engine.run()
    got, status = recv.value
    assert got[0] == 9.0
    assert status.source == 2 and status.tag == 42


def test_fifo_non_overtaking_same_tag():
    """A small message sent after a large one must not overtake it."""
    engine, world = make_world(mpi="mpich")
    big = np.zeros(1 << 10, dtype=np.uint8)       # still eager but slower
    world.endpoints[0].send(1, big, tag=0, size=1 << 10)
    world.endpoints[0].send(1, np.array([1.0]), tag=0, size=8)
    r1 = world.endpoints[1].recv(source=0, tag=0)
    r2 = world.endpoints[1].recv(source=0, tag=0)
    engine.run()
    first, _ = r1.value
    second, _ = r2.value
    assert first.nbytes == 1 << 10
    assert second[0] == 1.0


def test_rendezvous_used_above_eager_threshold():
    engine, world = make_world(mpi="mpich")  # eager threshold 16 KiB
    payload = np.zeros(1 << 20, dtype=np.uint8)
    send = world.endpoints[0].send(1, payload)
    engine.run()
    # No receiver posted: RTS parked, data NOT transferred, send incomplete.
    assert not send.done
    assert world.endpoints[1].unexpected_count == 1
    recv = world.endpoints[1].recv(source=0)
    engine.run()
    assert send.done
    assert recv.done
    assert recv.value[0].nbytes == 1 << 20


def test_rendezvous_recv_posted_first():
    engine, world = make_world(mpi="mpich")
    recv = world.endpoints[1].recv(source=0)
    engine.run()
    send = world.endpoints[0].send(1, np.zeros(1 << 20, dtype=np.uint8))
    engine.run()
    assert send.done and recv.done


def test_eager_send_completes_locally_without_receiver():
    engine, world = make_world(mpi="mpich")
    send = world.endpoints[0].send(1, np.array([1.0]))
    engine.run()
    assert send.done  # buffered at receiver, sender free


def test_self_send():
    engine, world = make_world(n_ranks=2, n_nodes=1, ranks_per_node=2)
    world.endpoints[0].send(0, np.array([5.0]), tag=3)
    recv = world.endpoints[0].recv(source=0, tag=3)
    engine.run()
    assert recv.value[0][0] == 5.0


def test_invalid_dest_raises():
    _, world = make_world()
    with pytest.raises(MpiError):
        world.endpoints[0].send(5, np.ones(1))


def test_intranode_uses_shmem_transport():
    engine, world = make_world(n_ranks=2, n_nodes=1, ranks_per_node=2)
    world.endpoints[0].send(1, np.ones(4))
    world.endpoints[1].recv(source=0)
    engine.run()
    assert world.shmem.messages_sent > 0
    assert world.fabric.messages_sent == 0


def test_internode_uses_fabric():
    engine, world = make_world(n_ranks=2, n_nodes=2, ranks_per_node=1)
    world.endpoints[0].send(1, np.ones(4))
    world.endpoints[1].recv(source=0)
    engine.run()
    assert world.fabric.messages_sent > 0


def test_intranode_faster_than_internode():
    def elapsed(n_nodes, ranks_per_node):
        engine, world = make_world(n_ranks=2, n_nodes=n_nodes,
                                   ranks_per_node=ranks_per_node)
        world.endpoints[0].send(1, np.zeros(1 << 12, dtype=np.uint8))
        world.endpoints[1].recv(source=0)
        engine.run()
        return engine.now

    assert elapsed(1, 2) < elapsed(2, 1)


def test_cancel_recv_removes_posting():
    engine, world = make_world()
    req = world.endpoints[1].irecv(source=0)
    assert world.endpoints[1].posted_recv_count == 1
    world.endpoints[1].cancel_recv(req)
    assert world.endpoints[1].posted_recv_count == 0
    # A message sent afterwards becomes unexpected rather than matching.
    world.endpoints[0].send(1, np.ones(1))
    engine.run()
    assert world.endpoints[1].unexpected_count == 1
    assert not req.completion.done


def test_cancel_recv_wrong_kind_raises():
    _, world = make_world()
    req = world.endpoints[0].isend(1, np.ones(1))
    with pytest.raises(MpiError):
        world.endpoints[0].cancel_recv(req)


def test_waitall():
    engine, world = make_world()
    for i in range(3):
        world.endpoints[0].isend(1, np.array([float(i)]))
    rreqs = [world.endpoints[1].irecv(source=0) for _ in range(3)]
    done = world.endpoints[1].waitall(rreqs)
    engine.run()
    assert done.done
    values = [v[0][0] for v in done.value]
    assert values == [0.0, 1.0, 2.0]


def test_in_flight_tracking_drains_to_zero():
    engine, world = make_world()
    world.endpoints[0].send(1, np.ones(8))
    assert world.in_flight_p2p > 0
    world.endpoints[1].recv(source=0)
    engine.run()
    assert world.in_flight_p2p == 0


def test_rendezvous_message_not_overtaken_by_later_eager_one():
    """MPI-3.1 §3.5: two messages from one sender that match one receive
    are received in the order sent, even when the first one is still
    waiting behind its request-to-send."""
    engine, world = make_world(mpi="mpich", interconnect="tcp")
    big = np.zeros(1 << 20, dtype=np.uint8)
    small = np.ones(1, dtype=np.float64)
    world.endpoints[0].send(1, big, tag=5)
    world.endpoints[0].send(1, small, tag=5)
    engine.run()
    assert world.endpoints[1].unexpected_count == 2
    first = world.endpoints[1].recv(source=0, tag=5)
    second = world.endpoints[1].recv(source=0, tag=5)
    engine.run()
    assert first.value[0].nbytes == 1 << 20
    assert first.value[1].size == 1 << 20
    assert np.array_equal(second.value[0], small)
    assert second.value[1].size == 8


def test_drain_sink_intercepts_arrivals():
    engine, world = make_world()
    sunk = []
    world.endpoints[1].drain_sink = sunk.append
    world.endpoints[0].send(1, np.array([3.0]), tag=9)
    engine.run()
    assert len(sunk) == 1
    assert sunk[0].tag == 9
    assert world.endpoints[1].unexpected_count == 0


def test_drain_sink_pulls_rendezvous_data():
    engine, world = make_world(mpi="mpich")
    send = world.endpoints[0].send(1, np.zeros(1 << 20, dtype=np.uint8))
    engine.run()
    assert not send.done
    sunk = []
    world.endpoints[1].drain_sink = sunk.append
    harvested = world.endpoints[1].harvest_unexpected()
    engine.run()
    assert harvested == []           # the RTS stub is not a data message
    assert len(sunk) == 1            # ...but its payload got pulled
    assert sunk[0].size == 1 << 20
    assert send.done                 # and the sender completed


def test_harvest_unexpected_returns_queued_eager():
    engine, world = make_world()
    world.endpoints[0].send(1, np.array([1.0]), tag=4)
    engine.run()
    got = world.endpoints[1].harvest_unexpected()
    assert len(got) == 1 and got[0].tag == 4
    assert world.endpoints[1].unexpected_count == 0


def test_p2p_statistics():
    engine, world = make_world()
    world.endpoints[0].send(1, np.zeros(128, dtype=np.uint8), size=128)
    world.endpoints[1].recv(source=0)
    engine.run()
    assert world.p2p_messages == 1
    assert world.p2p_bytes == 128
