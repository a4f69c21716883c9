"""ManaApi details: handle virtualization from the app's view, datatypes,
drained-buffer semantics, overhead accounting knobs."""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mana.rank_runtime import BufferedMsg, DrainBuffer
from repro.mana.virtualize import HandleKind
from repro.mpilib import DOUBLE, SUM
from repro.mpilib.comm import ANY_SOURCE, ANY_TAG
from repro.mprog import Call, Compute, Loop, Program, Seq


@pytest.fixture
def cluster():
    return make_cluster("wrap", 2, interconnect="aries")


def run_factory(cluster, factory, n_ranks=2, rpn=1, **kw):
    job = launch_mana(cluster, factory, n_ranks=n_ranks, ranks_per_node=rpn,
                      app_mem_bytes=1 << 20, **kw).start()
    job.run_to_completion()
    return job


def test_sendrecv_under_mana(cluster):
    def factory(rank, size):
        def xchg(s, api):
            peer = 1 - s["rank"]
            return api.sendrecv(peer, np.array([float(s["rank"])]),
                                source=peer, tag=5)

        return Program(Seq(
            Call(xchg, store="got"),
            Compute(lambda s: s.__setitem__("peer_val", float(s["got"][0][0]))),
        ))

    job = run_factory(cluster, factory)
    assert job.states[0]["peer_val"] == 1.0
    assert job.states[1]["peer_val"] == 0.0


def test_recv_wildcards_under_mana(cluster):
    def factory(rank, size):
        if rank == 0:
            def recv_any(s, api):
                return api.recv(source=ANY_SOURCE, tag=ANY_TAG)

            return Program(Call(recv_any, store="got"))

        def send(s, api):
            return api.send(0, np.array([42.0]), tag=9)

        return Program(Call(send))

    job = run_factory(cluster, factory)
    data, status = job.states[0]["got"]
    assert data[0] == 42.0
    assert status.source == 1 and status.tag == 9


def test_datatype_virtualization(cluster):
    def factory(rank, size):
        def make(s, api):
            from repro.simtime import Completion

            vid = api.type_vector(4, 2, 3, DOUBLE)
            s["extent"] = api.resolve_type(vid).extent
            done = Completion(api.rt.engine)
            done.resolve(vid)
            return done

        return Program(Call(make, store="vid"))

    job = run_factory(cluster, factory)
    assert job.states[0]["extent"] == ((4 - 1) * 3 + 2) * 8
    assert isinstance(job.states[0]["vid"], int)
    assert list(job.runtimes[0].log.rows())[-1][0] == "type_create"


def test_comm_free_retires_handle_and_logs(cluster):
    def factory(rank, size):
        def dup(s, api):
            return api.comm_dup()

        def free(s, api):
            from repro.simtime import Completion

            api.comm_free(s["dup"])
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        return Program(Seq(Call(dup, store="dup"), Call(free)))

    job = run_factory(cluster, factory)
    rt = job.runtimes[0]
    assert [row[0] for row in rt.log.rows()] == ["comm_dup", "comm_free"]
    from repro.mana.virtualize import VirtualizationError

    with pytest.raises(VirtualizationError):
        rt.table.resolve(HandleKind.COMM, job.states[0]["dup"])


def test_comm_free_replay_round_trip(cluster):
    """Create + free + create again, checkpoint, restart: replay converges."""

    def factory(rank, size):
        def dup(s, api):
            return api.comm_dup()

        def free(s, api):
            from repro.simtime import Completion

            api.comm_free(s["dup1"])
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        def use(s, api):
            return api.allreduce(np.array([1.0]), SUM, comm=s["dup2"])

        return Program(Seq(
            Call(dup, store="dup1"),
            Call(free),
            Call(dup, store="dup2"),
            Loop(4, Seq(Call(use, store="x"),
                        Compute(lambda s: None, cost=0.3))),
        ))

    job = launch_mana(cluster, factory, n_ranks=2, ranks_per_node=1,
                      app_mem_bytes=1 << 20).start()
    ckpt, _ = job.checkpoint_at(0.7)
    job2 = restart(ckpt, cluster, factory, ranks_per_node=1, mpi="openmpi")
    job2.run_to_completion()
    assert job2.states[0]["x"][0] == 2.0


def test_topology_accessor_under_mana(cluster):
    def factory(rank, size):
        def cart(s, api):
            return api.cart_create([2, 1], [True, False])

        def probe(s, api):
            from repro.simtime import Completion

            topo = api.topology(s["cart"])
            s["dims"] = topo.dims
            s["me"] = api.comm_rank(s["cart"])
            s["n"] = api.comm_size(s["cart"])
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        return Program(Seq(Call(cart, store="cart"), Call(probe)))

    job = run_factory(cluster, factory)
    assert job.states[0]["dims"] == (2, 1)
    assert job.states[0]["n"] == 2
    assert job.states[1]["me"] == 1


def test_fs_switch_count_per_p2p_call(cluster):
    def factory(rank, size):
        if rank == 0:
            def send(s, api):
                return api.send(1, np.ones(1))

            return Program(Loop(10, Call(send)))

        def recv(s, api):
            return api.recv(source=0)

        return Program(Loop(10, Call(recv, store="g")))

    job = run_factory(cluster, factory)
    # each interposed call = one upper->lower->upper transition = 2 switches
    assert job.runtimes[0].proc.fs_switches == 20
    assert job.runtimes[1].proc.fs_switches == 20


def test_two_phase_disabled_skips_trivial_barriers(cluster):
    def factory(rank, size):
        def coll(s, api):
            return api.allreduce(np.ones(1), SUM)

        return Program(Loop(5, Call(coll, store="x")))

    job = launch_mana(cluster, factory, n_ranks=2, ranks_per_node=1,
                      app_mem_bytes=1 << 20)
    for rt in job.runtimes:
        rt.two_phase_enabled = False
    job.start()
    job.run_to_completion()
    assert all(rt.stats.trivial_barriers == 0 for rt in job.runtimes)
    assert job.states[0]["x"][0] == 2.0


class TestDrainBuffer:
    def _msg(self, vcomm=1, src=0, tag=0, seq=0, data=None):
        return BufferedMsg(vcomm=vcomm, src_world=src, tag=tag,
                           data=data, size=8, seq=seq)

    def test_fifo_per_source(self):
        buf = DrainBuffer()
        buf.add(self._msg(seq=0, data="first"))
        buf.add(self._msg(seq=1, data="second"))
        assert buf.take(1, 0, 0).data == "first"
        assert buf.take(1, 0, 0).data == "second"
        assert buf.take(1, 0, 0) is None

    def test_wildcard_matching(self):
        buf = DrainBuffer()
        buf.add(self._msg(src=3, tag=7, data="x"))
        assert buf.take(1, ANY_SOURCE, ANY_TAG).data == "x"

    def test_selective_matching(self):
        buf = DrainBuffer()
        buf.add(self._msg(src=1, tag=1, data="a"))
        buf.add(self._msg(src=2, tag=2, data="b"))
        assert buf.take(1, 2, 2).data == "b"
        assert buf.take(1, 1, 1).data == "a"

    def test_comm_scoped(self):
        buf = DrainBuffer()
        buf.add(self._msg(vcomm=5, data="x"))
        assert buf.take(1, ANY_SOURCE, ANY_TAG) is None
        assert buf.take(5, ANY_SOURCE, ANY_TAG).data == "x"

    def test_snapshot_restore(self):
        import pickle

        buf = DrainBuffer()
        buf.add(self._msg(data=np.arange(3.0)))
        snap = pickle.loads(pickle.dumps(buf.snapshot()))
        buf2 = DrainBuffer()
        buf2.restore(snap)
        assert np.array_equal(buf2.take(1, 0, 0).data, np.arange(3.0))

    def test_later_arrival_sent_earlier_is_served_first(self):
        """A rendezvous payload drained after an eager record its sender
        sent later still comes out first (per-source send order)."""
        buf = DrainBuffer()
        buf.add(self._msg(seq=1, data="eager"))
        buf.add(self._msg(src=2, seq=0, data="other source"))
        buf.add(self._msg(seq=0, data="rendezvous"))
        assert buf.take(1, 0, 0).data == "rendezvous"
        assert buf.take(1, ANY_SOURCE, ANY_TAG).data == "eager"
        assert buf.take(1, ANY_SOURCE, ANY_TAG).data == "other source"

    def test_restored_entries_precede_a_fresh_lower_half(self):
        """Sequence numbers restart in the lower half a restart brings up:
        entries restored from an image stay ahead of later drains."""
        old = DrainBuffer()
        old.add(self._msg(seq=7, data="before restart"))
        buf = DrainBuffer()
        buf.restore(old.snapshot())
        buf.add(self._msg(seq=1, data="after restart, eager"))
        buf.add(self._msg(seq=0, data="after restart, rendezvous"))
        assert [buf.take(1, 0, 0).data for _ in range(3)] == [
            "before restart", "after restart, rendezvous",
            "after restart, eager"]
