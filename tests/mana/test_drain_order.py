"""Non-overtaking across a checkpoint (MPI-3.1 §3.5).

A rendezvous message sent before an eager one, on the same channel and
tag, must be received first, even when a checkpoint drains both into
MANA's buffer before the receiver posts.  The drain harvests the eager
record at once but buffers the rendezvous payload only when its data
arrives, so the buffer holds the two in the wrong order; the receive side
must still serve them in the sender's order.
"""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mprog import Call, Compute, Program, Seq
from repro.simtime import Completion

TAG = 5
#: modeled sizes: far above and far below every implementation's eager
#: threshold
BIG, SMALL = 1 << 20, 8
#: host seconds rank 1 computes before it posts its receives
LATE = 0.05


def _resolved(api, value=None):
    done = Completion(api.rt.engine)
    done.resolve(value)
    return done


def big_then_small(rank, size):
    """Rank 0 posts a rendezvous isend, then a blocking eager send, on one
    channel and tag; rank 1 computes, then receives twice."""

    def init(s):
        s["got"] = []

    def post_big(s, api):
        return _resolved(api, api.isend(1, np.array([1.0]), tag=TAG, size=BIG))

    def send_small(s, api):
        return api.send(1, np.array([2.0]), tag=TAG, size=SMALL)

    def wait_big(s, api):
        return api.wait(s["req"])

    def recv(s, api):
        return api.recv(source=0, tag=TAG)

    def absorb(s):
        s["got"].append(float(s["msg"][0][0]))

    if rank == 0:
        body = Seq(Call(post_big, store="req"), Call(send_small),
                   Call(wait_big))
    else:
        body = Seq(Compute(lambda s: None, cost=LATE),
                   Call(recv, store="msg"), Compute(absorb),
                   Call(recv, store="msg"), Compute(absorb))
    return Program(Seq(Compute(init), body))


@pytest.fixture
def cluster():
    return make_cluster("order", 2, interconnect="aries")


def _launch(cluster):
    return launch_mana(cluster, big_then_small, n_ranks=2, ranks_per_node=1,
                       app_mem_bytes=1 << 20).start()


def test_uncheckpointed_run_receives_in_send_order(cluster):
    job = _launch(cluster)
    job.run_to_completion()
    assert job.states[1]["got"] == [1.0, 2.0]


@pytest.mark.parametrize("mpi", ["mpich", "openmpi"])
def test_checkpoint_before_the_receives_keeps_send_order(cluster, mpi):
    job = _launch(cluster)
    ckpt, _report = job.checkpoint_at(LATE / 2)
    # both messages were drained into rank 1's buffer by the checkpoint
    assert len(job.runtimes[1].buffer) == 2
    restarted = restart(ckpt, cluster, big_then_small, ranks_per_node=1,
                        mpi=mpi)
    restarted.run_to_completion()
    assert restarted.states[1]["got"] == [1.0, 2.0]
    # the checkpointed job itself resumes from the same buffer
    job.run_to_completion()
    assert job.states[1]["got"] == [1.0, 2.0]
