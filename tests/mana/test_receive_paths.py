"""Every way a MANA receive completes, across a checkpoint and a restart.

A wrapper-level receive is served from one of three places: the receive
journal (a re-executed leaf getting back what it already received), the
drained-message buffer, or the lower half.  One 3-rank program mixes the
receive kinds that reach them: a multi-receive ``exchange`` leaf (one
receive with ``ANY_TAG``), an ``ANY_SOURCE`` receive with a single
possible sender, ``sendrecv``, and ``irecv``/``isend``/``waitall``, with
message sizes on both sides of every implementation's eager threshold.

It is checkpointed at cuts that land (a) inside the exchange after some of
its receives completed, so the image carries journal entries, and (b)
while drained messages sit in the buffer, and restarted onto another
MPI x fabric cell under both checkpoint protocols.  The restart, and the
source job running on after its checkpoint, must reach the fingerprint of
the uncheckpointed run.
"""

import numpy as np
import pytest

from repro.conformance.oracles import state_fingerprint
from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mpilib.comm import ANY_SOURCE, ANY_TAG
from repro.mprog import Call, Compute, Loop, Program, Seq
from repro.simtime import Completion

N_RANKS, N_STEPS = 3, 5
#: modeled sizes: far above and far below every eager threshold
BIG, SMALL = 1 << 20, 64
#: per-step compute: rank 2 lags, so ranks 0 and 1 wait inside the exchange
#: for rank 2's messages after receiving each other's
LAG, STEP = 2e-3, 1e-4
#: cut fractions of the uncheckpointed makespan, per protocol: where the
#: image holds journal entries, and where it holds drained messages only
JOURNAL_CUT = {"alg2": 0.15, "topo": 0.2}
BUFFER_CUT = {"alg2": 0.25, "topo": 0.3}


def _resolved(api, value):
    done = Completion(api.rt.engine)
    done.resolve(value)
    return done


def mixed_receives(rank, size):
    left, right = (rank - 1) % size, (rank + 1) % size

    def init(s):
        s["v"] = 1.0 + rank
        s["log"] = []

    def absorb(key):
        """Log every (data, status) result under ``key`` and fold it in."""
        def fn(s):
            results = s[key]
            if isinstance(results, tuple):
                results = [results]
            for item in results:
                if item is not None:
                    data, status = item
                    s["log"].append((float(data[0]), status.source,
                                     status.tag))
                    s["v"] += float(data[0])
        return Compute(fn)

    def exchange(s, api):
        payload = np.array([s["v"]])
        return api.exchange(
            sends=[(left, payload, 3, BIG if rank == 0 else SMALL),
                   (right, 2 * payload, 3, SMALL)],
            recvs=[(right, 3), (left, ANY_TAG)])

    def wildcard_send(s, api):
        return api.send(0, np.array([s["v"] + 0.5]), tag=7, size=SMALL)

    def wildcard_recv(s, api):
        return api.recv(source=ANY_SOURCE, tag=7)

    def shift(s, api):
        return api.sendrecv(right, np.array([3 * s["v"]]), source=left,
                            tag=4, size=SMALL)

    def post(s, api):
        return _resolved(api, [
            api.irecv(source=left, tag=9),
            api.isend(right, np.array([s["v"] - 1]), tag=9,
                      size=BIG if rank == 1 else SMALL)])

    def wait(s, api):
        return api.waitall(s["reqs"])

    def lag(s):
        return LAG if rank == 2 else STEP

    if rank == 0:
        wildcard = Seq(Call(wildcard_recv, store="w"), absorb("w"))
    elif rank == 2:
        wildcard = Call(wildcard_send)
    else:
        wildcard = Compute(lambda s: None)
    body = Seq(
        Compute(lambda s: None, cost=lag),
        Call(exchange, store="xr"), absorb("xr"),
        wildcard,
        Call(post, store="reqs"),
        Compute(lambda s: None, cost=lag),
        Call(shift, store="sh"), absorb("sh"),
        Call(wait, store="wr"), absorb("wr"),
    )
    return Program(Seq(Compute(init), Loop(N_STEPS, body)),
                   name="mixed-receives")


def _source():
    return make_cluster("src", N_RANKS, interconnect="aries",
                        default_mpi="craympich")


def _launch(protocol=None):
    return launch_mana(_source(), mixed_receives, n_ranks=N_RANKS,
                       ranks_per_node=1, app_mem_bytes=1 << 20,
                       protocol=protocol).start()


@pytest.fixture(scope="module")
def golden():
    """(fingerprint, makespan) of the uncheckpointed run."""
    job = _launch()
    makespan = job.run_to_completion()
    return state_fingerprint(job.states), makespan


def test_uncheckpointed_run_takes_every_receive_path(golden):
    job = _launch()
    job.run_to_completion()
    log0 = job.states[0]["log"]
    # exchange (tag 3, once through ANY_TAG), the ANY_SOURCE receive from
    # rank 2, sendrecv (tag 4) and the waited irecv (tag 9), every step
    assert len(log0) == 5 * N_STEPS
    assert {tag for _v, _src, tag in log0} == {3, 4, 7, 9}
    assert (log0[2][1], log0[2][2]) == (2, 7)


@pytest.mark.parametrize("cut, target", [
    (JOURNAL_CUT, ("infiniband", "openmpi")),
    (BUFFER_CUT, ("tcp", "mpich")),
], ids=["journal", "buffer"])
@pytest.mark.parametrize("protocol", ["alg2", "topo"])
def test_restart_reaches_the_uncheckpointed_state(golden, protocol, cut,
                                                  target):
    fingerprint, makespan = golden
    job = _launch(protocol)
    ckpt, _report = job.checkpoint_at(cut[protocol] * makespan)
    images = [ckpt.image_for(r).restore_state() for r in range(N_RANKS)]
    journaled = sum(len(s["recv_journal"]) for s in images)
    buffered = sum(len(s["buffer"]) for s in images)
    if cut is JOURNAL_CUT:
        assert journaled > 0, "the cut should land inside the exchange"
    else:
        assert journaled == 0 and buffered > 0, \
            "the cut should leave drained messages in the buffer"

    interconnect, mpi = target
    dst = make_cluster("dst", N_RANKS, interconnect=interconnect)
    resumed = restart(ckpt, dst, mixed_receives, ranks_per_node=1, mpi=mpi)
    resumed.run_to_completion()
    assert state_fingerprint(resumed.states) == fingerprint
    # the source job runs on from its own checkpoint just as well
    job.run_to_completion()
    assert state_fingerprint(job.states) == fingerprint
