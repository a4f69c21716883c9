"""The pluggable protocol layer: alg2 vs topo, differentially.

The tentpole claim, at unit scale: both engines cut the same consistent
cut.  A checkpoint + cross-cluster restart must finish with bit-identical
state fingerprints whichever protocol drove it — on a collective-heavy app
(laggard classification) and on a p2p ring (in-flight drain + the full
dependency-cycle fallback).  The topo engine must also be *why* you'd pick
it: its quiesce wait (intent → first drain) is one control round, below
alg2's multi-round global quiesce on the same cut.
"""

import pytest

from repro.conformance.oracles import state_fingerprint
from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mana.protocol import PROTOCOLS
from repro.mana.protocol_engine import make_protocol

from tests.mana.conftest import (
    allreduce_factory,
    expected_ring_acc,
    launch_small,
    ring_factory,
)


def _cycle(factory, protocol, t_ckpt=0.6, n_ranks=4):
    """checkpoint on aries/craympich at ``t_ckpt``, restart on tcp/mpich."""
    src = make_cluster("src", 2, interconnect="aries",
                       default_mpi="craympich")
    job = launch_small(src, factory, n_ranks=n_ranks, protocol=protocol)
    ckpt, report = job.checkpoint_at(t_ckpt)
    dst = make_cluster("dst", 2, interconnect="tcp", default_mpi="mpich")
    job2 = restart(ckpt, dst, factory, mpi="mpich", protocol=protocol)
    job2.run_to_completion()
    return state_fingerprint(job2.states), report


@pytest.mark.parametrize("factory_fn,kw", [
    (allreduce_factory, {}),                  # collective-heavy: laggards
    (ring_factory, {"n_steps": 6}),           # p2p in flight: drain + cycle
])
def test_restart_fingerprints_bit_identical_across_protocols(factory_fn, kw):
    fp_alg2, rep_alg2 = _cycle(factory_fn(**kw), "alg2")
    fp_topo, rep_topo = _cycle(factory_fn(**kw), "topo")
    assert fp_alg2 == fp_topo
    assert rep_alg2.protocol == "alg2" and rep_topo.protocol == "topo"


def test_topo_quiesce_wait_below_alg2_on_collectives():
    """The headline latency win: one control round vs alg2's 2+extra."""
    _fp_a, rep_alg2 = _cycle(allreduce_factory(), "alg2")
    _fp_t, rep_topo = _cycle(allreduce_factory(), "topo")
    assert rep_topo.quiesce_wait > 0
    assert rep_topo.quiesce_wait < rep_alg2.quiesce_wait
    # alg2's quiesce wait covers the intent rounds + bookmark collection
    assert rep_alg2.rounds >= 1 and rep_topo.rounds == 1


def test_ring_cycle_takes_fallback_and_restart_is_exact():
    """The full send ring is one dependency cycle: every rank must land in
    the bounded-drain fallback, and the image must still be exact."""
    n, steps = 4, 6
    fp_topo, rep = _cycle(ring_factory(n_steps=steps), "topo")
    assert set(rep.fallback_ranks) == set(range(n))

    # golden: the same app, never checkpointed
    src = make_cluster("gold", 2, interconnect="aries",
                       default_mpi="craympich")
    job = launch_small(src, ring_factory(n_steps=steps), n_ranks=n)
    job.run_to_completion()
    assert fp_topo == state_fingerprint(job.states)
    for st in job.states:
        assert st["acc"] == expected_ring_acc(st["rank"], n, steps)


def test_collective_app_has_no_fallback_under_topo():
    """Laggards drain through classification, not the cycle fallback."""
    _fp, rep = _cycle(allreduce_factory(), "topo")
    assert rep.fallback_ranks == ()


def test_alg2_is_the_default_protocol():
    src = make_cluster("dflt", 2, interconnect="aries",
                       default_mpi="craympich")
    job = launch_small(src, allreduce_factory(), n_ranks=4)
    _ckpt, report = job.checkpoint_at(0.6)
    assert report.protocol == "alg2"
    assert report.fallback_ranks == ()
    job.run_to_completion()


def test_make_protocol_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checkpoint protocol"):
        make_protocol("two-phase", None)
    assert set(PROTOCOLS) == {"alg2", "topo"}


def test_topo_job_keeps_running_after_any_cut():
    """A job cut by the topo engine runs on to its uncheckpointed state.

    The straggler race: a rank parked in a trivial barrier at the intent
    is classified settled, drained and written; after RESUME a faster peer
    completes that barrier before the straggler resumes, so the straggler
    revises and then owes the exit-phase-2 reply of a round that already
    finished.  The coordinator must acknowledge and ignore both.
    """
    from repro.apps import get_app

    spec = get_app("hpcg")
    factory = spec.build(spec.default_config.scaled(n_steps=4))

    def launch():
        cluster = make_cluster("topo-cont", 2, cores_per_node=32,
                               interconnect="aries", default_mpi="mpich")
        return launch_mana(cluster, factory, 4, ranks_per_node=2,
                           protocol="topo").start()

    ref = launch()
    ref.run_to_completion()
    golden = state_fingerprint(ref.states)
    for k in range(1, 19):
        job = launch()
        job.checkpoint_at(0.0025 * k)
        job.run_to_completion()
        assert state_fingerprint(job.states) == golden, f"cut {0.0025 * k}"
