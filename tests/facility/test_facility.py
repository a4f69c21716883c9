"""End-to-end facility runs: preemption round trips, crashes, determinism.

The load-bearing oracle is :func:`repro.conformance.oracles.state_fingerprint`:
a job that was checkpoint-preempted (or crash-recovered) and resumed must
finish with *exactly* the state of an unpreempted solo run — that is the
paper's transparency claim applied at the facility level.
"""

import pytest

from repro.apps.base import get_app
from repro.conformance.oracles import state_fingerprint
from repro.facility.facility import Facility, FacilityError
from repro.facility.spec import JobSpec, JobState
from repro.facility.sweep import facility_sweep
from repro.facility.workload import generate_jobs
from repro.faults.models import NodeCrash, ScriptedFaults
from repro.hardware.cluster import make_cluster
from repro.mana.job import launch_mana
from repro.mana.split_process import fixed_upper_bytes
from repro.simtime import Engine
from repro.simtime.engine import SimulationError

MB = 1 << 20


def _cluster(name, n_nodes):
    return make_cluster(name, n_nodes, cores_per_node=16,
                        interconnect="aries", default_mpi="craympich")


def _solo_fingerprint(spec: JobSpec) -> str:
    """Golden: the same app/config run alone, never preempted."""
    cluster = _cluster("solo", spec.n_nodes)
    engine = Engine()
    app = get_app(spec.app)
    overrides = {"n_steps": spec.n_steps}
    if spec.mem_bytes is not None:
        overrides["mem_bytes"] = spec.mem_bytes
    cfg = app.default_config.scaled(**overrides)
    fixed = fixed_upper_bytes()

    def app_data(rank):
        return max(MB, app.memory_bytes(cfg, rank, spec.n_ranks) - fixed)

    job = launch_mana(cluster, app.build(cfg), spec.n_ranks,
                      ranks_per_node=None, engine=engine,
                      app_mem_bytes=app_data, seed=99)
    job.start()
    engine.run()
    return state_fingerprint(job.states)


LONG_JOB = JobSpec(job_id=0, app="gromacs", n_ranks=4, n_nodes=2,
                   n_steps=30, mem_bytes=64 * MB)
URGENT_JOB = JobSpec(job_id=1, app="gromacs", n_ranks=2, n_nodes=2,
                     n_steps=5, priority=1, submit_time=0.004,
                     mem_bytes=64 * MB)


def test_preempt_checkpoint_requeue_preserves_fingerprint():
    """SIGTERM-style preemption is loss-free: the resumed job's final state
    equals the unpreempted golden run, bit for bit."""
    fac = Facility(_cluster("preempt", 2), scheduler="fifo", seed=5)
    lo, hi = fac.submit_all([LONG_JOB, URGENT_JOB])
    rep = fac.run()
    assert rep.completed_jobs == 2
    assert lo.preemptions >= 1 and lo.restarts >= 1 and lo.checkpoints >= 1
    assert hi.preemptions == 0
    assert lo.fingerprint == _solo_fingerprint(LONG_JOB)
    assert lo.node_seconds_lost > 0  # the preemption was not free
    assert rep.ckpt_traffic_bytes > 0


def test_crash_recovery_from_periodic_checkpoint():
    """A node crash requeues the tenant; it restarts from the last periodic
    image and still matches the golden fingerprint."""
    wide = JobSpec(job_id=0, app="gromacs", n_ranks=6, n_nodes=3,
                   n_steps=30, mem_bytes=64 * MB)
    # the first periodic image lands around t=0.31 (the 64 MB x 6 rank
    # write dominates, not the 0.004 arming interval); crash well after it
    faults = ScriptedFaults(faults=(NodeCrash(time=0.6, nodes=(0,)),))
    fac = Facility(_cluster("crashy", 4), scheduler="fifo", seed=5,
                   checkpoint_interval=0.004, faults=faults)
    rec = fac.submit(wide)
    rep = fac.run()
    assert rec.state is JobState.COMPLETED
    assert rec.crashes == 1 and rec.restarts >= 1 and rec.checkpoints >= 1
    assert rec.fingerprint == _solo_fingerprint(wide)
    assert rep.crashes == 1


def test_crash_during_preemption_falls_back_to_saved_checkpoint():
    """A crash aborting the in-flight preemption checkpoint must not lose
    the job: it requeues from the last *saved* image and completes clean."""
    lo = JobSpec(job_id=0, app="gromacs", n_ranks=6, n_nodes=3,
                 n_steps=40, mem_bytes=64 * MB)
    hi = JobSpec(job_id=1, app="gromacs", n_ranks=2, n_nodes=2,
                 n_steps=4, priority=1, submit_time=0.6, mem_bytes=64 * MB)
    fac = Facility(_cluster("race", 4), scheduler="fifo", seed=5,
                   checkpoint_interval=0.004)
    rec_lo, rec_hi = fac.submit_all([lo, hi])
    engine = fac.engine

    # step the engine until the low job is mid-preemption with a coordinated
    # checkpoint actually in flight, then crash one of its nodes
    crashed_at = None
    while engine.pending_events:
        try:
            engine.run(max_events=1)  # single-step; the budget error is the
        except SimulationError:       # "more events remain" signal
            pass
        tenant = fac._tenants.get(0)
        if (rec_lo.state is JobState.PREEMPTING and tenant is not None
                and tenant.life.busy):
            assert rec_lo.ckpt_saved_at is not None, \
                "scenario needs a periodic image saved before the crash"
            saved_at = rec_lo.ckpt_saved_at
            fac.apply_fault(NodeCrash(time=engine.now, nodes=(tenant.nodes[0],)))
            crashed_at = engine.now
            break
    assert crashed_at is not None, "preemption checkpoint never went in flight"
    assert saved_at < crashed_at

    engine.run()
    assert rec_lo.state is JobState.COMPLETED
    assert rec_hi.state is JobState.COMPLETED
    assert rec_lo.crashes == 1
    # recovery reused the image saved *before* the aborted preemption ckpt
    assert rec_lo.fingerprint == _solo_fingerprint(lo)


@pytest.mark.parametrize("policy", ["fifo", "backfill"])
def test_queue_flush_hundred_plus_jobs(policy):
    """The acceptance scenario: >= 100 queued jobs drain to completion."""
    specs = generate_jobs("tiny", 120, seed=11)
    fac = Facility(_cluster("flood", 8), scheduler=policy, seed=11)
    fac.submit_all(specs)
    rep = fac.run()
    assert rep.completed_jobs == 120 and rep.failed_jobs == 0
    assert rep.makespan > 0
    assert 0.0 < rep.utilization <= 1.0


def test_facility_run_is_deterministic():
    """Same seed + workload -> byte-identical report dict, twice over."""
    def one_run():
        fac = Facility(_cluster("det", 4), scheduler="backfill", seed=21,
                       checkpoint_interval=0.01)
        fac.submit_all(generate_jobs("mixed", 20, seed=21))
        return fac.run().as_dict()

    assert one_run() == one_run()


def test_priority_mix_forces_preemptions_under_backfill():
    specs = generate_jobs("priority", 40, seed=7)
    fac = Facility(_cluster("prio", 8), scheduler="backfill", seed=7)
    fac.submit_all(specs)
    rep = fac.run()
    assert rep.completed_jobs == 40
    assert rep.preemptions >= 1
    assert rep.peak_drain_streams >= 2  # checkpoint storms overlapped
    assert rep.ckpt_traffic_bytes > 0
    # every preempted-and-resumed job still matches its solo golden run
    preempted = [r for r in rep.records if r.preemptions > 0]
    assert preempted
    assert all(r.fingerprint == _solo_fingerprint(r.spec) for r in preempted[:2])


def test_report_carries_headline_metrics():
    fac = Facility(_cluster("rep", 2), scheduler="fifo", seed=0)
    fac.submit_all(generate_jobs("tiny", 8, seed=0))
    rep = fac.run()
    d = rep.as_dict()
    for key in ("policy", "makespan_s", "node_hours_lost", "utilization",
                "mean_queue_wait_s", "ckpt_bytes_written", "ckpt_bytes_read"):
        assert key in d
    text = rep.summary()
    assert "node-hours lost" in text and "queue wait" in text


def test_unschedulable_job_fails_cleanly():
    """A job wider than the machine fails instead of wedging the queue."""
    fac = Facility(_cluster("small", 2), scheduler="fifo", seed=0)
    rec = fac.submit(JobSpec(job_id=0, app="gromacs", n_ranks=8, n_nodes=4,
                             n_steps=2))
    rep = fac.run()
    assert rec.state is JobState.FAILED
    assert "nodes" in rec.failure_reason
    assert rep.failed_jobs == 1


def test_duplicate_job_id_rejected():
    fac = Facility(_cluster("dup", 2), scheduler="fifo", seed=0)
    fac.submit(JobSpec(job_id=0, app="gromacs", n_ranks=2, n_nodes=1, n_steps=2))
    with pytest.raises(FacilityError):
        fac.submit(JobSpec(job_id=0, app="hpcg", n_ranks=2, n_nodes=1, n_steps=2))


def test_sweep_parallelism_is_invisible():
    """-j 1 and -j 2 sweep runs return byte-identical tables."""
    kwargs = dict(policies=("fifo", "backfill"), mixes=("tiny",),
                  n_jobs=8, n_nodes=4, seed=2)
    serial = facility_sweep(jobs=1, **kwargs)
    threaded = facility_sweep(jobs=2, **kwargs)
    assert serial.rows == threaded.rows
    assert serial.columns == threaded.columns


def _topo_preempt_round_trip(monkeypatch, compact):
    """The LONG_JOB / URGENT_JOB preemption on a ``protocol="topo"``
    facility: returns the long job's record, the report and every job the
    facility restarted."""
    import repro.facility.facility as facility_module

    restarted = []
    real_restart = facility_module.restart

    def recording_restart(*args, **kwargs):
        job = real_restart(*args, **kwargs)
        restarted.append(job)
        return job

    monkeypatch.setattr(facility_module, "restart", recording_restart)
    fac = Facility(_cluster("preempt-topo", 2), scheduler="fifo", seed=5,
                   protocol="topo", compact=compact)
    lo, hi = fac.submit_all([LONG_JOB, URGENT_JOB])
    rep = fac.run()
    assert rep.completed_jobs == 2 and hi.preemptions == 0
    assert lo.preemptions >= 1 and lo.restarts >= 1 and lo.checkpoints >= 1
    # every hop inherits the facility's options from the image it restarts
    assert lo.ckpt.meta["options"] == {"protocol": "topo", "compact": compact}
    assert restarted and all(
        job.coordinator.options.as_dict() == lo.ckpt.meta["options"]
        for job in restarted
    )
    return lo, rep


def test_preempt_requeue_preserves_fingerprint_under_topo_protocol(
        monkeypatch):
    """The alg2 preemption round trip, re-run under ``protocol=topo``: the
    induced checkpoint uses the topological-sort engine, the restarted hop
    runs topo too, and the resumed job must still finish bit-identical to
    its unpreempted solo golden (which is protocol-independent — it never
    checkpoints)."""
    lo, rep = _topo_preempt_round_trip(monkeypatch, compact=False)
    assert lo.fingerprint == _solo_fingerprint(LONG_JOB)
    assert rep.ckpt_traffic_bytes > 0


def test_preempt_requeue_under_topo_protocol_keeps_compaction(monkeypatch):
    """The same round trip with ``compact=True``: the restarted hop keeps
    compacting its log and still finishes at the solo golden."""
    lo, _rep = _topo_preempt_round_trip(monkeypatch, compact=True)
    assert lo.fingerprint == _solo_fingerprint(LONG_JOB)
