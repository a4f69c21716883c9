"""Golden pins of :func:`run_resilient`: every result field, exact floats.

Recorded on the loop that cut a checkpoint only after every event at or
before its deadline had fired; any reordering of same-instant events
between the job, the fault injector, the heartbeat detector and the
checkpoint timer moves at least one of these values.  ``final_job`` and
directory paths are not pinned (the saved directories' names are).
``reports`` is the SHA-256 of the ``repr`` of each report's timing tuple.
"""

import dataclasses
import hashlib

import pytest

from repro.faults import ExponentialNodeFaults, NodeCrashAt, run_resilient
from repro.harness.experiments import (
    _resilience_cell,
    _resilience_probe,
    resilience_program,
)
from repro.hardware.cluster import make_cluster
from repro.mana.autockpt import young_daly_interval
from repro.simtime.rng import RngStreams

from tests.mana.conftest import allreduce_factory

FACTORY = allreduce_factory(n_iters=8, cost=0.5)
REFERENCE_TIME = 4.0000499648000005
CRASH1 = NodeCrashAt(1.7, node=2)
#: the centre of the recovered attempt's first checkpoint round
CRASH2 = NodeCrashAt(2.929527866978872, node=0)

_CALM = {
    "completed": True, "wallclock": 4.0060128517720734, "recoveries": 0,
    "stop_reason": "completed", "failures": [],
    "reports": "ff733cc77b059ecd0a5d4510611cbf4afd2ca1fec9c2835a01502321c8fcf881",
    "checkpoint_times": [1.244883269517153, 2.382443025756904,
                         3.5047066061720735],
    "attempts": 1, "reference_time": REFERENCE_TIME, "saved_names": [],
}
_FAIL1 = ((2,), (2,), 1.7, 1.850000000000001, "compute",
          0.45511673048284695, 1)
_ONE_CRASH = {
    "completed": True, "wallclock": 4.687181517030931, "recoveries": 1,
    "stop_reason": "completed", "failures": [_FAIL1],
    "reports": "6db0958d23ef5e28c48c9375f9591c362e2f6da126ee38210fa32210a1321a6d",
    "checkpoint_times": [1.244883269517153, 3.0090557339577435,
                         4.18587527143093],
    "attempts": 2, "reference_time": REFERENCE_TIME,
}
_TWO_CRASHES = {
    "completed": True, "wallclock": 5.985867141270812, "recoveries": 2,
    "stop_reason": "completed",
    "failures": [_FAIL1, ((0, 1), (0,), 2.929527866978872,
                          3.1000000000000014, "checkpoint",
                          1.079527866978871, 2)],
    "reports": "492d033c7ad26e10015cf9656a421d985acbe85e5cdc186632f98ba9d9138e20",
    "checkpoint_times": [1.244883269517153, 4.293068240740675,
                         5.484560895670811],
    "attempts": 3, "reference_time": REFERENCE_TIME,
}
_CELL = {
    "completed": True, "wallclock": 32.41818887974625, "recoveries": 2,
    "stop_reason": "completed",
    "failures": [((3,), (3,), 19.867101293672313, 20.15356187159318,
                  "compute", 1.2529930014911521, 1),
                 ((2,), (1,), 25.745011434658583, 26.045916825575922,
                  "compute", 0.0, 2)],
    "reports": "e0dbef105a80d91e682c97039003f617e2681b5be09a94f87d4f9ae74f5be5b3",
    "checkpoint_times": [
        1.829471529417825, 3.671293680694512, 5.6525162431774225,
        7.5083919403983685, 9.386728778215085, 11.216704278946203,
        13.06394292694935, 14.907508884384432, 16.741740128473737,
        18.61410829218116, 22.04851080434207, 23.921824966231533,
        25.80877830651127, 27.915843463746256, 29.88325804155518,
        31.800995725473236,
    ],
    "attempts": 3, "reference_time": 30.006969439999935, "saved_names": [],
}


def _pinned_fields(run) -> dict:
    out = {}
    for f in dataclasses.fields(run):
        if f.name in ("final_job", "saved_dirs"):
            continue
        value = getattr(run, f.name)
        if f.name == "failures":
            value = [dataclasses.astuple(rec) for rec in value]
        elif f.name == "reports":
            value = hashlib.sha256(repr([
                (r.total_time, r.drain_time, r.write_time, r.comm_overhead,
                 r.rounds, r.quiesce_wait, r.protocol, r.fallback_ranks)
                for r in value
            ]).encode()).hexdigest()
        out[f.name] = value
    out["saved_names"] = [p.name for p in run.saved_dirs]
    return out


def test_no_faults_pin():
    run = run_resilient(make_cluster("calm", 4, interconnect="aries"),
                        FACTORY, n_ranks=4, interval=1.0, seed=1)
    assert _pinned_fields(run) == _CALM


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "out_dir"])
@pytest.mark.parametrize("faults,golden", [
    ([CRASH1], _ONE_CRASH),
    ([CRASH1, CRASH2], _TWO_CRASHES),
], ids=["mid-compute", "mid-compute+mid-checkpoint"])
def test_crash_recovery_pins(tmp_path, on_disk, faults, golden):
    run = run_resilient(
        make_cluster("storm", 4, interconnect="aries"), FACTORY, n_ranks=4,
        interval=1.0, faults=faults, seed=1,
        out_dir=tmp_path / "ckpt" if on_disk else None,
        reference_time=REFERENCE_TIME,
    )
    names = ["ckpt_0001", "ckpt_0002"] if on_disk else []
    assert _pinned_fields(run) == dict(golden, saved_names=names)


def test_resilience_sweep_cell_pin():
    """The unit-interval, seed-0 cell of the committed resilience table."""
    ckpt_cost, reference_time = _resilience_probe(6, 4, 60, 0.5)
    assert (ckpt_cost, reference_time) == (0.1215425572489146,
                                           30.006969439999935)
    yd = young_daly_interval(12.0, ckpt_cost)
    assert _resilience_cell(1.0, 0, yd, 6, 4, 60, 0.5, 12.0,
                            reference_time) == \
        (True, 0.9256214019638598, 2, 1.2529930014911521)
    cluster = make_cluster("sweep-f1-s0", 6)
    model = ExponentialNodeFaults([n.node_id for n in cluster.nodes],
                                  mtbf_seconds=12.0 * 6, rng=RngStreams(0))
    run = run_resilient(cluster, resilience_program(n_iters=60, cost=0.5), 4,
                        interval=yd, faults=model, max_restarts=100, seed=0,
                        reference_time=reference_time)
    assert _pinned_fields(run) == _CELL


def test_cut_the_job_finishes_under_pin():
    """The quarter-interval, seed-2 cell: the job's last event lands while
    its 60th cut is in flight, and the run still ends with that cut done
    (``wallclock`` is the cut's end, not the job's).  Recorded on the
    synchronous loop."""
    ckpt_cost, reference_time = _resilience_probe(6, 4, 60, 0.5)
    interval = 0.25 * young_daly_interval(12.0, ckpt_cost)
    cluster = make_cluster("sweep-f0.25-s2", 6)
    model = ExponentialNodeFaults([n.node_id for n in cluster.nodes],
                                  mtbf_seconds=12.0 * 6, rng=RngStreams(2))
    run = run_resilient(cluster, resilience_program(n_iters=60, cost=0.5), 4,
                        interval=interval, faults=model, max_restarts=100,
                        seed=2, reference_time=reference_time)
    pinned = _pinned_fields(run)
    assert len(run.reports) == 60
    assert run.wallclock == run.checkpoint_times[-1]
    pinned["checkpoint_times"] = hashlib.sha256(
        repr(pinned["checkpoint_times"]).encode()).hexdigest()
    assert pinned == {
        "completed": True, "wallclock": 34.32419573223629, "recoveries": 0,
        "stop_reason": "completed", "failures": [],
        "reports": "b0bc78c7aaf5293acf69909304d05dfbe80850354a52a11be574518f948c2a6d",
        "checkpoint_times":
            "45e62b7ddbe7bc410ee7624f7e985f80000755ffdd8c4231b5d4022ce2ee3244",
        "attempts": 1, "reference_time": 30.006969439999935,
        "saved_names": [],
    }
