"""Golden pins of whole facility runs: SHA-256 of the sorted JSON report.

Recorded before the facility's checkpoints moved onto the per-job
lifecycle (:mod:`repro.mana.autockpt`); every configuration uses default
:class:`~repro.mana.protocol.JobOptions`.  A moved digest means a
scheduling, checkpoint or accounting decision changed somewhere in the
run — diff ``as_dict()`` against the parent commit to find it.
"""

import hashlib
import json

import pytest

from repro.facility.facility import Facility
from repro.facility.spec import JobSpec
from repro.facility.workload import generate_jobs
from repro.faults.models import NodeCrash, ScriptedFaults

from tests.facility.test_facility import MB, _cluster


def _tiny_fifo():
    return (Facility(_cluster("pin", 4), scheduler="fifo", seed=3),
            generate_jobs("tiny", 12, seed=3))


def _mixed_backfill_ckpt():
    return (Facility(_cluster("pin", 4), scheduler="backfill", seed=21,
                     checkpoint_interval=0.01),
            generate_jobs("mixed", 20, seed=21))


def _priority_backfill():
    return (Facility(_cluster("pin", 8), scheduler="backfill", seed=7),
            generate_jobs("priority", 40, seed=7))


def _priority_backfill_ckpt():
    return (Facility(_cluster("pin", 8), scheduler="backfill", seed=7,
                     checkpoint_interval=0.01),
            generate_jobs("priority", 40, seed=7))


def _scripted_crash():
    """The configuration of ``test_crash_recovery_from_periodic_checkpoint``."""
    faults = ScriptedFaults(faults=(NodeCrash(time=0.6, nodes=(0,)),))
    return (Facility(_cluster("crashy", 4), scheduler="fifo", seed=5,
                     checkpoint_interval=0.004, faults=faults),
            [JobSpec(job_id=0, app="gromacs", n_ranks=6, n_nodes=3,
                     n_steps=30, mem_bytes=64 * MB)])


@pytest.mark.parametrize("build,digest", [
    (_tiny_fifo,
     "6cee9a41e5627081298ed5d6075aaa80465d179521c11fd8a280b875548b0959"),
    (_mixed_backfill_ckpt,
     "d451442f1e373f1c2bcba78203299bdc2b5b8076f8603227b9f02713f15edcc4"),
    (_priority_backfill,
     "d80a5a89ad0217b2cfc58d6b98b653ec0d6336c319bc6bc06d37561aa9a5c50a"),
    (_priority_backfill_ckpt,
     "2a4d0f529b368604dc23d6f17aca776ea588c1d957090ed3e5353c9e544dbc53"),
    (_scripted_crash,
     "74834ab7f515613f6cd74497fa7a30a681499898882718fb07beb991f46addca"),
], ids=["tiny-fifo", "mixed-backfill-ckpt", "priority-backfill",
        "priority-backfill-ckpt", "scripted-crash"])
def test_facility_report_pin(build, digest):
    fac, specs = build()
    fac.submit_all(specs)
    report = json.dumps(fac.run().as_dict(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest
