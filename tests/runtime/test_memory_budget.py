"""Memory budgets of the record log (§2.2): what a long-running job and a
restart keep resident per log entry.

A full-log job records one entry per persistent call for as long as it
lives, so the bytes it keeps per entry set how its resident size grows with
call history.  Peak resident memory of the benchmark repeats to within ~2%,
but it mixes every layer; the bytes the logs hold, counted by tracemalloc,
isolate this one and repeat to within 0.1% on a given CPython.

Two figures, both of commchurn under MANA with its full log (8 ranks on 2
Aries nodes, 400 steps, the ``churn_restart`` workload's job):

* per recorded entry: the traced bytes that replacing every rank's log by
  an empty one frees, at the end of the run;
* per restored entry: the traced bytes of the logs restored from the
  images of a checkpoint cut at 90% of the run, as a restart holds them
  before replay runs.

Measured on CPython 3.11:

                        before  after
    recorded entry         152   22.5
    restored entry         172   17.2

"before" held every entry as a slotted object with its args tuple and its
vid ints, and a restart unpickled all of them.  "after" holds the pickled
chunks of plain rows that an image carries, with a tail of at most
``TAIL_ROWS`` live rows per rank.  The bounds sit about 1.5x above "after".
"""

import gc
import tracemalloc

from repro.apps import get_app
from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana
from repro.mana.record_replay import RecordLog

#: the ``churn_restart`` benchmark's job: commchurn, 8 ranks, 400 steps
CHURN_STEPS, CHURN_RANKS = 400, 8
#: the cut, as a fraction of the uncheckpointed run
CUT = 0.9
#: traced bytes the logs hold per recorded entry
RECORDED_BUDGET = 34
#: traced bytes the restored logs hold per restored entry
RESTORED_BUDGET = 26


def _churn_job(n_steps: int = CHURN_STEPS, compact: bool = False):
    """A started MANA commchurn job of ``n_steps`` steps (8 ranks on 2 Aries
    nodes, Cray MPICH)."""
    spec = get_app("commchurn")
    program = spec.build(spec.default_config.scaled(n_steps=n_steps))
    cluster = make_cluster("aries", 2, interconnect="aries",
                           default_mpi="craympich")
    return launch_mana(cluster, program, n_ranks=CHURN_RANKS,
                       ranks_per_node=4, app_mem_bytes=1 << 20,
                       compact=compact).start()


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _log_bytes(job) -> int:
    """Traced bytes freed by replacing every rank's log by an empty one
    (tracemalloc must have been tracing since before ``job`` ran)."""
    held = _traced()
    for rt in job.runtimes:
        rt.log = RecordLog()
    return held - _traced()


def measure() -> tuple[float, float]:
    """(traced bytes per recorded entry, traced bytes per restored entry)."""
    job = _churn_job()
    tracemalloc.start()
    try:
        makespan = job.run_to_completion()
        recorded = sum(len(rt.log) for rt in job.runtimes)
        per_recorded = _log_bytes(job) / recorded
    finally:
        tracemalloc.stop()
    del job

    job = _churn_job()
    ckpt, _report = job.checkpoint_at(CUT * makespan)
    del job
    tracemalloc.start()
    try:
        before = _traced()
        restored = []
        for image in ckpt.images:
            snap = image.restore_state()["log"]
            log = RecordLog()
            log.restore(snap)
            del snap
            restored.append(log)
        per_restored = (_traced() - before) / sum(map(len, restored))
    finally:
        tracemalloc.stop()
    return per_recorded, per_restored


def test_log_bytes_per_entry_within_budget():
    per_recorded, per_restored = measure()
    assert per_recorded <= RECORDED_BUDGET, f"{per_recorded:.1f} B/recorded"
    assert per_restored <= RESTORED_BUDGET, f"{per_restored:.1f} B/restored"


def test_compacted_job_holds_no_call_history():
    """A compacted job's log counts calls and keeps none: after 100 steps
    and after 400 its eight logs hold next to nothing (the full log of 100
    steps holds ~0.9 MB)."""
    held, counted = [], []
    for n_steps in (100, 400):
        job = _churn_job(n_steps, compact=True)
        tracemalloc.start()
        try:
            job.run_to_completion()
            counted.append(sum(len(rt.log) for rt in job.runtimes))
            held.append(_log_bytes(job))
        finally:
            tracemalloc.stop()
    # per step and rank: ten persistent calls, plus two at set-up
    assert counted == [CHURN_RANKS * (10 * n + 2) for n in (100, 400)]
    assert all(abs(nbytes) < 4096 for nbytes in held), held
