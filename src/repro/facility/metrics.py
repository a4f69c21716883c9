"""Facility-level accounting: the numbers an operations review asks for.

The :class:`FacilityReport` aggregates the per-job ledgers
(:class:`~repro.facility.spec.JobRecord`) and the storage arbiter's traffic
counters into the metrics the NERSC deployment papers report on: makespan,
machine utilization, node-hours lost to checkpoint/restart/crash overhead,
queue waits, and checkpoint traffic through the shared filesystem.

Glossary (also in docs/facility.md):

``makespan``
    virtual seconds from t=0 until the last job leaves the system;
``node-hours used``
    node-hours jobs held allocations for (work + overhead);
``node-hours lost``
    the overhead part: checkpoint protocol time, restart read/replay,
    and work redone after a crash — all multiplied by allocation width;
``utilization``
    (used − lost) / (nodes × makespan): the fraction of the machine that
    did useful application work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.facility.spec import JobRecord, JobState
from repro.harness.results import Table, render_table

HOUR = 3600.0


@dataclass
class FacilityReport:
    """Aggregated outcome of one facility run."""

    policy: str
    seed: int
    n_nodes: int
    records: list[JobRecord]
    #: checkpoint bytes written through the shared backend
    bytes_written: int
    #: restart bytes read back
    bytes_read: int
    #: most drain streams ever sharing the backend at once
    peak_drain_streams: int

    # ------------------------------------------------------------ aggregates

    @property
    def n_jobs(self) -> int:
        """Total jobs ever submitted."""
        return len(self.records)

    @property
    def completed_jobs(self) -> int:
        """Jobs that ran to completion."""
        return sum(1 for r in self.records if r.state is JobState.COMPLETED)

    @property
    def failed_jobs(self) -> int:
        """Jobs that terminated without completing (unschedulable)."""
        return sum(1 for r in self.records if r.state is JobState.FAILED)

    @property
    def makespan(self) -> float:
        """Virtual time at which the last job went terminal."""
        ends = [r.end_time for r in self.records if r.end_time is not None]
        return max(ends) if ends else 0.0

    @property
    def node_hours_used(self) -> float:
        """Sum of every job's allocated node-seconds, in hours."""
        return sum(r.node_seconds_used for r in self.records) / HOUR

    @property
    def node_hours_lost(self) -> float:
        """Node-hours spent on checkpoint/restart/redone work."""
        return sum(r.node_seconds_lost for r in self.records) / HOUR

    @property
    def utilization(self) -> float:
        """Useful-work fraction of the whole machine over the makespan."""
        capacity = self.n_nodes * self.makespan / HOUR
        if capacity <= 0:
            return 0.0
        return max(0.0, self.node_hours_used - self.node_hours_lost) / capacity

    @property
    def mean_queue_wait(self) -> float:
        """Mean queue wait over jobs that ever started."""
        waits = [r.queue_wait for r in self.records if r.first_start is not None]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def max_queue_wait(self) -> float:
        """Worst single queue wait, seconds."""
        return max((r.queue_wait for r in self.records), default=0.0)

    @property
    def preemptions(self) -> int:
        """Total scheduler-induced checkpoint+kill events."""
        return sum(r.preemptions for r in self.records)

    @property
    def crashes(self) -> int:
        """Total node-crash hits absorbed across all jobs."""
        return sum(r.crashes for r in self.records)

    @property
    def checkpoints(self) -> int:
        """Total checkpoint images saved (induced + periodic)."""
        return sum(r.checkpoints for r in self.records)

    @property
    def restarts(self) -> int:
        """Total restarts from a saved image."""
        return sum(r.restarts for r in self.records)

    @property
    def ckpt_traffic_bytes(self) -> int:
        """Checkpoint bytes written plus restart bytes read."""
        return self.bytes_written + self.bytes_read

    # -------------------------------------------------------------- rendering

    def job_table(self, limit: Optional[int] = None) -> Table:
        """Per-job rows (truncated to ``limit`` when the queue is huge)."""
        t = Table(
            title=f"facility jobs ({self.policy}, seed {self.seed})",
            columns=["job", "state", "wait_s", "preempt", "crash",
                     "restart", "ckpts", "turnaround_s"],
        )
        rows = self.records if limit is None else self.records[:limit]
        for r in rows:
            t.add(
                r.spec.name, r.state.value, round(r.queue_wait, 4),
                r.preemptions, r.crashes, r.restarts, r.checkpoints,
                None if r.turnaround is None else round(r.turnaround, 4),
            )
        if limit is not None and len(self.records) > limit:
            t.notes.append(f"... {len(self.records) - limit} more jobs")
        return t

    def summary_table(self) -> Table:
        """The headline aggregates as one key/value table."""
        t = Table(
            title=f"facility summary — policy={self.policy} "
                  f"nodes={self.n_nodes} jobs={self.n_jobs}",
            columns=["metric", "value"],
        )
        t.add("completed jobs", f"{self.completed_jobs}/{self.n_jobs}")
        t.add("failed (unschedulable)", self.failed_jobs)
        t.add("makespan (s)", round(self.makespan, 4))
        t.add("utilization", round(self.utilization, 4))
        t.add("node-hours used", round(self.node_hours_used, 6))
        t.add("node-hours lost", round(self.node_hours_lost, 6))
        t.add("queue wait mean (s)", round(self.mean_queue_wait, 4))
        t.add("queue wait max (s)", round(self.max_queue_wait, 4))
        t.add("preemptions", self.preemptions)
        t.add("checkpoints", self.checkpoints)
        t.add("restarts", self.restarts)
        t.add("node crashes survived", self.crashes)
        t.add("ckpt bytes written", self.bytes_written)
        t.add("restart bytes read", self.bytes_read)
        t.add("peak drain streams", self.peak_drain_streams)
        return t

    def summary(self) -> str:
        """Rendered headline table."""
        return render_table(self.summary_table())

    def as_dict(self) -> dict:
        """JSON-friendly aggregate view (per-job detail elided)."""
        return {
            "policy": self.policy,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "n_jobs": self.n_jobs,
            "completed_jobs": self.completed_jobs,
            "failed_jobs": self.failed_jobs,
            "makespan_s": self.makespan,
            "utilization": self.utilization,
            "node_hours_used": self.node_hours_used,
            "node_hours_lost": self.node_hours_lost,
            "mean_queue_wait_s": self.mean_queue_wait,
            "max_queue_wait_s": self.max_queue_wait,
            "preemptions": self.preemptions,
            "crashes": self.crashes,
            "checkpoints": self.checkpoints,
            "restarts": self.restarts,
            "ckpt_bytes_written": self.bytes_written,
            "ckpt_bytes_read": self.bytes_read,
            "peak_drain_streams": self.peak_drain_streams,
        }

    def to_json(self) -> str:
        """The full report as a stable JSON document."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)
