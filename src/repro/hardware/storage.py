"""Lustre-like parallel filesystem model with stragglers.

Checkpoint time in the paper (Fig. 6, Fig. 8) is dominated by the time to
write each rank's image to the Lustre backend, and the *overall* checkpoint
time is the time of the slowest writer: the paper observes per-rank write
times up to 4× the 90th-percentile rank ("stragglers", §3.4, citing Xie et
al. SC'12).  Restart (Fig. 7) is symmetric, dominated by reads.

The model:

* each node owns an injection bandwidth into the filesystem
  (``per_node_bandwidth``), shared by the ranks on that node;
* the filesystem has a global aggregate bandwidth ceiling
  (``aggregate_bandwidth``) across all nodes;
* each concurrent writer draws a straggler multiplier ≥ 1 from a heavy-tailed
  distribution, reproducing the observed long tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def median_and_p90(values: np.ndarray) -> tuple[float, float]:
    """``np.median(values)`` and ``np.percentile(values, 90)``, bit for bit,
    from one sorted copy.

    Both NumPy functions import ``numpy.ma`` (about 1.2 MB resident) into
    the process on first use.  The percentile interpolates linearly as
    NumPy's default method does: between the sorted values ``a`` and ``b``
    around the virtual index ``0.9 * (n - 1)``, with fraction ``t``, it is
    ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` once ``t >= 0.5``.
    """
    s = np.sort(values).tolist()
    n = len(s)
    mid = n // 2
    median = s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2
    v = (n - 1) * 0.9
    if v >= n - 1:
        return median, s[-1]
    lo = math.floor(v)
    a, b = s[lo], s[lo + 1]
    t = v - lo
    d = b - a
    return median, (b - d * (1 - t) if t >= 0.5 else a + d * t)


@dataclass(frozen=True)
class WriteReport:
    """Outcome of a parallel write/read burst."""

    #: Seconds until the *slowest* rank finished (bounds checkpoint time).
    max_time: float
    #: Seconds of the median rank.
    median_time: float
    #: 90th-percentile rank time (the straggler paper's reference point).
    p90_time: float
    #: Per-rank times, index = position in the submitted burst.
    per_rank: np.ndarray
    #: Total bytes moved.
    total_bytes: int


@dataclass
class LustreModel:
    """Parallel filesystem bandwidth/straggler model."""

    #: Sustained injection bandwidth per compute node (bytes/s).
    per_node_bandwidth: float = 1.0e9
    #: Global backend ceiling across all writers (bytes/s).
    aggregate_bandwidth: float = 700e9
    #: Per-file open/close/fsync fixed cost (seconds).
    per_file_overhead: float = 0.05
    #: Pareto tail index for straggler multipliers; smaller = heavier tail.
    straggler_alpha: float = 6.0
    #: Cap on the straggler multiplier (paper observes up to ~4x the p90).
    straggler_cap: float = 5.0
    #: Transient slow-I/O state (OST congestion, failover rebuild): all
    #: bandwidths are divided by this factor while it is > 1.  Set through
    #: :meth:`degrade` / :meth:`restore` by the fault injector.
    slowdown: float = 1.0
    #: Optional multi-tenant bandwidth arbiter (duck-typed; see
    #: :class:`repro.facility.sharedfs.StorageArbiter`).  When set, each
    #: burst asks it how many drain streams currently share the backend and
    #: divides the aggregate ceiling accordingly, then reports the finished
    #: burst back for traffic accounting.  Per-node injection bandwidth is
    #: unaffected: tenants never share a compute node.
    arbiter: Optional[object] = None

    def degrade(self, factor: float) -> None:
        """Enter a slow-I/O window: divide all bandwidths by ``factor``."""
        if factor < 1.0:
            raise ValueError(f"slow-I/O factor must be >= 1, got {factor}")
        self.slowdown = factor

    def restore(self) -> None:
        """Leave the slow-I/O window (back to nominal bandwidth)."""
        self.slowdown = 1.0

    def burst(
        self,
        sizes: list[int],
        node_of: list[int],
        rng: Optional[np.random.Generator] = None,
        read: bool = False,
    ) -> WriteReport:
        """Time a parallel burst of per-rank file writes (or reads).

        Parameters
        ----------
        sizes:
            Bytes moved by each rank.
        node_of:
            Node id hosting each rank (shapes per-node contention).
        rng:
            Straggler randomness; ``None`` disables stragglers (used by unit
            tests that want exact arithmetic).
        read:
            Reads skip the fsync part of the fixed overhead (half cost) —
            restart is read-dominated but slightly cheaper per file.
        """
        if len(sizes) != len(node_of):
            raise ValueError("sizes and node_of must align")
        n = len(sizes)
        if n == 0:
            return WriteReport(0.0, 0.0, 0.0, np.zeros(0), 0)
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        nodes_arr = np.asarray(node_of)

        # Transient slow-I/O events scale every bandwidth down uniformly.
        node_bw = self.per_node_bandwidth / self.slowdown
        backend_bw = self.aggregate_bandwidth / self.slowdown

        # Multi-tenant contention: concurrently draining jobs split the
        # backend evenly (fair-share QoS, what Lustre TBF policies enforce).
        if self.arbiter is not None:
            streams = self.arbiter.begin_burst(
                total_bytes=int(sizes_arr.sum()), read=read
            )
            backend_bw /= max(1, int(streams))

        # Node-level contention: ranks on one node share its injection band.
        writers_per_node = {nid: int(c) for nid, c in
                            zip(*np.unique(nodes_arr, return_counts=True))}
        share = np.array(
            [node_bw / writers_per_node[nid] for nid in nodes_arr]
        )

        # Global ceiling: if the sum of shares exceeds the backend, scale down.
        total_share = float(share.sum())
        if total_share > backend_bw:
            share *= backend_bw / total_share

        times = self.per_file_overhead * (0.5 if read else 1.0) + sizes_arr / share

        if rng is not None:
            # Lomax(alpha) + 1 gives multipliers >= 1 with a heavy tail.
            mult = 1.0 + rng.pareto(self.straggler_alpha, size=n)
            np.minimum(mult, self.straggler_cap, out=mult)
            times = times * mult

        median, p90 = median_and_p90(times)
        report = WriteReport(
            max_time=float(times.max()),
            median_time=median,
            p90_time=p90,
            per_rank=times,
            total_bytes=int(sizes_arr.sum()),
        )
        if self.arbiter is not None:
            self.arbiter.end_burst(report, read=read)
        return report
