"""The checkpoint lifecycle: when a job is cut, and where its sets go.

Sites run MANA by checkpointing long jobs on an interval chosen from the
optimal-checkpoint-period literature (Young/Daly: sqrt(2 * MTBF * ckpt_cost)),
cutting extra checkpoints on demand (a preemption), and keeping the last
couple of checkpoint sets on stable storage.  This module is that loop,
written once for every loop that runs jobs:

* :class:`CheckpointLifecycle` — one job's event-driven lifecycle: periodic
  cuts armed on the job's own engine, induced cuts, and every finished set
  stamped and handed to a generation store.  :func:`repro.faults.run_resilient`
  drives one per attempt, :class:`repro.facility.Facility` one per tenant;
* :class:`NewestInMemory` / :class:`CheckpointPruner` — the generation
  stores: the newest set in memory, or the newest ``keep`` sets on disk;
* :func:`young_daly_interval` — the classic period formula.
"""

from __future__ import annotations

import math
import pathlib
import shutil
from typing import Callable, Optional, Union

from repro.mana.checkpoint_image import CheckpointSet
from repro.mana.coordinator import CheckpointAborted, CheckpointReport
from repro.mana.job import ManaJob
from repro.mana.storage import load_checkpoint, save_checkpoint

#: engine priority of a periodic cut: after every other event at its
#: instant, so a cut at ``t`` sees everything that happens at ``t``
CUT_PRIORITY = 1


def young_daly_interval(mtbf_seconds: float, ckpt_cost_seconds: float) -> float:
    """Young's first-order optimal checkpoint period: sqrt(2 * C * MTBF)."""
    if mtbf_seconds <= 0 or ckpt_cost_seconds <= 0:
        raise ValueError("MTBF and checkpoint cost must be positive")
    return math.sqrt(2.0 * ckpt_cost_seconds * mtbf_seconds)


class NewestInMemory:
    """A generation store of one: the newest set, kept in memory."""

    def __init__(self) -> None:
        self.newest: Optional[CheckpointSet] = None

    def save(self, ckpt: CheckpointSet) -> None:
        """Keep ``ckpt`` as the newest generation."""
        self.newest = ckpt

    def latest(self) -> Optional[CheckpointSet]:
        """The newest set, if any."""
        return self.newest


class CheckpointPruner:
    """Two-generation checkpoint retention on stable storage.

    Saves each :class:`CheckpointSet` to ``out_dir/ckpt_NNNN`` and prunes
    the oldest directories down to ``keep`` — but only after the new set is
    safely on disk, so the newest checkpoint is never at risk.  Numbering
    continues for as long as the pruner lives (across the recoveries of
    :func:`repro.faults.run_resilient`).
    """

    def __init__(self, out_dir: Union[str, pathlib.Path], keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.out_dir = pathlib.Path(out_dir)
        self.keep = keep
        self.saved_dirs: list[pathlib.Path] = []
        self._index = 0

    @property
    def latest_dir(self) -> Optional[pathlib.Path]:
        """The newest saved checkpoint directory, if any."""
        return self.saved_dirs[-1] if self.saved_dirs else None

    def save(self, ckpt: CheckpointSet) -> pathlib.Path:
        """Persist ``ckpt`` as the next generation, then prune old ones."""
        target = self.out_dir / f"ckpt_{self._index:04d}"
        save_checkpoint(ckpt, target)
        self.saved_dirs.append(target)
        self._index += 1
        # prune, oldest first, but never below `keep` (and so never the
        # directory just written)
        while len(self.saved_dirs) > self.keep:
            doomed = self.saved_dirs.pop(0)
            shutil.rmtree(doomed, ignore_errors=True)
        return target

    def latest(self) -> Optional[CheckpointSet]:
        """The newest set, reloaded (and digest-checked) from disk."""
        return load_checkpoint(self.latest_dir) if self.saved_dirs else None


class CheckpointLifecycle:
    """One job's checkpoint lifecycle, driven by events on its engine.

    * :meth:`start` arms a periodic cut ``interval`` seconds ahead (none if
      ``interval`` is None); every finished cut re-arms the next one.
    * :meth:`request` induces a cut (a preemption): at once, or at
      :meth:`start` if the job has not started yet.  A cut already in
      flight serves the request.
    * Each finished set, stamped by :meth:`ManaJob.request_checkpoint`, goes
      to ``store`` and then to every ``on_cut`` listener with its report.
      An aborted cut goes to the ``on_abort`` listeners and re-arms nothing
      (recovery belongs to the caller).
    * :meth:`stop` ends it: no further cut starts (one in flight still
      ends and reports).  The job's completion stops it too.

    Nothing here blocks, so many lifecycles share one engine (the facility).
    """

    def __init__(self, job: ManaJob, interval: Optional[float] = None,
                 store=None) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.job = job
        self.interval = interval
        #: where finished sets go: anything with ``save(ckpt)``
        self.store = store if store is not None else NewestInMemory()
        self.on_cut: list[Callable[[CheckpointReport], None]] = []
        self.on_abort: list[Callable[[CheckpointAborted], None]] = []
        #: a cut is in flight
        self.busy = False
        self._started = False
        self._wanted = False
        self._stopped = False
        self._timer = None
        job.finished.on_done(lambda _v: self.stop())

    def start(self) -> None:
        """Begin: take a cut requested before now, else arm the first
        periodic cut."""
        self._started = True
        if self._wanted:
            self._wanted = False
            self._cut()
        else:
            self._arm()

    def request(self) -> None:
        """Induce a cut as soon as the job can take one."""
        if self.busy or self._stopped:
            return
        if not self._started:
            self._wanted = True
            return
        self._cut()

    def stop(self) -> None:
        """Start no further cut."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------ internals

    def _arm(self) -> None:
        if self.interval is None or self._stopped:
            return
        if self._timer is not None:  # an induced cut ended first
            self._timer.cancel()
        self._timer = self.job.engine.call_after(
            self.interval, self._on_timer, priority=CUT_PRIORITY,
            label="autockpt:periodic",
        )

    def _on_timer(self) -> None:
        self._timer = None
        if not self.busy:
            self._cut()

    def _cut(self) -> None:
        self.busy = True
        self.job.request_checkpoint().on_done(self._on_done)

    def _on_done(self, result) -> None:
        self.busy = False
        if isinstance(result, CheckpointAborted):
            for cb in list(self.on_abort):
                cb(result)
            return
        self.store.save(result.ckpt_set)
        for cb in list(self.on_cut):
            cb(result)
        self._arm()
