"""Parallel sweep execution: picklable cells, a process-pool runner, and a
content-keyed memo cache for shared sub-runs.

The figure/ablation/resilience sweeps are embarrassingly parallel — each
(app × nodes × variant × seed) cell builds its own :class:`~repro.simtime.
Engine` and cluster from scratch and shares nothing with its neighbours —
but the runners in :mod:`repro.harness.experiments` used to execute them
strictly sequentially.  This module supplies the missing layer:

* :class:`SweepCell` — one unit of sweep work, declared up front: a
  module-level function plus primitive parameters, so the cell pickles
  cleanly into a worker process.
* :func:`run_cells` — execute a list of cells either in-process
  (``jobs=1``) or on a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs>1``), returning results **in cell order** regardless of which
  worker finished first.  Determinism is the contract: a runner that merges
  ``run_cells`` results by index emits tables byte-identical to a
  sequential run (enforced by ``tests/harness/test_parallel.py``).
* :exc:`CellError` — a cell that raises in a worker surfaces here as an
  exception carrying the original traceback text, instead of hanging or
  poisoning the pool; ``repro.harness.report.generate`` then lands it in
  the report's ``## errors`` section like any other runner failure.
* :func:`memo` — a content-keyed, process-local cache for deterministic
  sub-runs shared between figures (native baselines, the
  ``_checkpoint_after_steps`` preludes that fig6/fig7/fig8 would otherwise
  re-simulate per figure).  Keys must capture every input of the sub-run;
  see ``docs/performance.md`` for the key conventions.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence


class CellError(RuntimeError):
    """A sweep cell raised inside a worker.

    Carries enough context to diagnose the failure from the parent process:
    the cell's label, the original exception type/message, and the formatted
    worker-side traceback.
    """

    def __init__(self, label: str, exc_type: str, exc_msg: str,
                 worker_traceback: str) -> None:
        super().__init__(f"sweep cell {label!r} failed: {exc_type}: {exc_msg}")
        self.label = label
        self.exc_type = exc_type
        self.exc_msg = exc_msg
        self.worker_traceback = worker_traceback

    def __str__(self) -> str:  # keep the traceback visible in ## errors
        base = super().__str__()
        if self.worker_traceback:
            return f"{base}\n{self.worker_traceback}"
        return base


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: ``fn(*params)`` returning one result.

    ``fn`` must be a module-level function and ``params`` picklable values
    (strings, numbers, small tuples) so the cell can cross a process
    boundary; clusters, engines and app specs are constructed *inside* the
    cell, never shipped to it.
    """

    fn: Callable[..., Any]
    params: tuple = ()
    label: str = ""

    def name(self) -> str:
        """Human-readable identity used in error messages."""
        if self.label:
            return self.label
        fn_name = getattr(self.fn, "__name__", str(self.fn))
        return f"{fn_name}{self.params!r}"

    def __call__(self) -> Any:
        return self.fn(*self.params)


def _run_cell_guarded(cell: SweepCell) -> tuple[str, Any]:
    """Worker entry point: never let an exception escape unpickled.

    Returns ``("ok", result)`` or ``("err", (label, type, msg, tb))`` — the
    error tuple is all-strings so it survives pickling even when the
    original exception (or its args) would not.
    """
    try:
        return ("ok", cell())
    except BaseException as exc:  # noqa: BLE001 - must not kill the worker
        tb = traceback.format_exc()
        return ("err", (cell.name(), type(exc).__name__, str(exc), tb))


def default_jobs() -> int:
    """The default worker count: ``REPRO_JOBS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
) -> list[Any]:
    """Execute every cell and return their results in cell order.

    ``jobs=1`` runs in-process (no pool, no pickling — the reference
    execution); ``jobs>1`` fans out over a process pool; ``jobs=None`` uses
    :func:`default_jobs`.  The first failing cell raises :exc:`CellError`
    once all submitted work has settled — the pool is always shut down, never
    left hanging.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = list(cells)
    if jobs == 1 or len(cells) <= 1:
        results = []
        for cell in cells:
            try:
                results.append(cell())
            except CellError:
                raise
            except Exception as exc:
                raise CellError(
                    cell.name(), type(exc).__name__, str(exc),
                    traceback.format_exc(),
                ) from exc
        return results

    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        outcomes = list(pool.map(_run_cell_guarded, cells))
    for status, payload in outcomes:
        if status == "err":
            label, exc_type, exc_msg, tb = payload
            raise CellError(label, exc_type, exc_msg, tb)
    return [payload for _status, payload in outcomes]


# ------------------------------------------------------------- memo cache

@dataclass
class MemoStats:
    """Hit/miss counters for the process-local memo cache."""

    hits: int = 0
    misses: int = 0
    #: number of times each key was actually computed (diagnosis aid; the
    #: determinism tests assert every value here is exactly 1)
    runs_by_key: dict = field(default_factory=dict)


_memo_cache: dict[tuple, Any] = {}
_memo_stats = MemoStats()


def memo(key: tuple, fn: Callable[[], Any]) -> Any:
    """Return the cached result for ``key``, computing it once via ``fn``.

    The cache is process-local and content-keyed: ``key`` must be a
    hashable tuple capturing *every* input of the computation (app name,
    cluster constructor arguments, config signature, rank layout…), because
    two calls with equal keys return the same object.  Only use it for
    deterministic sub-runs whose results are immutable or safely shareable
    (e.g. a :class:`~repro.mana.checkpoint_image.CheckpointSet` that is
    only ever read, as fig9's triple restart already demonstrates).
    """
    try:
        value = _memo_cache[key]
    except KeyError:
        _memo_stats.misses += 1
        _memo_stats.runs_by_key[key] = _memo_stats.runs_by_key.get(key, 0) + 1
        value = _memo_cache[key] = fn()
    else:
        _memo_stats.hits += 1
    return value


def memo_stats() -> MemoStats:
    """The live hit/miss counters (shared, process-local)."""
    return _memo_stats


def clear_memo() -> None:
    """Drop every cached entry and reset the counters (tests; long sessions)."""
    _memo_cache.clear()
    _memo_stats.hits = 0
    _memo_stats.misses = 0
    _memo_stats.runs_by_key.clear()
