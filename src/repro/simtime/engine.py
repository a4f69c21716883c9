"""The discrete-event engine: virtual clock, event queue, completions.

Design notes
------------

* Events are ordered by ``(time, priority, sequence)``.  The monotonically
  increasing sequence number makes ordering total and therefore the whole
  simulation deterministic: two events scheduled for the same instant fire in
  scheduling order.
* There is no thread anywhere in the kernel.  "Processes" in higher layers
  are callback state machines (MPI internals) or interpreters
  (:mod:`repro.mprog`) that re-arm themselves through :meth:`Engine.call_at`
  / :meth:`Engine.call_after` or through :class:`Completion` callbacks.
* A :class:`Completion` is a single-assignment future.  MPI operations return
  one; the rank driver chains on it to resume the application program.
* The kernel is the hot path of every experiment (sweeps spend ~98% of their
  wall-clock inside :meth:`Engine.run` / :meth:`Completion.resolve`), so
  :meth:`Engine.run` keeps its own inlined pop loop, queue entries are bare
  lists indexed positionally, and the engine maintains an incremental live
  event counter so :attr:`Engine.pending_events` is O(1).  None of this
  changes the ``(time, priority, seq)`` total order — determinism is the
  contract (see ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import attach as _attach_tracer

# Queue entries are bare lists ``[when, priority, seq, label, payload]``
# where ``payload`` is ``(fn, args)`` while live, None once cancelled, and
# ``_FIRED`` once dispatched.  The unique ``seq`` makes heap comparison stop
# before ever reaching label/payload.
_WHEN, _PRIO, _SEQ, _LABEL, _PAYLOAD = range(5)

#: payload sentinel marking an entry whose callback already ran (distinct
#: from None so a late ``cancel()`` cannot un-count a fired event)
_FIRED = object()


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when the engine is asked to make progress but no event is
    pending while some completion is still being awaited."""


class EventHandle:
    """Opaque handle returned by :meth:`Engine.call_at`; used to cancel."""

    __slots__ = ("time", "seq", "_entry", "_engine")

    def __init__(self, time: float, seq: int, entry: list, engine: "Engine") -> None:
        self.time = time
        self.seq = seq
        self._entry = entry
        self._engine = engine

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent)."""
        entry = self._entry
        payload = entry[_PAYLOAD]
        if payload is not None and payload is not _FIRED:
            entry[_PAYLOAD] = None
            self._engine._live -= 1

    @property
    def cancelled(self) -> bool:
        """True if cancelled before firing."""
        return self._entry[_PAYLOAD] is None


class Engine:
    """A deterministic discrete-event engine with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in simulated seconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[list] = []
        self._next_seq = 0
        self._live = 0
        self._pending_watchers = 0
        self.trace: Optional[list[tuple[float, str]]] = None
        #: structured tracer (NULL_TRACER unless process-wide tracing is on)
        self.tracer = _attach_tracer(self)
        #: always-on metrics instruments for this engine's lifetime
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current virtual time in simulated seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling

    def call_at(
        self,
        when: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``.

        ``when`` may equal :attr:`now` (the event fires before the engine
        next advances time) but may not lie in the past.
        """
        now = self._now
        if when < now:
            if math.isnan(when):
                raise SimulationError("cannot schedule event at NaN time")
            if when < now - 1e-15:
                raise SimulationError(
                    f"cannot schedule event in the past: {when} < now={now}"
                )
            when = now
        elif when != when:  # NaN compares false both ways
            raise SimulationError("cannot schedule event at NaN time")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [when, priority, seq, label, (fn, args)]
        heapq.heappush(self._queue, entry)
        self._live += 1
        return EventHandle(when, seq, entry, self)

    def call_after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn, *args, priority=priority,
                            label=label)

    # ------------------------------------------------------------- execution

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            payload = entry[_PAYLOAD]
            if payload is None:  # cancelled (already uncounted)
                continue
            self._live -= 1
            entry[_PAYLOAD] = _FIRED
            when = entry[_WHEN]
            self._now = when
            if self.trace is not None:
                self.trace.append((when, entry[_LABEL]))
            tracer = self.tracer
            if tracer.enabled:
                tracer.dispatch(when, entry[_LABEL])
            fn, args = payload
            fn(*args)
            return True
        return False

    def run(self, until: float = math.inf, max_events: int = 100_000_000) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the virtual time at which execution stopped.  Events scheduled
        exactly at ``until`` are executed.  With a finite ``until`` in the
        future, the clock always ends at ``until`` — whether the queue still
        holds later events or drained early — so callers can rely on
        ``run(until=t)`` leaving ``now == t``.  An infinite ``until`` leaves
        the clock at the last fired event.

        ``max_events`` is a firing budget guarding against livelock: the
        engine raises :class:`SimulationError` as soon as the budget is
        exhausted while another runnable event remains (exactly
        ``max_events`` events fire, never more).
        """
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        while queue:
            entry = queue[0]
            payload = entry[_PAYLOAD]
            if payload is None:
                pop(queue)
                continue
            when = entry[_WHEN]
            if when > until:
                break
            if fired >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a livelock"
                )
            pop(queue)
            self._live -= 1
            entry[_PAYLOAD] = _FIRED
            self._now = when
            if self.trace is not None:
                self.trace.append((when, entry[_LABEL]))
            tracer = self.tracer
            if tracer.enabled:
                tracer.dispatch(when, entry[_LABEL])
            fn, args = payload
            fn(*args)
            fired += 1
        if until != math.inf and until > self._now:
            self._now = until
        return self._now

    @property
    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if the queue is empty."""
        return self._peek_time()

    def _peek_time(self) -> Optional[float]:
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[_PAYLOAD] is None:
                heapq.heappop(queue)
                continue
            return entry[_WHEN]
        return None

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue.

        Maintained incrementally (O(1)): scheduling increments the counter,
        firing or cancelling decrements it — cancelled entries still sitting
        in the heap are not counted.
        """
        return self._live


class Completion:
    """A single-assignment future living on an :class:`Engine`.

    MPI operations and other asynchronous simulation activities return a
    ``Completion``; consumers register callbacks with :meth:`on_done`.
    Callbacks added after completion fire immediately (synchronously), which
    keeps rank drivers simple and avoids an extra zero-delay event.

    The common case is exactly one callback (a rank driver chaining on an
    MPI operation), so the first callback is stored in a dedicated slot and
    the overflow list is only allocated for the second and later ones.
    """

    __slots__ = ("engine", "label", "_done", "_cancelled", "_value", "_cb",
                 "_callbacks")

    def __init__(self, engine: Engine, label: str = "") -> None:
        self.engine = engine
        self.label = label
        self._done = False
        self._cancelled = False
        self._value: Any = None
        self._cb: Optional[Callable[[Any], None]] = None
        self._callbacks: Optional[list[Callable[[Any], None]]] = None

    @property
    def done(self) -> bool:
        """True once the underlying completion resolved."""
        return self._done

    @property
    def cancelled(self) -> bool:
        """True if cancelled before firing."""
        return self._cancelled

    @property
    def value(self) -> Any:
        """The resolved value; raises if not yet done."""
        if not self._done:
            raise SimulationError(f"completion {self.label!r} not done")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Mark done and fire callbacks in registration order."""
        if self._cancelled:
            return
        if self._done:
            raise SimulationError(f"completion {self.label!r} resolved twice")
        self._done = True
        self._value = value
        cb = self._cb
        if cb is None:
            return
        self._cb = None
        rest = self._callbacks
        if rest is None:
            cb(value)
            return
        self._callbacks = None
        cb(value)
        for other in rest:
            other(value)

    def resolve_at(self, when: float, value: Any = None) -> None:
        """Schedule resolution at absolute virtual time ``when``."""
        self.engine.call_at(when, self.resolve, value, label=f"resolve:{self.label}")

    def resolve_after(self, delay: float, value: Any = None) -> None:
        """Schedule resolution ``delay`` seconds from now."""
        self.engine.call_after(delay, self.resolve, value, label=f"resolve:{self.label}")

    def cancel(self) -> None:
        """Cancel: callbacks are dropped and resolution becomes a no-op.

        Used when a checkpoint discards the lower half while a rank is blocked
        inside a trivial barrier — the in-flight lower-half operation simply
        ceases to exist.
        """
        self._cancelled = True
        self._cb = None
        self._callbacks = None

    def on_done(self, cb: Callable[[Any], None]) -> None:
        """Register ``cb(value)``; fires immediately if already done."""
        if self._cancelled:
            return
        if self._done:
            cb(self._value)
        elif self._cb is None:
            self._cb = cb
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)


def all_of(engine: Engine, completions: list[Completion], label: str = "all") -> Completion:
    """Completion that resolves (with the list of values) when all inputs do."""
    out = Completion(engine, label=label)
    remaining = len(completions)
    if remaining == 0:
        out.resolve([])
        return out
    values: list[Any] = [None] * remaining

    def make_cb(i: int) -> Callable[[Any], None]:
        def cb(value: Any) -> None:
            nonlocal remaining
            values[i] = value
            remaining -= 1
            if remaining == 0:
                out.resolve(values)

        return cb

    for i, c in enumerate(completions):
        c.on_done(make_cb(i))
    return out
