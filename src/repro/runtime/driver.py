"""RankDriver: executes one rank's program on the simulation engine.

Scheduling policy:

* consecutive :class:`Compute` leaves run inline, accumulating modeled cost
  (scaled by the owning node's speed) — one engine event then covers the
  whole batch, which keeps large iteration counts cheap to simulate;
* a :class:`Call` leaf is issued after the accumulated compute delay, and
  the driver parks until the call's completion resolves;
* between any two leaves the driver consults its gates —
  :attr:`quiesced` (MANA's do-ckpt freeze) and the optional
  :attr:`call_gate` hook (MANA's "wait before next collective call" /
  wrapper-entry hold) — so a checkpoint helper can stop the rank exactly at
  the boundaries the paper's protocol reasons about.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.mprog.ast import Call, Compute
from repro.mprog.interp import Action, Interpreter
from repro.simtime import Completion, Engine


class DriverError(RuntimeError):
    """Driver misuse (starting twice, resuming a running driver, ...)."""


#: Re-schedule through the event queue after this many inline zero-time
#: compute leaves, so a compute-only While loop cannot starve the engine.
_MAX_INLINE = 10_000


class RankDriver:
    """Drives one rank's interpreter against an :class:`MpiApi`."""

    def __init__(
        self,
        engine: Engine,
        interpreter: Interpreter,
        api: Any,
        core_speed: float = 1.0,
        label: str = "rank",
    ) -> None:
        self.engine = engine
        self.interp = interpreter
        self.api = api
        self.core_speed = core_speed
        self.label = label
        self.finished = Completion(engine, label=f"{label}:finished")
        self._started = False
        #: True once the rank was killed by a fault (node crash).  A dead
        #: driver never advances again; late completions are ignored.
        self.dead = False
        #: True between do-ckpt quiesce and resume; freezes leaf boundaries.
        self.quiesced = False
        #: Optional hook consulted before issuing a Call leaf.  Returning
        #: False parks the driver; the gate owner must later call
        #: :meth:`release` to continue.  MANA uses this for the
        #: wrapper-entry hold of Algorithm 2 line 28.
        self.call_gate: Optional[Callable[[Action], bool]] = None
        #: where the rank is parked: "running" | "gate" | "call" | "quiesce"
        #:  | "finished"
        self.parked_at = "running"
        #: invoked with the finished leaf's instance key just before the
        #: interpreter advances past it; MANA clears per-leaf guard and
        #: journal state here.
        self.leaf_done_hook: Optional[Callable[[tuple], None]] = None
        self._pending: Optional[Callable[[], None]] = None
        #: outstanding call action while blocked in the lower half
        self.current_call: Optional[Action] = None
        #: cumulative modeled compute seconds (diagnostics)
        self.compute_seconds = 0.0

    # --------------------------------------------------------------- control

    def start(self) -> None:
        """Begin execution (schedules the first event)."""
        if self._started:
            raise DriverError(f"driver {self.label} started twice")
        self._started = True
        self.engine.call_after(0.0, self._advance, label=f"{self.label}:start")

    def quiesce(self) -> None:
        """Freeze the rank at its next leaf boundary (or where it is parked)."""
        self.quiesced = True

    def kill(self) -> None:
        """Terminate the rank permanently (its node crashed).

        The stored continuation is dropped, the pending-state machinery is
        disabled, and the ``finished`` completion is cancelled so a joint
        ``all_of`` over a job's ranks can never resolve once a rank is lost.
        Idempotent; there is no way back — recovery means restarting a fresh
        driver from a checkpoint.
        """
        self.dead = True
        self.quiesced = False
        self._pending = None
        self.parked_at = "dead"
        if not self.finished.done:
            self.finished.cancel()

    def resume(self) -> None:
        """Undo :meth:`quiesce`; continue from the stored continuation."""
        if self.dead or not self.quiesced:
            return
        self.quiesced = False
        self._fire_pending()

    def release(self) -> None:
        """Release a driver parked on its :attr:`call_gate`."""
        if self.parked_at == "gate":
            self._fire_pending()

    def _fire_pending(self) -> None:
        if self._pending is not None:
            pending, self._pending = self._pending, None
            self.parked_at = "running"
            self.engine.call_after(0.0, pending, label=f"{self.label}:resume")

    def _park(self, where: str, continuation: Callable[[], None]) -> None:
        self.parked_at = where
        self._pending = continuation

    def current_call_key(self) -> Optional[tuple]:
        """Identity of the in-progress call leaf's dynamic instance:
        (node path, leaves completed so far).  Stable across checkpoint and
        restart — the interpreter continuation restores both components —
        so wrappers can make side-effecting call bodies exactly-once even
        though restart re-executes the leaf."""
        if self.current_call is None:
            return None
        return (self.current_call.path, self.interp.leaves_done)

    # ------------------------------------------------------------- main loop

    def _advance(self) -> None:
        if self.dead:
            return
        if self.quiesced:
            self._park("quiesce", self._advance)
            return
        acc_cost = 0.0
        inline = 0
        while True:
            action = self.interp.next_action()
            if action.kind == "done":
                self.parked_at = "finished"
                if acc_cost > 0:
                    self.finished.resolve_after(acc_cost, None)
                else:
                    self.finished.resolve(None)
                return
            if action.kind == "compute":
                node: Compute = action.node
                cost = node.eval_cost(self.interp.state) / self.core_speed
                node.fn(self.interp.state)
                self.interp.leaf_done()
                acc_cost += cost
                self.compute_seconds += cost
                inline += 1
                if inline >= _MAX_INLINE:
                    self.engine.call_after(
                        acc_cost, self._advance, label=f"{self.label}:batch"
                    )
                    return
                if self.quiesced:
                    # freeze after charging the compute we already ran
                    self.engine.call_after(
                        acc_cost, self._advance, label=f"{self.label}:quiesce-tail"
                    )
                    return
                continue
            # call leaf: charge accumulated compute first, then issue
            if acc_cost > 0:
                self.engine.call_after(
                    acc_cost, self._maybe_issue, action,
                    label=f"{self.label}:pre-call"
                )
            elif self.call_gate is None:
                self._issue(action)  # not dead, not quiesced: checked above
            else:
                self._maybe_issue(action)
            return

    def _maybe_issue(self, action: Action) -> None:
        if self.dead:
            return
        if self.quiesced:
            self._park("quiesce", lambda: self._maybe_issue(action))
            return
        if self.call_gate is not None and not self.call_gate(action):
            self._park("gate", lambda: self._maybe_issue(action))
            return
        self._issue(action)

    def _issue(self, action: Action) -> None:
        node: Call = action.node
        self.current_call = action
        self.parked_at = "call"
        completion = node.fn(self.interp.state, self.api)
        if not isinstance(completion, Completion):
            raise DriverError(
                f"call leaf {node.label!r} returned {type(completion).__name__}, "
                "expected a Completion"
            )
        completion.on_done(self._call_finished)

    def _call_finished(self, value: Any) -> None:
        if self.dead:
            return  # the call outlived its rank (e.g. a zombie collective)
        action = self.current_call
        store = action.node.store
        if store is not None:
            self.interp.state[store] = value
        if self.leaf_done_hook is not None:
            self.leaf_done_hook((action.path, self.interp.leaves_done))
        self.current_call = None
        self.parked_at = "running"
        self.interp.leaf_done()
        if self.quiesced:
            # The call completed while frozen (e.g. a send finishing during
            # drain): the continuation pointer has advanced, execution resumes
            # only after the helper releases us.
            self._park("quiesce", self._advance)
            return
        self._advance()
