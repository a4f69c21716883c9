"""Interconnect base: timed delivery with in-flight tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.memory.region import RegionKind
from repro.simtime import Completion, Engine


class NetworkError(RuntimeError):
    """Raised on protocol misuse (delivering unknown messages, etc.)."""


@dataclass(frozen=True)
class DriverRegionSpec:
    """A lower-half memory region the network driver maps at init time."""

    kind: RegionKind
    name: str
    size: int


@dataclass(slots=True)
class Message:
    """One wire-level transfer between two endpoints."""

    msg_id: int
    src_node: int
    dst_node: int
    size: int
    payload: Any = None
    meta: dict = field(default_factory=dict)


class Interconnect:
    """Base class for simulated fabrics.

    Subclasses define the α/β timing constants and the driver memory
    footprint; this base implements timed, order-preserving delivery and
    counts what is in flight for the drain invariant.
    """

    #: Registry name ("aries", "infiniband", "tcp").
    name: str = "abstract"
    #: One-way wire latency (seconds).
    alpha: float = 10e-6
    #: Link bandwidth (bytes/second).
    beta: float = 1e9
    #: Host CPU cost to inject one message (seconds) — paid by the sender.
    per_message_cpu: float = 300e-9

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        #: messages and bytes currently on the wire (drain invariant)
        self.in_flight_count = 0
        self.in_flight_bytes = 0
        #: cumulative statistics for experiment reporting; ``messages_sent``
        #: also numbers the messages (the n-th one sent is message n)
        self.messages_sent = 0
        self.bytes_sent = 0
        #: nominal (α, β) saved while a transient degradation is active
        self._nominal: Optional[tuple[float, float]] = None
        #: format of a delivery event's label, ``<name>:deliver<msg id>``
        self._deliver_label = self.name + ":deliver%d"

    # ------------------------------------------------------------- timing

    def transfer_time(self, size: int) -> float:
        """Pure wire time for ``size`` bytes (no host CPU cost)."""
        return self.alpha + size / self.beta

    # ----------------------------------------------------- fault injection

    @property
    def degraded(self) -> bool:
        """True while a transient network degradation is active."""
        return self._nominal is not None

    def degrade(self, alpha_mult: float = 1.0, beta_mult: float = 1.0) -> None:
        """Enter a degraded window: multiply α (latency) by ``alpha_mult``
        and β (bandwidth) by ``beta_mult``.  Used by the fault injector to
        model congestion or a failed-over link; :meth:`restore` undoes it.
        Messages already in flight keep their original arrival times."""
        if alpha_mult <= 0 or beta_mult <= 0:
            raise NetworkError("degradation multipliers must be positive")
        if self._nominal is None:
            self._nominal = (self.alpha, self.beta)
        self.alpha = self._nominal[0] * alpha_mult
        self.beta = self._nominal[1] * beta_mult

    def restore(self) -> None:
        """Leave the degraded window: back to the nominal α/β (idempotent)."""
        if self._nominal is not None:
            self.alpha, self.beta = self._nominal
            self._nominal = None

    # ------------------------------------------------------------ transfer

    def transmit(
        self,
        src_node: int,
        dst_node: int,
        size: int,
        payload: Any = None,
        meta: Optional[dict] = None,
        not_before: float = 0.0,
    ) -> tuple[Message, Completion]:
        """Inject a message; the completion resolves (with the Message) on
        arrival at the destination NIC.

        ``not_before`` lower-bounds the arrival time; the p2p engine uses it
        to enforce per-channel FIFO delivery (MPI's non-overtaking rule)
        even when a small message is injected behind a large one.
        """
        done = Completion(self.engine)
        msg = Message(self.messages_sent + 1, src_node, dst_node, size,
                      payload, dict(meta or {}))
        msg.meta["arrival"] = self._send(size, not_before, done.resolve, msg)
        done.label = f"{self.name}:msg{msg.msg_id}"
        return msg, done

    def _send(self, size: int, not_before: float, fn: Callable[[Any], None],
              arg: Any) -> float:
        """:meth:`transmit` without a Message or a Completion: ``fn(arg)``
        runs on arrival.  Returns the arrival time."""
        msg_id = self.messages_sent + 1
        self.messages_sent = msg_id
        self.bytes_sent += size
        self.in_flight_count += 1
        self.in_flight_bytes += size
        engine = self.engine
        # grouped as transfer_time() groups it: now + alpha + size / beta
        # rounds differently and moves every later event
        arrival = engine._now + (self.alpha + size / self.beta)
        if arrival < not_before:
            arrival = not_before
        engine._post(arrival, self._deliver, (size, fn, arg),
                     (self._deliver_label, msg_id))
        return arrival

    def _deliver(self, size: int, fn: Callable[[Any], None], arg: Any) -> None:
        self.in_flight_count -= 1
        self.in_flight_bytes -= size
        fn(arg)

    # --------------------------------------------------------- lower half

    def driver_regions(self, n_nodes: int, ranks_per_node: int) -> list[DriverRegionSpec]:
        """Lower-half regions this fabric's driver maps at MPI init.

        Subclasses override; the base maps nothing.
        """
        return []
