"""Counters, gauges and virtual-time histograms behind a registry.

One :class:`MetricsRegistry` lives on every :class:`~repro.simtime.Engine`
(metrics, unlike tracing, are always on — they are plain dictionary
increments and never schedule events, so they cannot perturb a run).
Instruments are identified by ``(name, sorted labels)``; repeated lookups
return the same instrument, and hot paths memoize the instrument object
itself and add to a counter's ``value`` directly (their increments are
counts and sizes, never negative, so :meth:`Counter.inc`'s check is moot).

Naming conventions (see ``docs/observability.md``): dotted lower-case
names, ``<layer>.<subject>.<unit-ish>`` — e.g. ``mpi.p2p.sent_bytes``,
``mana.fs_switches``, ``ckpt.drain_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: default histogram buckets for virtual durations, log-spaced (seconds)
TIME_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0,
)


@dataclass
class Counter:
    """A monotonically increasing count (messages, bytes, switches)."""

    name: str
    labels: tuple
    value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time value that can move both ways (queue depth, rounds)."""

    name: str
    labels: tuple
    value: float = 0

    def set(self, v: float) -> None:
        """Install the current value."""
        self.value = v


@dataclass
class Histogram:
    """A fixed-bucket histogram of virtual durations.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts overflow.  Tracks sum and count so means are exact.
    """

    name: str
    labels: tuple
    buckets: tuple = TIME_BUCKETS
    counts: list = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, v: float) -> None:
        """Record one observation."""
        for i, edge in enumerate(self.buckets):
            if v <= edge:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += v
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """All instruments of one engine, keyed by name + labels."""

    def __init__(self) -> None:
        self._instruments: dict[tuple, Any] = {}

    def _get(self, kind, name: str, labels: dict, **kw):
        key = (kind.__name__, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = kind(
                name=name, labels=_label_key(labels), **kw
            )
        elif not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: tuple = TIME_BUCKETS,
                  **labels) -> Histogram:
        """The histogram for ``name`` + ``labels`` (created on first use)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    # --------------------------------------------------------------- queries

    def value(self, name: str, **labels) -> Optional[float]:
        """Current value of a counter/gauge, or None if never touched."""
        for kind in ("Counter", "Gauge"):
            inst = self._instruments.get((kind, name, _label_key(labels)))
            if inst is not None:
                return inst.value
        return None

    def total(self, name: str) -> float:
        """Sum of a counter's value across every label combination."""
        return sum(
            inst.value for (kind, n, _l), inst in self._instruments.items()
            if kind == "Counter" and n == name
        )

    def rows(self) -> list[tuple]:
        """Flat ``(name, labels-str, kind, value)`` rows, sorted by name.

        Histograms contribute their count and mean.  This is the table
        ``repro.obs.export.metrics_table`` renders and ``harness/report.py``
        consumes.
        """
        out = []
        for (kind, name, labels), inst in sorted(self._instruments.items(),
                                                 key=lambda kv: kv[0][1:]):
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            if kind == "Histogram":
                out.append((name, label_str, "histogram",
                            f"n={inst.count} mean={inst.mean:.6g}"))
            else:
                out.append((name, label_str, kind.lower(), inst.value))
        return out

    def merged(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry with this one's counters plus ``other``'s.

        Only counters are merged (gauges and histograms are engine-local
        state); used to aggregate across a checkpoint/restart cycle whose
        attempts run on separate engines.
        """
        out = MetricsRegistry()
        for reg in (self, other):
            for (kind, name, labels), inst in reg._instruments.items():
                if kind == "Counter":
                    out._get(Counter, name, dict(labels)).inc(inst.value)
        return out
