"""Exporters: Chrome trace-event JSON and flat metrics/timeline tables.

:func:`chrome_trace` turns one or more tracers into the JSON-object flavour
of the Chrome ``trace_event`` format, loadable in ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_.  Each tracer (i.e. each engine — a
restart runs on a fresh engine) becomes one *process* track; ranks become
threads within it, with the coordinator on thread 0.  Virtual seconds map
to trace microseconds.

:func:`validate_chrome_trace` is the schema gate used by the test suite and
the CI smoke job: it checks the structural rules viewers actually rely on
(phase codes, required fields, per-thread B/E nesting).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from repro.obs.events import InstantEvent, SpanEvent
from repro.obs.metrics import MetricsRegistry

#: rank -> trace thread id (thread 0 is the coordinator / unranked actors)
_COORD_TID = 0

#: phase codes this exporter emits / the validator accepts
_PHASES = {"B", "E", "X", "i", "M", "C"}


def _tid(rank: Optional[int]) -> int:
    return _COORD_TID if rank is None else rank + 1


def _us(t: float) -> float:
    return t * 1e6


def _event_args(ev) -> dict:
    args = dict(ev.args)
    if ev.node is not None:
        args["node"] = ev.node
    return args


def chrome_trace(tracers: Iterable, label: str = "repro") -> dict:
    """Render tracers as a Chrome trace-event JSON object.

    ``tracers`` may contain :class:`~repro.obs.tracer.Tracer` objects (a
    :class:`~repro.obs.tracer.NullTracer` contributes nothing).  Dropped
    event counts are surfaced in ``otherData`` rather than lost silently.
    """
    events: list[dict] = []
    dropped = 0
    for pid, tracer in enumerate(tracers, start=1):
        dropped += getattr(tracer, "dropped", 0)
        events.append({
            "ph": "M", "pid": pid, "tid": _COORD_TID,
            "name": "process_name", "args": {"name": f"{label}/engine-{pid}"},
        })
        ranks = sorted({e.rank for e in tracer.events if e.rank is not None})
        events.append({
            "ph": "M", "pid": pid, "tid": _COORD_TID,
            "name": "thread_name", "args": {"name": "coordinator"},
        })
        for r in ranks:
            events.append({
                "ph": "M", "pid": pid, "tid": _tid(r),
                "name": "thread_name", "args": {"name": f"rank {r}"},
            })
        for ev in tracer.events:
            base = {
                "name": ev.name, "cat": ev.cat, "pid": pid,
                "tid": _tid(ev.rank), "ts": _us(ev.ts),
                "args": _event_args(ev),
            }
            if isinstance(ev, SpanEvent):
                if ev.closed:
                    events.append({**base, "ph": "X", "dur": _us(ev.dur)})
                else:
                    events.append({**base, "ph": "B"})
            elif isinstance(ev, InstantEvent):
                events.append({**base, "ph": "i", "s": "t"})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "droppedEvents": dropped},
    }


def write_chrome_trace(path: str, tracers: Iterable, label: str = "repro") -> dict:
    """Validate and write a Chrome trace for ``tracers``; returns the doc."""
    doc = chrome_trace(tracers, label=label)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


# ------------------------------------------------------------- validation

class TraceValidationError(ValueError):
    """The exported document violates the trace-event schema."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__(
            f"{len(errors)} trace-event schema violation(s): "
            + "; ".join(errors[:5])
        )
        self.errors = errors


def validate_chrome_trace(doc: Any) -> None:
    """Check ``doc`` against the trace-event schema; raises on violation.

    Enforces the JSON-object container shape, per-event required fields by
    phase code, and balanced ``B``/``E`` nesting per (pid, tid) thread.
    """
    errors: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise TraceValidationError(
            ["document must be an object with a traceEvents list"]
        )
    depth: dict[tuple, int] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                errors.append(f"{where}: missing integer {field}")
        if ph != "M":
            if not isinstance(ev.get("ts"), (int, float)):
                errors.append(f"{where}: missing numeric ts")
            if "cat" in ev and not isinstance(ev["cat"], str):
                errors.append(f"{where}: cat must be a string")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0")
        if ph == "i" and ev.get("s") not in ("g", "p", "t"):
            errors.append(f"{where}: instant scope must be g/p/t")
        if ph in ("B", "E"):
            key = (ev.get("pid"), ev.get("tid"))
            d = depth.get(key, 0) + (1 if ph == "B" else -1)
            if d < 0:
                errors.append(f"{where}: E without matching B on {key}")
                d = 0
            depth[key] = d
    if errors:
        raise TraceValidationError(errors)


# ----------------------------------------------------------------- tables

def metrics_table(metrics: MetricsRegistry, title: str = "metrics"):
    """The registry as a flat :class:`~repro.harness.results.Table`."""
    from repro.harness.results import Table

    out = Table(title, ["metric", "labels", "kind", "value"])
    for name, labels, kind, value in metrics.rows():
        out.add(name, labels, kind, value)
    return out


def rank_timeline(tracers: Iterable, title: str = "per-rank timeline"):
    """Per-rank, per-category span totals as a Table.

    One row per (rank, category): how many spans that rank recorded in the
    category and how much virtual time they covered.  The coordinator
    appears as rank ``coord``.  Open spans count as zero duration.
    """
    from repro.harness.results import Table

    agg: dict[tuple, list] = {}
    for tracer in tracers:
        for ev in tracer.events:
            if not isinstance(ev, SpanEvent):
                continue
            key = ("coord" if ev.rank is None else ev.rank, ev.cat)
            row = agg.setdefault(key, [0, 0.0])
            row[0] += 1
            row[1] += ev.dur or 0.0
    out = Table(title, ["rank", "category", "spans", "busy_s"])
    for (rank, cat), (count, busy) in sorted(
            agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        out.add(rank, cat, count, busy)
    return out
