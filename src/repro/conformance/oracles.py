"""Equivalence oracles: what "restarted correctly" means, executably.

Two oracles decide every cell of the conformance matrix:

* **golden state** — the restarted run's final application state must be
  *bit-identical* to the uncheckpointed golden run's: every rank's state
  dict is folded into a canonical SHA-256 fingerprint (numpy payloads
  hashed by dtype/shape/raw bytes, floats by their IEEE-754 encoding, so
  "close enough" never passes);
* **message conservation** — over the merged metrics of the source engine
  and the restarted engine, every p2p byte and message sent is received
  exactly once (``mpi.p2p.sent_* == mpi.p2p.recv_*``), and — because the
  wire counters model application payloads, not transport framing — the
  totals equal the golden run's.  Lost drains, duplicated re-sends and
  journal replay bugs all land here.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Iterable, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry


# ------------------------------------------------------- state fingerprint

def _encode(obj: Any, h) -> None:
    """Fold one value into the hash with an unambiguous type tag."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        data = str(obj).encode()
        h.update(b"I" + len(data).to_bytes(4, "little") + data)
    elif isinstance(obj, float):
        h.update(b"F" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"S" + len(data).to_bytes(4, "little") + data)
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"Y" + len(obj).to_bytes(8, "little") + bytes(obj))
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        _encode(arr.dtype.str, h)
        _encode(arr.shape, h)
        h.update(b"A" + arr.tobytes())
    elif isinstance(obj, np.generic):
        _encode(np.asarray(obj), h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" if isinstance(obj, list) else b"T")
        h.update(len(obj).to_bytes(8, "little"))
        for item in obj:
            _encode(item, h)
    elif isinstance(obj, dict):
        h.update(b"D" + len(obj).to_bytes(8, "little"))
        for key in sorted(obj, key=repr):
            _encode(repr(key), h)
            _encode(obj[key], h)
    elif isinstance(obj, enum.Enum):
        _encode(f"{type(obj).__name__}.{obj.name}", h)
    elif is_dataclass(obj) and not isinstance(obj, type):
        _encode(type(obj).__name__, h)
        for f in fields(obj):
            _encode(f.name, h)
            _encode(getattr(obj, f.name), h)
    else:
        # last resort: a stable repr (sets, simple value objects)
        _encode(f"{type(obj).__name__}:{obj!r}", h)


def state_fingerprint(states: Iterable[Any]) -> str:
    """Canonical SHA-256 over every rank's final application state.

    Keys starting with ``_`` are interpreter scratch (in-flight call
    buffers), not application state, and are excluded; everything the app
    can observe — including every float bit — is hashed.
    """
    h = hashlib.sha256()
    for state in states:
        public = {
            k: v for k, v in dict(state).items()
            if not (isinstance(k, str) and k.startswith("_"))
        }
        _encode(public, h)
    return h.hexdigest()


# ------------------------------------------------------------ conservation

@dataclass(frozen=True)
class ConservationTotals:
    """The four p2p wire counters the conservation oracle balances."""

    sent_messages: float
    recv_messages: float
    sent_bytes: float
    recv_bytes: float

    def as_dict(self) -> dict:
        """Plain-dict form for reports and JSON."""
        return {
            "sent_messages": self.sent_messages,
            "recv_messages": self.recv_messages,
            "sent_bytes": self.sent_bytes,
            "recv_bytes": self.recv_bytes,
        }

    def __add__(self, other: "ConservationTotals") -> "ConservationTotals":
        """Field-wise sum — merges the source and restarted engines' totals
        exactly like :meth:`MetricsRegistry.merged` merges counters."""
        return ConservationTotals(
            sent_messages=self.sent_messages + other.sent_messages,
            recv_messages=self.recv_messages + other.recv_messages,
            sent_bytes=self.sent_bytes + other.sent_bytes,
            recv_bytes=self.recv_bytes + other.recv_bytes,
        )


def conservation_totals(metrics: MetricsRegistry) -> ConservationTotals:
    """Read the p2p conservation counters off one (or a merged) registry."""
    return ConservationTotals(
        sent_messages=metrics.total("mpi.p2p.sent_messages"),
        recv_messages=metrics.total("mpi.p2p.recv_messages"),
        sent_bytes=metrics.total("mpi.p2p.sent_bytes"),
        recv_bytes=metrics.total("mpi.p2p.recv_bytes"),
    )


# -------------------------------------------------------------- divergence

@dataclass(frozen=True)
class Divergence:
    """One oracle violation: which check failed, and the two sides."""

    oracle: str          # "golden_state" | "conservation" | "golden_traffic"
    expected: Any
    actual: Any
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.oracle}: expected {self.expected!r}, got {self.actual!r}"
        return f"{msg} ({self.detail})" if self.detail else msg


def check_golden_state(golden_fingerprint: str,
                       states: Iterable[Any]) -> Optional[Divergence]:
    """Golden-state oracle: bit-identical final state, or a Divergence."""
    actual = state_fingerprint(states)
    if actual != golden_fingerprint:
        return Divergence(
            oracle="golden_state",
            expected=golden_fingerprint, actual=actual,
            detail="restarted final state differs from the uncheckpointed run",
        )
    return None


def check_replay_consistency(ckpt) -> list[Divergence]:
    """Replay-deadlock oracle over a checkpoint set's record-replay logs.

    A compacted log rebuilds each live communicator in one
    ``comm_create_group`` over its members, keyed ``(world_ranks, k)``
    (:mod:`repro.mana.log_compaction`).  Every key a rank holds must be held
    by every member the key lists, or that rank waits at restart for a peer
    that never comes; each missing holder is a ``replay_consistency``
    divergence.
    """
    from repro.mana.record_replay import iter_rows

    held = [
        {args[:2] for op, args, _vid, _kind
         in iter_rows(image.restore_state()["log"]["chunks"])
         if op == "comm_create_group"}
        for image in ckpt.images
    ]
    return [
        Divergence(
            oracle="replay_consistency", expected="all ranks drain",
            actual=f"rank {rank} holds comm_create_group {key}, "
                   f"member {member} does not",
            detail="record-replay logs would deadlock at restart",
        )
        for rank, keys in enumerate(held) for key in sorted(keys)
        for member in key[0]
        if member >= len(held) or key not in held[member]
    ]


def check_replay_accounting(ckpt, report) -> list[Divergence]:
    """Replay-count oracle: the restart must replay *exactly* the log.

    ``report.replayed_entries`` (summed over ranks) must equal the total
    number of entries stored in the images — a wedged pump, a skipped
    entry, or a double replay all break the equality.
    """
    entries = sum(image.restore_state()["log"]["length"]
                  for image in ckpt.images)
    if report.replayed_entries == entries:
        return []
    return [Divergence(
        oracle="replay_accounting", expected=entries,
        actual=report.replayed_entries,
        detail="restart replayed a different entry count than the images "
               "hold",
    )]


def check_handle_ledger(job) -> list[Divergence]:
    """Lower-half leak oracle: the world's handle ledger must agree with
    the per-rank virtual tables.

    Every live ledger entry (a real communicator or file handle the lower
    half still holds) must be reachable from some rank's bound virtual
    handles — a replay path that rebuilds a handle without releasing the
    old one, or frees the upper-half binding without the lower-half
    resource, diverges here.  A communicator freed while a file opened on
    it is still open is reachable through that file, which holds it.
    """
    from repro.mana.virtualize import HandleKind

    out = []
    for kind, hkind in (("comm", HandleKind.COMM), ("file", HandleKind.FILE)):
        if hkind is HandleKind.FILE:
            # closed files can stay bound in the table (vid reuse is
            # illegal); count only the ones still open
            bound = sum(
                sum(1 for f in rt.table.bound(hkind).values()
                    if not f.real.closed)
                for rt in job.runtimes
            )
        else:
            bound = sum(len(_held_comms(rt.table)) for rt in job.runtimes)
        live = job.world.ledger.live(kind)
        if live != bound:
            out.append(Divergence(
                oracle="handle_ledger", expected=bound, actual=live,
                detail=f"lower-half {kind} handles leaked or double-freed "
                       f"(ledger vs virtual tables)",
            ))
    return out


def _held_comms(table) -> set:
    """Virtual ids of the communicators a rank holds: the bound ones, and
    the freed ones an open file was opened on."""
    from repro.mana.virtualize import HandleKind

    files = table.bound(HandleKind.FILE).values()
    return set(table.bound(HandleKind.COMM)).union(
        f.vcomm for f in files if not f.real.closed)


def check_conservation(
    merged: ConservationTotals,
    golden: Optional[ConservationTotals] = None,
) -> list[Divergence]:
    """Conservation oracle over a cycle's merged counters.

    Always checks sent == received (messages and bytes).  When the golden
    run's totals are supplied, also checks the cycle moved exactly the
    golden traffic — a drained message delivered twice balances sent/recv
    on its own but still shows up against the golden totals.
    """
    out = []
    if merged.sent_messages != merged.recv_messages:
        out.append(Divergence(
            "conservation", merged.sent_messages, merged.recv_messages,
            "p2p messages lost or duplicated across the cycle",
        ))
    if merged.sent_bytes != merged.recv_bytes:
        out.append(Divergence(
            "conservation", merged.sent_bytes, merged.recv_bytes,
            "p2p bytes lost or duplicated across the cycle",
        ))
    if golden is not None:
        if (merged.sent_messages, merged.sent_bytes) != (
                golden.sent_messages, golden.sent_bytes):
            out.append(Divergence(
                "golden_traffic",
                (golden.sent_messages, golden.sent_bytes),
                (merged.sent_messages, merged.sent_bytes),
                "cycle sent different wire traffic than the golden run",
            ))
    return out
