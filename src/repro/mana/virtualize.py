"""Virtual MPI handles (§2.2).

The application only ever sees *virtual* handles: small integers minted by
MANA, one namespace per handle kind.  Each rank's table maps virtual ids to
the current lower half's *real* objects (whose raw handle values are
implementation-specific).  Across a restart the real side is rebuilt by
record-replay while the virtual ids — the only thing stored in application
state — remain unchanged.

Every translation models the cost the paper attributes to virtualization
(§3.3: "a hash table lookup and locks for thread safety"); the wrapper layer
charges :data:`LOOKUP_COST` per translated handle.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

#: Modeled cost of one virtual-handle table lookup (hash + lock), seconds.
LOOKUP_COST = 40e-9


class VirtualizationError(RuntimeError):
    """Dangling or foreign virtual handles."""


class HandleKind(enum.Enum):
    """The opaque-handle namespaces MANA virtualizes."""
    COMM = "comm"
    GROUP = "group"
    DATATYPE = "datatype"
    REQUEST = "request"
    FILE = "file"


#: The application-visible handle for MPI_COMM_WORLD, fixed by convention
#: (real MPI fixes its predefined handles too).
VCOMM_WORLD = 1


class VirtualHandleTable:
    """One rank's virtual↔real mapping for every handle kind."""

    def __init__(self) -> None:
        # virtual ids start above the predefined range
        self._counters = {kind: itertools.count(1000) for kind in HandleKind}
        self._real: dict[HandleKind, dict[int, Any]] = {k: {} for k in HandleKind}
        #: ``_real[HandleKind.COMM]``, the map every p2p wrapper call reads:
        #: reached without hashing the enum member (a Python-level call)
        self._comms = self._real[HandleKind.COMM]
        #: vids whose real side was discarded (restore / clear_reals) and
        #: that replay is therefore entitled to rebind
        self._expected: dict[HandleKind, set[int]] = {k: set() for k in HandleKind}
        #: cumulative lookup count (drives the modeled overhead and tests)
        self.lookups = 0

    # ------------------------------------------------------------- minting

    def register(self, kind: HandleKind, real: Any,
                 virtual: Optional[int] = None) -> int:
        """Bind ``real`` to a (new or given) virtual id; returns the id."""
        vid = next(self._counters[kind]) if virtual is None else int(virtual)
        if vid in self._real[kind]:
            raise VirtualizationError(
                f"virtual {kind.value} handle {vid} already bound"
            )
        self._real[kind][vid] = real
        return vid

    def rebind(self, kind: HandleKind, virtual: int, real: Any) -> None:
        """Point an existing virtual id at a fresh real object (restart path).

        Strict: the vid must either be live (re-pointing a current binding)
        or be owed a real object from the restored snapshot's bound set /
        :meth:`clear_reals`.  Rebinding a vid the table has never known is a
        replay bug — raising here surfaces it instead of silently minting a
        binding nothing else is accounting for.
        """
        vid = int(virtual)
        if vid not in self._real[kind] and vid not in self._expected[kind]:
            raise VirtualizationError(
                f"virtual {kind.value} handle {vid} was never bound; "
                "refusing to rebind a dangling handle"
            )
        self._expected[kind].discard(vid)
        self._real[kind][vid] = real

    def expects_rebind(self, kind: HandleKind, virtual: int) -> bool:
        """True if ``virtual`` is owed a real object by replay (it was bound
        when the snapshot was cut / the lower half was discarded)."""
        return int(virtual) in self._expected[kind]

    def unregister(self, kind: HandleKind, virtual: int) -> None:
        """Drop a binding (e.g. MPI_Comm_free)."""
        try:
            del self._real[kind][int(virtual)]
        except KeyError:
            raise VirtualizationError(
                f"virtual {kind.value} handle {virtual} is not bound"
            ) from None

    # ------------------------------------------------------------ lookups

    def resolve(self, kind: HandleKind, virtual: int) -> Any:
        """Virtual id -> current real object (counts as one modeled lookup)."""
        self.lookups += 1
        try:
            if kind is HandleKind.COMM:
                return self._comms[int(virtual)]
            return self._real[kind][int(virtual)]
        except KeyError:
            raise VirtualizationError(
                f"dangling virtual {kind.value} handle {virtual}"
            ) from None

    def reverse(self, kind: HandleKind, real: Any) -> Optional[int]:
        """Real object -> virtual id (identity comparison), or None."""
        for vid, obj in self._real[kind].items():
            if obj is real:
                return vid
        return None

    def bound(self, kind: HandleKind) -> dict[int, Any]:
        """Snapshot of the current bindings of one kind."""
        return dict(self._real[kind])

    # -------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Picklable descriptor side: per-kind next-id and bound vid lists.

        Real objects are *not* captured — they belong to the lower half and
        are rebuilt by record-replay at restart.
        """
        # Peek each counter without consuming a value.
        nexts = {}
        for kind, counter in self._counters.items():
            probe = next(counter)
            nexts[kind.value] = probe
            self._counters[kind] = itertools.chain([probe], counter)
        return {
            "next": nexts,
            "bound": {k.value: sorted(self._real[k]) for k in HandleKind},
        }

    def restore(self, snap: dict) -> None:
        """Install counters from a snapshot; bindings start empty (real
        objects are supplied by :meth:`rebind` during replay).  The
        snapshot's bound-vid sets become the rebind entitlement."""
        for kind in HandleKind:
            self._counters[kind] = itertools.count(snap["next"].get(kind.value, 1000))
            self._real[kind].clear()
            self._expected[kind] = set(
                int(v) for v in snap["bound"].get(kind.value, ())
            )

    def clear_reals(self) -> list[tuple[HandleKind, int]]:
        """Forget every real object (the lower half is being discarded);
        returns the (kind, virtual) pairs that must be rebuilt by replay."""
        dangling = [
            (kind, vid) for kind in HandleKind for vid in self._real[kind]
        ]
        for kind in HandleKind:
            self._expected[kind].update(self._real[kind])
            self._real[kind].clear()
        return dangling
