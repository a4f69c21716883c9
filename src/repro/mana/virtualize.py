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


#: read once (an enum member read off its class goes through the enum
#: metaclass's ``__getattr__`` hook; see repro.mana.wrappers)
_COMM = HandleKind.COMM

#: The application-visible handle for MPI_COMM_WORLD, fixed by convention
#: (real MPI fixes its predefined handles too).
VCOMM_WORLD = 1


class VirtualHandleTable:
    """One rank's virtual↔real mapping for every handle kind.

    The per-kind maps are keyed by the kind's value string, read as
    ``kind._value_``: hashing an enum member is a Python-level call, and
    every wrapper call translates at least one handle.
    """

    def __init__(self) -> None:
        # virtual ids start above the predefined range
        self._next: dict[str, int] = {k.value: 1000 for k in HandleKind}
        self._real: dict[str, dict[int, Any]] = {k.value: {} for k in HandleKind}
        #: ``_real["comm"]``, the map every p2p wrapper call reads
        self._comms = self._real[_COMM.value]
        #: ``_real["file"]``, read by every communicator free
        self._files = self._real[HandleKind.FILE.value]
        #: vids whose real side was discarded (restore / clear_reals) and
        #: that replay is therefore entitled to rebind
        self._expected: dict[str, set[int]] = {k.value: set() for k in HandleKind}
        #: cumulative lookup count (drives the modeled overhead and tests)
        self.lookups = 0

    # ------------------------------------------------------------- minting

    def register(self, kind: HandleKind, real: Any,
                 virtual: Optional[int] = None) -> int:
        """Bind ``real`` to a (new or given) virtual id; returns the id."""
        key = kind._value_
        if virtual is None:
            vid = self._next[key]
            self._next[key] = vid + 1
        else:
            vid = int(virtual)
        reals = self._real[key]
        if vid in reals:
            raise VirtualizationError(
                f"virtual {key} handle {vid} already bound"
            )
        reals[vid] = real
        return vid

    def rebind(self, kind: HandleKind, virtual: int, real: Any) -> None:
        """Point an existing virtual id at a fresh real object (restart path).

        Strict: the vid must either be live (re-pointing a current binding)
        or be owed a real object from the restored snapshot's bound set /
        :meth:`clear_reals`.  Rebinding a vid the table has never known is a
        replay bug — raising here surfaces it instead of silently minting a
        binding nothing else is accounting for.
        """
        key = kind._value_
        vid = int(virtual)
        if vid not in self._real[key] and vid not in self._expected[key]:
            raise VirtualizationError(
                f"virtual {key} handle {vid} was never bound; "
                "refusing to rebind a dangling handle"
            )
        self._expected[key].discard(vid)
        self._real[key][vid] = real

    def expects_rebind(self, kind: HandleKind, virtual: int) -> bool:
        """True if ``virtual`` is owed a real object by replay (it was bound
        when the snapshot was cut / the lower half was discarded)."""
        return int(virtual) in self._expected[kind._value_]

    def bind_replayed(self, kind: HandleKind, virtual: int, real: Any) -> None:
        """Bind a creation result that replay rebuilt under its original
        virtual id.

        A vid still bound when the image was cut is owed a real object and
        is *rebound* (the strict path: the restored table expects exactly
        those ids).  A vid freed again before the checkpoint is a fresh
        registration, which a later free entry of the same log retires.
        """
        key = kind._value_
        expected = self._expected[key]
        if virtual in expected:
            expected.discard(virtual)
            self._real[key][virtual] = real
        else:
            self.register(kind, real, virtual=virtual)

    def unregister(self, kind: HandleKind, virtual: int) -> Any:
        """Drop a binding (e.g. MPI_Comm_free); returns the real object it
        was bound to."""
        reals = self._real[kind._value_]
        vid = int(virtual)
        try:
            real = reals[vid]
        except KeyError:
            raise VirtualizationError(
                f"virtual {kind._value_} handle {virtual} is not bound"
            ) from None
        del reals[vid]
        return real

    # ------------------------------------------------------------ lookups

    def resolve(self, kind: HandleKind, virtual: int) -> Any:
        """Virtual id -> current real object (counts as one modeled lookup)."""
        self.lookups += 1
        try:
            if kind is _COMM:
                return self._comms[virtual]
            return self._real[kind._value_][virtual]
        except KeyError:
            raise VirtualizationError(
                f"dangling virtual {kind._value_} handle {virtual}"
            ) from None

    def reverse(self, kind: HandleKind, real: Any) -> Optional[int]:
        """Real object -> virtual id (identity comparison), or None."""
        for vid, obj in self._real[kind._value_].items():
            if obj is real:
                return vid
        return None

    def bound(self, kind: HandleKind) -> dict[int, Any]:
        """Snapshot of the current bindings of one kind."""
        return dict(self._real[kind._value_])

    def file_holds(self, vcomm: int) -> bool:
        """True if an open file was opened on communicator ``vcomm``: in MPI
        the file keeps its communicator until MPI_File_close, even after
        MPI_Comm_free (see repro.mana.wrappers.close_file)."""
        files = self._files
        if files:
            for binding in files.values():
                if binding.vcomm == vcomm:
                    return True
        return False

    # -------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Picklable descriptor side: per-kind next-id and bound vid lists.

        Real objects are *not* captured — they belong to the lower half and
        are rebuilt by record-replay at restart.
        """
        return {
            "next": dict(self._next),
            "bound": {key: sorted(reals) for key, reals in self._real.items()},
        }

    def restore(self, snap: dict) -> None:
        """Install counters from a snapshot; bindings start empty (real
        objects are supplied by :meth:`rebind` during replay).  The
        snapshot's bound-vid sets become the rebind entitlement."""
        for key, reals in self._real.items():
            self._next[key] = snap["next"][key]
            reals.clear()
            self._expected[key] = set(map(int, snap["bound"][key]))

    def clear_reals(self) -> list[tuple[HandleKind, int]]:
        """Forget every real object (the lower half is being discarded);
        returns the (kind, virtual) pairs that must be rebuilt by replay."""
        dangling = [
            (kind, vid) for kind in HandleKind for vid in self._real[kind.value]
        ]
        for key, reals in self._real.items():
            self._expected[key].update(reals)
            reals.clear()
        return dangling
