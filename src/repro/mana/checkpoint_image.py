"""Checkpoint images: upper-half memory plus MANA wrapper state.

An image is what one rank's helper thread writes to stable storage.  It has

* a *payload* — the pickled bytes actually restored at restart: interpreter
  continuation, application ``ProgramState``, the upper heap, the virtual
  handle descriptors, the record-replay log, p2p counters and the drained
  message buffer;
* a *modeled size* — the sum of the rank's upper-half region sizes, which is
  what the Lustre model times and what Fig. 6 reports per rank.

The image constructor enforces invariant 2 of DESIGN.md: regions tagged
LOWER (or marked ephemeral) may never be captured.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field

from repro.mana.record_replay import encode_chunks
from repro.memory.region import Half, MemoryRegion

#: Shape version of the restore payload, stamped on every image.  Only this
#: module knows older shapes (:func:`migrate`); every other reader assumes
#: the current one.  On a change, bump it, add the step to :func:`migrate`
#: and commit a new set to ``tests/mana/images``.  Schema 5 holds a log as
#: the pickled chunks of its rows (``repro.mana.record_replay``).  Before,
#: a log held ``LogEntry`` objects: in schema 2 (no stamp) an entry list or
#: a dict, each entry pickled as its ``__dict__``, its field tuple or a
#: constructor call; in schema 3 a constructor call with a fifth field, the
#: result communicator's members; in schema 4 a call on four fields.
SCHEMA = 5


class CheckpointError(RuntimeError):
    """Image construction/restore violations."""


@dataclass(frozen=True)
class RegionDescriptor:
    """Metadata of one saved region (layout restored verbatim)."""

    name: str
    kind: str
    perm: int
    size: int


@dataclass
class CheckpointImage:
    """One rank's checkpoint."""

    rank: int
    #: modeled on-disk size in bytes (drives write/read timing)
    size_bytes: int
    #: descriptors of the saved upper-half regions
    regions: tuple[RegionDescriptor, ...]
    #: pickled restore payload
    payload: bytes
    #: wall-clock (virtual) time the image was cut
    taken_at: float
    #: payload shape version the image was written with (see :func:`migrate`)
    schema: int = SCHEMA

    @classmethod
    def capture(
        cls,
        rank: int,
        upper_regions: list[MemoryRegion],
        state: dict,
        taken_at: float,
    ) -> "CheckpointImage":
        """Build an image from a rank's upper half and wrapper state."""
        for region in upper_regions:
            if region.half is not Half.UPPER:
                raise CheckpointError(
                    f"rank {rank}: lower-half region {region.name!r} "
                    "reached the checkpoint writer"
                )
            if region.ephemeral:
                raise CheckpointError(
                    f"rank {rank}: ephemeral region {region.name!r} "
                    "reached the checkpoint writer"
                )
        descriptors = tuple(
            RegionDescriptor(r.name, r.kind.value, r.perm.value, r.size)
            for r in upper_regions
        )
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(
            rank=rank,
            size_bytes=sum(r.size for r in upper_regions),
            regions=descriptors,
            payload=payload,
            taken_at=taken_at,
        )

    def restore_state(self) -> dict:
        """Unpickle the restore payload, in the current shape."""
        if self.schema == SCHEMA:
            return pickle.loads(self.payload)
        if self.schema not in _OLD_SCHEMAS:
            raise CheckpointError(f"rank {self.rank}: image schema "
                                  f"{self.schema} is unknown to this reader")
        return migrate(_OldUnpickler(io.BytesIO(self.payload)).load(),
                       self.schema)


@dataclass
class CheckpointSet:
    """A coordinated checkpoint: one image per rank plus job metadata."""

    images: list[CheckpointImage]
    #: job facts a restart needs: n_ranks, app name, seed, source cluster...
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ranks = [img.rank for img in self.images]
        if ranks != list(range(len(ranks))):
            raise CheckpointError(
                f"checkpoint set must cover ranks 0..n-1 in order, got {ranks}"
            )

    @property
    def n_ranks(self) -> int:
        """Number of ranks covered."""
        return len(self.images)

    @property
    def total_bytes(self) -> int:
        """Sum of all images' modeled sizes."""
        return sum(img.size_bytes for img in self.images)

    def image_for(self, rank: int) -> CheckpointImage:
        """The image of one rank; raises CheckpointError if absent."""
        if not 0 <= rank < self.n_ranks:
            raise CheckpointError(f"no image for rank {rank}")
        return self.images[rank]


# ------------------------------------------------------------- migration

_OLD_SCHEMAS = (2, 3, 4)
#: the fields of an old ``LogEntry``, the columns of a row
_ROW_FIELDS = ("op", "args", "result_vid", "result_kind")


class _OldEntry:
    """A schema-2/3/4 log entry: constructed on its fields, or handed its
    state."""

    def __init__(self, *fields) -> None:
        self.state = fields

    def __setstate__(self, state) -> None:
        self.state = state


class _OldUnpickler(pickle.Unpickler):
    """Reads a schema-2/3/4 payload, its log entries as :class:`_OldEntry`."""

    def find_class(self, module: str, name: str):
        if (module, name) == ("repro.mana.record_replay", "LogEntry"):
            return _OldEntry
        return super().find_class(module, name)


_PAYLOAD_KEYS = (
    "interp", "app_state", "heap", "counters", "buffer", "log", "table",
    "icolls", "icoll_ids", "sends_done", "vrequests", "vreq_ids",
    "vreq_sites", "recv_journal",
)


def _require(mapping: dict, keys: tuple, where: str) -> None:
    missing = [key for key in keys if key not in mapping]
    if missing:
        raise CheckpointError(f"old image: {where} has no {missing}")


def _row_from_old(i: int, state) -> tuple:
    if isinstance(state, dict):
        _require(state, _ROW_FIELDS, f"log entry {i}")
        state = tuple(state[name] for name in _ROW_FIELDS)
    # a fifth field, the result communicator's members, is dropped
    row = tuple(state[:len(_ROW_FIELDS)])
    if row[0] == "type_create" and len(row[1]) != 1:
        raise CheckpointError(f"old image: log entry {i} (type_create) "
                              f"has {len(row[1])} args, not (recipe,)")
    return row


def migrate(state: dict, from_schema: int) -> dict:
    """Bring a payload unpickled from a ``from_schema`` image to
    :data:`SCHEMA`.  2 -> 5: a bare-list log takes the dict shape.  2, 3
    or 4 -> 5: the entries become 4-field rows, sealed into chunks.  A
    shape no committed set holds raises :class:`CheckpointError`.
    """
    if from_schema not in _OLD_SCHEMAS:
        raise CheckpointError(f"no migration from image schema {from_schema}")
    _require(state, _PAYLOAD_KEYS, "the payload")
    log = state["log"]
    if isinstance(log, list):
        log = {"entries": log, "local": {}, "stats": None}
    _require(log, ("entries", "local", "stats"), "'log'")
    rows = [_row_from_old(i, e.state) for i, e in enumerate(log["entries"])]
    state["log"] = {"chunks": encode_chunks(rows), "length": len(rows),
                    "local": log["local"], "stats": log["stats"]}
    return state
