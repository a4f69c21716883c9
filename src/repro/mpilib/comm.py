"""Groups and communicators.

A :class:`Group` is an ordered set of world ranks; a :class:`Communicator`
binds a group to a *context id* (the MPI matching namespace) and to real,
implementation-specific integer handles.  Handle values are generated by the
owning implementation from its own value space (see
:mod:`repro.mpilib.impls`), which is what makes MANA's virtualization layer
(§2.2) do real work: the same application-visible communicator maps to
different real handles before and after a cross-implementation restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

ANY_SOURCE = -1
ANY_TAG = -1


class MpiError(RuntimeError):
    """Anything a real MPI library would abort on (invalid rank, etc.)."""


@dataclass(frozen=True)
class Group:
    """An ordered set of world ranks (MPI_Group).

    Rank lookups read :attr:`rank_index`, a world rank -> group rank dict
    built on the group's first lookup (most groups are looked up once or
    never).  It is a cache, not part of the value: equality, hashing and
    pickling see ``world_ranks`` only.
    """

    world_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise MpiError(f"group has duplicate ranks: {self.world_ranks}")

    def __getstate__(self) -> dict:
        return {"world_ranks": self.world_ranks}

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.world_ranks)

    @cached_property
    def rank_index(self) -> dict[int, int]:
        """World rank -> group rank, for every member."""
        return {w: i for i, w in enumerate(self.world_ranks)}

    def rank_of(self, world_rank: int) -> Optional[int]:
        """Group rank of ``world_rank``, or None (MPI_UNDEFINED)."""
        return self.rank_index.get(world_rank)

    def translate(self, group_rank: int) -> int:
        """Group rank -> world rank."""
        ranks = self.world_ranks
        if not 0 <= group_rank < len(ranks):
            raise MpiError(f"rank {group_rank} out of range for group of {len(ranks)}")
        return ranks[group_rank]

    # ------------------------------------------------ MPI_Group_* algebra

    def incl(self, ranks: Sequence[int]) -> "Group":
        """MPI_Group_incl: subset in the given order."""
        world = self.world_ranks
        n = len(world)
        for r in ranks:
            if not 0 <= r < n:
                self.translate(r)  # raises MpiError
        return Group(tuple([world[r] for r in ranks]))

    def excl(self, ranks: Sequence[int]) -> "Group":
        """MPI_Group_excl."""
        drop = set(ranks)
        for r in drop:
            self.translate(r)  # validates
        return Group(tuple(w for i, w in enumerate(self.world_ranks) if i not in drop))

    def union(self, other: "Group") -> "Group":
        """MPI_Group_union."""
        extra = tuple(w for w in other.world_ranks if w not in self.world_ranks)
        return Group(self.world_ranks + extra)

    def intersection(self, other: "Group") -> "Group":
        """MPI_Group_intersection."""
        return Group(tuple(w for w in self.world_ranks if w in other.world_ranks))

    def difference(self, other: "Group") -> "Group":
        """MPI_Group_difference."""
        return Group(tuple(w for w in self.world_ranks if w not in other.world_ranks))


@dataclass
class Communicator:
    """An MPI communicator as the lower half sees it.

    ``handle`` is the implementation's real handle value.  Applications never
    see this object directly under MANA — they hold virtual handles.
    """

    handle: int
    context_id: int
    group: Group
    name: str = "comm"
    #: Attached topology (set by cart/graph create), if any.
    topology: object = None

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.group.world_ranks)

    # The lookups below run on every point-to-point or collective call, so
    # the rank -> world rank ones read the group's rank tuple directly.

    def rank_of_world(self, world_rank: int) -> Optional[int]:
        """World rank -> communicator rank (None for non-members)."""
        return self.group.rank_index.get(world_rank)

    def world_of_rank(self, comm_rank: int) -> int:
        """Communicator rank -> world rank."""
        ranks = self.group.world_ranks
        if 0 <= comm_rank < len(ranks):
            return ranks[comm_rank]
        return self.group.translate(comm_rank)  # raises MpiError

    def validate_rank(self, comm_rank: int, allow_any: bool = False) -> None:
        """Raise MpiError if the rank is invalid in this communicator."""
        self.peer_world_rank(comm_rank, allow_any)

    def peer_world_rank(self, comm_rank: int, allow_any: bool = False) -> int:
        """A point-to-point peer's world rank: :meth:`validate_rank` and
        :meth:`world_of_rank` in one step (``ANY_SOURCE`` maps to itself
        when ``allow_any``)."""
        ranks = self.group.world_ranks
        if 0 <= comm_rank < len(ranks):
            return ranks[comm_rank]
        if allow_any and comm_rank == ANY_SOURCE:
            return ANY_SOURCE
        raise MpiError(
            f"rank {comm_rank} invalid in communicator {self.name!r} "
            f"of size {len(ranks)}"
        )
