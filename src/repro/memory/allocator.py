"""The upper-half heap: named-buffer allocation with sbrk interposition.

Application state in this reproduction lives in *named buffers* (numpy
arrays or picklable Python objects) owned by an :class:`UpperHeap`.  The heap
is backed by upper-half regions of the address space:

* a base heap region created at program start, and
* overflow regions obtained through the address space's ``sbrk`` path —
  which, under MANA, is interposed and redirected to ``mmap`` (§2.1).

The heap tracks a modeled "bytes in use" figure against the modeled region
capacity, so that allocation pressure genuinely triggers sbrk growth and the
interposition machinery is exercised by ordinary application behaviour.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.memory.address_space import AddressSpace, page_align
from repro.memory.region import Half, MemoryRegion, Perm, RegionKind


class AllocationError(RuntimeError):
    """Raised on double-alloc/free of a named buffer."""


class UpperHeap:
    """Named-buffer allocator over the upper half of an address space."""

    def __init__(
        self,
        space: AddressSpace,
        base_capacity: int = 1 << 20,
        growth_chunk: int = 1 << 20,
    ) -> None:
        self.space = space
        self.growth_chunk = int(growth_chunk)
        self._objects: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self._used = 0
        self._capacity = 0
        self._regions: list[MemoryRegion] = []
        base = space.mmap(
            base_capacity, Perm.RW, Half.UPPER, RegionKind.HEAP, name="upper-heap"
        )
        self._attach(base)

    # ------------------------------------------------------------ interface

    def alloc_array(
        self, name: str, shape: Any, dtype: Any = np.float64, fill: Optional[float] = None
    ) -> np.ndarray:
        """Allocate a named numpy array on the upper-half heap."""
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        self.alloc_object(name, arr, nbytes=arr.nbytes)
        return arr

    def alloc_object(self, name: str, obj: Any, nbytes: Optional[int] = None) -> Any:
        """Store a picklable object under ``name``; ``nbytes`` models its size."""
        if name in self._objects:
            raise AllocationError(f"buffer {name!r} already allocated")
        size = int(nbytes if nbytes is not None else 64)
        self._reserve(size)
        self._objects[name] = obj
        self._sizes[name] = size
        return obj

    def free(self, name: str) -> None:
        """Release a named buffer."""
        if name not in self._objects:
            raise AllocationError(f"free of unallocated buffer {name!r}")
        self._used -= self._sizes.pop(name)
        del self._objects[name]

    def get(self, name: str) -> Any:
        """Fetch a named buffer; raises KeyError if absent."""
        return self._objects[name]

    def set(self, name: str, obj: Any) -> None:
        """Replace the value of an existing named buffer (same modeled size)."""
        if name not in self._objects:
            raise AllocationError(f"set of unallocated buffer {name!r}")
        self._objects[name] = obj

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def names(self) -> Iterator[str]:
        """Allocated buffer names, sorted."""
        return iter(sorted(self._objects))

    @property
    def used(self) -> int:
        """Modeled bytes currently allocated."""
        return self._used

    @property
    def capacity(self) -> int:
        """Modeled bytes available across all heap regions."""
        return self._capacity

    # ------------------------------------------------- checkpoint interface

    def snapshot_payload(self) -> dict[str, Any]:
        """The picklable contents of the heap (object store + size table)."""
        return {"objects": self._objects, "sizes": self._sizes}

    def restore_payload(self, payload: dict[str, Any]) -> None:
        """Install contents captured by :meth:`snapshot_payload`."""
        # in place: the heap's regions hold this store as their payload
        objects = dict(payload["objects"])
        self._objects.clear()
        self._objects.update(objects)
        self._sizes = dict(payload["sizes"])
        self._used = sum(self._sizes.values())
        self._reserve(0)  # grow capacity if the snapshot outgrew the base heap

    # ------------------------------------------------------------ internals

    def _attach(self, region: MemoryRegion) -> None:
        # the object store is the region's live payload (not the heap
        # itself: the heap holds the address space, which holds the region)
        region.payload = self._objects
        self._regions.append(region)
        self._capacity += region.size

    def _reserve(self, size: int) -> None:
        self._used += size
        while self._used > self._capacity:
            need = max(self.growth_chunk, page_align(self._used - self._capacity))
            # This goes through the address space's sbrk path; under MANA the
            # interposer converts it into an upper-half anonymous mmap.
            region = self.space.sbrk(need, caller_half=Half.UPPER)
            self._attach(region)
