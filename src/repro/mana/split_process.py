"""The split process (§2.1): two programs, one address space.

A :class:`SplitProcess` is one MPI rank's simulated Linux process.  Its
address space holds:

* the **upper half** — the application: text (never saved; it is the binary
  on disk), data/heap (the interpreter state and the named-buffer heap),
  stack (the interpreter continuation), environment — everything the
  checkpoint must capture;
* the **lower half** — the ephemeral MPI library: its text/data/TLS plus
  every region the network driver maps (pinned DMA, driver mmio, SysV
  shared-memory segments).  Discarded at checkpoint, rebuilt by the
  bootstrap program at restart.

The upper half's libc is interposed: ``sbrk`` growth of the upper heap is
redirected to anonymous ``mmap`` regions so the kernel break (which the
restarted bootstrap program owns) is never disturbed — the exact hazard and
fix described in §2.1.

FS-register accounting: every wrapper call pays two FS switches (upper→lower
and back) at the node kernel's price, :attr:`SplitProcess.transition_cost`,
and adds them to :attr:`SplitProcess.fs_switches`.
"""

from __future__ import annotations

import itertools
import weakref

from repro.hardware.kernelmodel import KernelModel
from repro.memory import AddressSpace, Half, MemoryRegion, Perm, RegionKind, UpperHeap
from repro.net.base import DriverRegionSpec, Interconnect
from repro.mpilib.impls import MpiImplementation

MB = 1 << 20

#: Modeled upper-half fixed regions (text/stack/environ) — small next to app
#: data; the duplicated upper-half copy of the MPI library text (built with
#: mpicc but never initialized, §3.2.2) is added separately.
_UPPER_TEXT = 2 * MB
_UPPER_STACK = 8 * MB
_UPPER_ENVIRON = 64 * 1024


def fixed_upper_bytes(upper_mpi_copy_bytes: int = 26 * MB,
                      heap_base: int = 1 << 20) -> int:
    """Upper-half bytes that exist regardless of application data: app text,
    the duplicated MPI library copy, stack, environ, TLS and the base heap.
    Workload memory models subtract this to hit a target image size."""
    return (_UPPER_TEXT + upper_mpi_copy_bytes + _UPPER_STACK
            + _UPPER_ENVIRON + (64 << 10) + heap_base)


class SplitProcess:
    """One rank's address space with tagged halves."""

    def __init__(
        self,
        rank: int,
        kernel: KernelModel,
        app_mem_bytes: int = 16 * MB,
        upper_mpi_copy_bytes: int = 26 * MB,
    ) -> None:
        self.rank = rank
        self.kernel = kernel
        #: the price of one upper→lower→upper control transfer (the kernel
        #: model is frozen, so it is fixed)
        self.transition_cost = kernel.upper_lower_transition()
        self.space = AddressSpace()
        #: FS switches the wrappers charged (two per interposed call)
        self.fs_switches = 0

        # ----- upper half: the application program
        self.space.mmap(_UPPER_TEXT, Perm.RX, Half.UPPER, RegionKind.TEXT,
                        name="app-text")
        # The application was linked with mpicc: it carries its own (never
        # initialized) copy of the MPI library text in the upper half.
        self.space.mmap(upper_mpi_copy_bytes, Perm.RX, Half.UPPER,
                        RegionKind.TEXT, name="app-mpi-copy")
        self.space.mmap(_UPPER_STACK, Perm.RW, Half.UPPER, RegionKind.STACK,
                        name="app-stack")
        self.space.mmap(_UPPER_ENVIRON, Perm.RW, Half.UPPER,
                        RegionKind.ENVIRON, name="app-environ")
        self.space.mmap(64 * 1024, Perm.RW, Half.UPPER, RegionKind.TLS,
                        name="app-tls")
        #: the application data region: its modeled size dominates the
        #: checkpoint image (the paper's per-rank image sizes).
        self.app_data = self.space.mmap(
            app_mem_bytes, Perm.RW, Half.UPPER, RegionKind.DATA, name="app-data"
        )
        self.heap = UpperHeap(self.space)
        self._install_sbrk_interposer()
        self._lower_bootstrapped = False

    # ----------------------------------------------------------- sbrk (§2.1)

    def _install_sbrk_interposer(self) -> None:
        # The space holds the interposer, so the interposer reaches the
        # space through a weak reference: no cycle keeps a dropped process.
        space = weakref.ref(self.space)
        serial = itertools.count(1)

        def interposer(increment: int) -> MemoryRegion:
            return space().mmap(
                increment, Perm.RW, Half.UPPER, RegionKind.ANON,
                name=f"upper-sbrk-mmap-{next(serial)}",
            )

        self.space.sbrk_interposer = interposer

    # -------------------------------------------------------- lower half

    def bootstrap_lower_half(
        self,
        impl: MpiImplementation,
        fabric: Interconnect,
        shmem: Interconnect,
        n_nodes: int,
        ranks_per_node: int,
    ) -> None:
        """Map the MPI library and network-driver regions (MPI_Init's work).

        Called at job start and again — against a *fresh* implementation —
        at restart.
        """
        if self._lower_bootstrapped:
            raise RuntimeError(f"rank {self.rank}: lower half already present")
        specs: list[DriverRegionSpec] = []
        specs.extend(impl.lower_half_regions())
        specs.extend(fabric.driver_regions(n_nodes, ranks_per_node))
        specs.extend(shmem.driver_regions(n_nodes, ranks_per_node))
        for spec in specs:
            perm = Perm.RX if spec.kind is RegionKind.TEXT else Perm.RW
            self.space.mmap(spec.size, perm, Half.LOWER, spec.kind,
                            name=spec.name, ephemeral=True)
        # The bootstrap program's own stack, never used after control
        # transfers back to the upper half.
        self.space.mmap(1 * MB, Perm.RW, Half.LOWER, RegionKind.STACK,
                        name="bootstrap-stack")
        self._lower_bootstrapped = True

    def discard_lower_half(self) -> int:
        """Unmap every lower-half region; returns the bytes discarded.

        This is what "the lower half is ephemeral" means: at restart the old
        library, its buffers, and all its network state simply vanish.
        """
        doomed = self.space.unmap_half(Half.LOWER)
        self._lower_bootstrapped = False
        return sum(r.size for r in doomed)

    # ----------------------------------------------------------- accounting

    def upper_bytes(self) -> int:
        """Modeled size of the checkpoint payload (upper half only)."""
        return self.space.total_size(half=Half.UPPER)

    def lower_bytes(self) -> int:
        """Modeled size of what checkpointing *avoids* writing."""
        return self.space.total_size(half=Half.LOWER)

    def upper_regions(self) -> list[MemoryRegion]:
        """The regions a checkpoint image captures."""
        return self.space.regions(half=Half.UPPER)

    def set_app_mem_bytes(self, nbytes: int) -> None:
        """Resize the modeled application data region (workload growth)."""
        self.space.munmap(self.app_data)
        self.app_data = self.space.mmap(
            nbytes, Perm.RW, Half.UPPER, RegionKind.DATA, name="app-data"
        )
