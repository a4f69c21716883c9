"""A compute node: cores, memory, and its kernel."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.kernelmodel import KernelModel


@dataclass
class ComputeNode:
    """One host of a simulated cluster.

    The default values describe a Cori Haswell node: dual-socket 16-core
    Xeon E5-2698 v3 (32 cores total), 128 GB of memory.
    """

    node_id: int
    hostname: str
    cores: int = 32
    mem_bytes: int = 128 << 30
    kernel: KernelModel = field(default_factory=KernelModel)
    #: Relative compute speed (1.0 = Cori Haswell); lets a "local cluster"
    #: differ from Cori in per-core throughput for the Fig. 9 experiment.
    core_speed: float = 1.0
    #: True once the node has crashed (set by the fault injector).  A failed
    #: node hosts no new placements; its in-flight ranks are dead.
    failed: bool = False
    #: Virtual time of the crash, for post-mortem reports.
    failed_at: float = 0.0

    def fail(self, at: float = 0.0) -> None:
        """Mark the node crashed at virtual time ``at`` (idempotent)."""
        if not self.failed:
            self.failed = True
            self.failed_at = at
