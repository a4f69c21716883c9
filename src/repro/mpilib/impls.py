"""The MPI implementations.

Four simulated implementations mirror the ones the paper touches: Cray MPICH
(Cori's recommended MPI), stock MPICH (including the custom-compiled *debug*
build of §3.5), Open MPI (the local cluster's recommendation), and Intel MPI
(Cori's alternative module).  They differ in everything MANA must abstract
over:

* **handle value spaces** — MPICH-family handles are tagged small integers,
  Open MPI handles look like heap pointers; a restart that switches
  implementations therefore *provably* changes every real handle;
* **eager/rendezvous thresholds** for point-to-point;
* **collective algorithm selection** (and thus timing);
* **per-call software overhead** (the debug MPICH build is deliberately
  slow);
* **lower-half memory footprint** (the Cray text segment is the paper's
  26 MB figure).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.memory.region import RegionKind
from repro.net.base import DriverRegionSpec

MB = 1 << 20

#: handle kind -> the tag bits :meth:`MpiImplementation.new_handle` sets
_KIND_TAGS = {"comm": 0x1, "group": 0x2, "datatype": 0x3, "request": 0x4,
              "op": 0x5, "win": 0x6, "file": 0x7}


@dataclass
class CollectiveTuning:
    """Algorithm choices; see :mod:`repro.mpilib.collectives` for models."""

    #: allreduce: below this byte size use recursive doubling, above use ring.
    allreduce_ring_threshold: int = 64 << 10
    #: bcast: binomial below, scatter+allgather above.
    bcast_pipeline_threshold: int = 128 << 10
    #: gather/scatter trees: use binomial if True else linear.
    tree_gather: bool = True
    #: multiplicative fudge on all collective times (vendor tuning quality).
    tuning_factor: float = 1.0


@dataclass
class MpiImplementation:
    """Static description of one MPI implementation."""

    name: str
    version: str
    abi: str
    #: First handle value minted (each kind offsets from here).
    handle_base: int
    #: p2p eager→rendezvous switch (bytes).
    eager_threshold: int
    #: software cost of one MPI call entry (seconds).
    call_overhead: float
    #: extra per-byte copy cost inside the library (sec/byte).
    copy_cost_per_byte: float
    collective_tuning: CollectiveTuning = field(default_factory=CollectiveTuning)
    #: text segment size of the library + deps (lower-half accounting).
    text_size: int = 20 * MB
    #: static data segment of the library.
    data_size: int = 4 * MB
    #: is this a debug build (extra checking, used by the §3.5 experiment)?
    debug: bool = False

    def __post_init__(self) -> None:
        #: numbers the real handles of every kind, in minting order
        self.handle_numbers = itertools.count(1)
        #: a request handle is this plus its number (see :meth:`new_handle`)
        self.request_base = self.handle_base + (_KIND_TAGS["request"] << 20)

    def new_handle(self, kind: str) -> int:
        """Mint a fresh real handle value in this implementation's style."""
        n = next(self.handle_numbers)
        return self.handle_base + (_KIND_TAGS.get(kind, 0xF) << 20) + n

    def lower_half_regions(self) -> list[DriverRegionSpec]:
        """Library-owned lower-half regions (the network adds its own)."""
        return [
            DriverRegionSpec(RegionKind.TEXT, f"{self.name}-text", self.text_size),
            DriverRegionSpec(RegionKind.DATA, f"{self.name}-data", self.data_size),
            DriverRegionSpec(RegionKind.TLS, f"{self.name}-tls", 64 << 10),
        ]


def _craympich() -> MpiImplementation:
    return MpiImplementation(
        name="craympich", version="3.0", abi="mpich",
        handle_base=0x4400_0000, eager_threshold=8 << 10,
        call_overhead=90e-9, copy_cost_per_byte=0.018e-9,
        collective_tuning=CollectiveTuning(tuning_factor=0.85),
        text_size=26 * MB,  # the paper's measured figure on Cori
    )


def _mpich() -> MpiImplementation:
    return MpiImplementation(
        name="mpich", version="3.3", abi="mpich",
        handle_base=0x4400_0000, eager_threshold=16 << 10,
        call_overhead=120e-9, copy_cost_per_byte=0.022e-9,
        collective_tuning=CollectiveTuning(tuning_factor=1.0),
        text_size=18 * MB,
    )


def _mpich_debug() -> MpiImplementation:
    # The custom-compiled debug MPICH of §3.5: same ABI, slower internals.
    return MpiImplementation(
        name="mpich-debug", version="3.3", abi="mpich",
        handle_base=0x4400_0000, eager_threshold=16 << 10,
        call_overhead=650e-9, copy_cost_per_byte=0.06e-9,
        collective_tuning=CollectiveTuning(tuning_factor=1.6),
        text_size=42 * MB, debug=True,
    )


def _openmpi() -> MpiImplementation:
    return MpiImplementation(
        name="openmpi", version="4.0", abi="ompi",
        handle_base=0x7F3A_0000, eager_threshold=12 << 10,
        call_overhead=110e-9, copy_cost_per_byte=0.020e-9,
        collective_tuning=CollectiveTuning(
            allreduce_ring_threshold=128 << 10, tree_gather=True,
            tuning_factor=0.95,
        ),
        text_size=22 * MB,
    )


def _intelmpi() -> MpiImplementation:
    return MpiImplementation(
        name="intelmpi", version="2019", abi="mpich",
        handle_base=0x2C00_0000, eager_threshold=32 << 10,
        call_overhead=100e-9, copy_cost_per_byte=0.019e-9,
        collective_tuning=CollectiveTuning(
            allreduce_ring_threshold=32 << 10, tuning_factor=0.9,
        ),
        text_size=30 * MB,
    )


_FACTORIES = {
    "craympich": _craympich,
    "mpich": _mpich,
    "mpich-debug": _mpich_debug,
    "openmpi": _openmpi,
    "intelmpi": _intelmpi,
}

IMPLEMENTATIONS = tuple(sorted(_FACTORIES))


def get_implementation(name: str) -> MpiImplementation:
    """A fresh instance of the named implementation (fresh handle counter,
    as a newly dlopen'ed library would have)."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown MPI implementation {name!r}; known: {list(IMPLEMENTATIONS)}"
        ) from None
