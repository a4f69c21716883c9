"""Split-process runtime: tagging, bootstrap/discard, sbrk, FS accounting."""

import pytest

from repro.hardware.kernelmodel import PATCHED, UNPATCHED, KernelModel
from repro.mana.split_process import SplitProcess
from repro.memory import Half, RegionKind
from repro.mpilib.impls import get_implementation
from repro.net import make_interconnect
from repro.net.fabrics import ShmemTransport
from repro.simtime import Engine

MB = 1 << 20


@pytest.fixture
def proc():
    return SplitProcess(rank=0, kernel=KernelModel(), app_mem_bytes=32 * MB)


def bootstrap(proc, impl_name="craympich", fabric_name="aries",
              n_nodes=4, ranks_per_node=32):
    engine = Engine()
    impl = get_implementation(impl_name)
    fabric = make_interconnect(fabric_name, engine)
    shmem = ShmemTransport(engine)
    proc.bootstrap_lower_half(impl, fabric, shmem, n_nodes, ranks_per_node)
    return impl


def test_initial_process_is_upper_only(proc):
    assert proc.lower_bytes() == 0
    assert proc.upper_bytes() > 32 * MB


def test_upper_half_contains_duplicate_mpi_text(proc):
    """§3.2.2: the app links its own never-initialized copy of the MPI lib."""
    region = proc.space.find("app-mpi-copy")
    assert region.half is Half.UPPER
    assert region.size == 26 * MB


def test_bootstrap_maps_library_and_driver_regions(proc):
    impl = bootstrap(proc)
    lower = proc.space.regions(half=Half.LOWER)
    names = {r.name for r in lower}
    assert f"{impl.name}-text" in names
    assert "aries-shmem" in names
    assert "sysv-shm-intranode" in names
    assert proc.lower_bytes() >= impl.text_size


def test_double_bootstrap_rejected(proc):
    bootstrap(proc)
    with pytest.raises(RuntimeError, match="already present"):
        bootstrap(proc)


def test_discard_lower_half_removes_everything(proc):
    bootstrap(proc)
    discarded = proc.discard_lower_half()
    assert discarded > 0
    assert proc.lower_bytes() == 0
    # a fresh bootstrap (restart) is now possible, with a different stack
    bootstrap(proc, impl_name="openmpi", fabric_name="infiniband")
    names = {r.name for r in proc.space.regions(half=Half.LOWER)}
    assert "openmpi-text" in names
    assert "aries-shmem" not in names


def test_upper_bytes_excludes_lower(proc):
    before = proc.upper_bytes()
    bootstrap(proc)
    assert proc.upper_bytes() == before


def test_fs_transition_cost_and_counter(proc):
    # the wrappers charge this price and count the switches per call
    # (tests/mana/test_wrappers.py counts them over a job)
    assert proc.transition_cost == UNPATCHED.upper_lower_transition()
    assert proc.fs_switches == 0


def test_patched_kernel_cheapens_transitions():
    slow = SplitProcess(0, UNPATCHED)
    fast = SplitProcess(0, PATCHED)
    assert fast.transition_cost < slow.transition_cost / 5


def test_sbrk_interposition_keeps_upper_growth_off_the_brk(proc):
    brk0 = proc.space.brk
    proc.heap.alloc_array("big", 8 << 20, dtype="u1")  # forces heap growth
    assert proc.space.brk == brk0
    grown = [r for r in proc.space.regions(half=Half.UPPER)
             if r.name.startswith("upper-sbrk-mmap")]
    assert grown, "heap growth should have gone through the interposer"
    assert all(r.kind is RegionKind.ANON for r in grown)


def test_set_app_mem_bytes(proc):
    proc.set_app_mem_bytes(100 * MB)
    assert proc.space.find("app-data").size == 100 * MB


def test_lower_half_scales_with_node_count():
    small = SplitProcess(0, KernelModel())
    bootstrap(small, n_nodes=2)
    large = SplitProcess(0, KernelModel())
    bootstrap(large, n_nodes=64)
    assert large.lower_bytes() > small.lower_bytes()
