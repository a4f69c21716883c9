"""MPI-IO under MANA: virtual file handles, checkpointed apps with open
files, replayed MPI_File_open across restart (the DMTCP fd-restore story)."""

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.hardware.filesystem import SimFilesystem
from repro.mana import launch_mana, restart
from repro.mana.virtualize import HandleKind, VirtualizationError
from repro.mprog import Call, Compute, Loop, Program, Seq
from repro.simtime import Completion


def writer_factory(n_steps=5, path="/out/results.dat"):
    """Each rank writes its evolving value to a rank-strided slot each step
    (fixed offsets: replays after restart are idempotent overwrites)."""

    def factory(rank, size):
        def init(s):
            s["v"] = float(s["rank"] * 100)
            s["written"] = 0

        def open_file(s, api):
            return api.file_open(path, "rw")

        def write_step(s, api):
            offset = (s["step"] * s["size"] + s["rank"]) * 8
            payload = np.array([s["v"]]).tobytes()
            return api.file_write_at_all(s["fh"], offset, payload)

        def advance(s):
            s["v"] += 1.0
            s["written"] += 1

        def close_file(s, api):
            api.file_close(s["fh"])
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        return Program(Seq(
            Compute(init),
            Call(open_file, store="fh"),
            Loop(n_steps, Seq(
                Call(write_step, store="_w"),
                Compute(advance, cost=0.3),
            ), var="step"),
            Call(close_file),
        ), name="writer")

    return factory


def read_results(fs, path, n_steps, size):
    f = fs.open(path, create=False)
    out = []
    for step in range(n_steps):
        row = []
        for rank in range(size):
            raw = f.read((step * size + rank) * 8, 8)
            row.append(float(np.frombuffer(raw, dtype=np.float64)[0]))
        out.append(row)
    return out


@pytest.fixture
def cluster():
    return make_cluster("fio", 2, interconnect="aries")


def test_file_writes_under_mana(cluster):
    job = launch_mana(cluster, writer_factory(3), n_ranks=4, ranks_per_node=2,
                      app_mem_bytes=1 << 20).start()
    job.run_to_completion()
    rows = read_results(cluster.fs, "/out/results.dat", 3, 4)
    assert rows == [
        [0.0, 100.0, 200.0, 300.0],
        [1.0, 101.0, 201.0, 301.0],
        [2.0, 102.0, 202.0, 302.0],
    ]


def test_file_handle_is_virtual(cluster):
    job = launch_mana(cluster, writer_factory(2), n_ranks=2, ranks_per_node=1,
                      app_mem_bytes=1 << 20).start()
    job.run_to_completion()
    assert isinstance(job.states[0]["fh"], int)
    ops = [row[0] for row in job.runtimes[0].log.rows()]
    assert ops[0] == "file_open"
    assert ops[-1] == "file_close"


def test_restart_reopens_files_on_shared_storage(cluster):
    """The migration contract: files live on shared storage; restart replays
    MPI_File_open against the target cluster's filesystem and continues
    writing where the application logic says to."""
    factory = writer_factory(6)
    baseline = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2,
                           app_mem_bytes=1 << 20).start()
    baseline.run_to_completion()
    expected = read_results(cluster.fs, "/out/results.dat", 6, 4)

    shared_fs = SimFilesystem("site-shared")
    src = make_cluster("src", 2, interconnect="aries", fs=shared_fs)
    job = launch_mana(src, factory, n_ranks=4, ranks_per_node=2,
                      app_mem_bytes=1 << 20).start()
    ckpt, _ = job.checkpoint_at(1.0)

    dst = make_cluster("dst", 4, interconnect="tcp", fs=shared_fs)
    job2 = restart(ckpt, dst, factory, ranks_per_node=1, mpi="openmpi")
    job2.run_to_completion()
    assert read_results(shared_fs, "/out/results.dat", 6, 4) == expected
    # and the virtual handle still resolves in the rebuilt table after close
    assert all(s["written"] == 6 for s in job2.states)


def test_checkpoint_between_open_and_writes(cluster):
    factory = writer_factory(4)
    shared_fs = SimFilesystem()
    src = make_cluster("src", 2, interconnect="aries", fs=shared_fs)
    job = launch_mana(src, factory, n_ranks=2, ranks_per_node=1,
                      app_mem_bytes=1 << 20).start()
    # Cut almost immediately: the file is open, little or nothing written.
    ckpt, _ = job.checkpoint_at(0.05)
    dst = make_cluster("dst", 2, interconnect="aries", fs=shared_fs)
    job2 = restart(ckpt, dst, factory, ranks_per_node=1)
    job2.run_to_completion()
    rows = read_results(shared_fs, "/out/results.dat", 4, 2)
    assert rows[-1] == [3.0, 103.0]


def test_closed_handle_is_retired(cluster):
    job = launch_mana(cluster, writer_factory(2), n_ranks=2, ranks_per_node=1,
                      app_mem_bytes=1 << 20).start()
    job.run_to_completion()
    with pytest.raises(VirtualizationError):
        job.runtimes[0].table.resolve(HandleKind.FILE, job.states[0]["fh"])


def test_file_read_at_all_under_mana(cluster):
    def factory(rank, size):
        def open_file(s, api):
            return api.file_open("/in.dat", "rw")

        def seed(s, api):
            if s["rank"] == 0:
                return api.file_write_at(s["fh"], 0, b"shared-content")
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        def sync(s, api):
            return api.barrier()

        def read_all(s, api):
            return api.file_read_at_all(s["fh"], 0, 14)

        return Program(Seq(
            Call(open_file, store="fh"),
            Call(seed),
            Call(sync),
            Call(read_all, store="data"),
        ))

    job = launch_mana(cluster, factory, n_ranks=2, ranks_per_node=1,
                      app_mem_bytes=1 << 20).start()
    job.run_to_completion()
    assert all(s["data"] == b"shared-content" for s in job.states)


def freed_comm_writer_factory(n_steps=4):
    """Each parity half splits off, opens a file on its split, frees the
    split at once, then writes every step through a collective write on
    the file (legal MPI: the file holds its own communicator reference)
    and closes the file at the end."""

    def factory(rank, size):
        def init(s):
            s["v"] = float(s["rank"] * 100)

        def split(s, api):
            return api.comm_split(color=s["rank"] % 2, key=s["rank"])

        def open_file(s, api):
            return api.file_open(f"/out/half{s['rank'] % 2}.dat", "rw",
                                 comm=s["half"])

        def free(s, api):
            api.comm_free(s["half"])
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        def write_step(s, api):
            offset = (s["step"] * 2 + s["rank"] // 2) * 8
            return api.file_write_at_all(s["fh"], offset,
                                         np.array([s["v"]]).tobytes())

        def advance(s):
            s["v"] += 1.0

        def close_file(s, api):
            api.file_close(s["fh"])
            done = Completion(api.rt.engine)
            done.resolve(None)
            return done

        return Program(Seq(
            Compute(init),
            Call(split, store="half"),
            Call(open_file, store="fh"),
            Call(free),
            Loop(n_steps, Seq(
                Call(write_step, store="_w"),
                Compute(advance, cost=0.3),
            ), var="step"),
            Call(close_file),
        ), name="freed-comm-writer")

    return factory


def _half_rows(fs, n_steps):
    return [read_results(fs, f"/out/half{h}.dat", n_steps, 2) for h in (0, 1)]


def test_collective_io_on_a_file_whose_comm_was_freed(cluster):
    """The file pins its communicator until MPI_File_close: collective I/O
    after MPI_Comm_free works, and the close releases the communicator."""
    from repro.conformance.oracles import check_handle_ledger

    job = launch_mana(cluster, freed_comm_writer_factory(3), n_ranks=4,
                      ranks_per_node=2, app_mem_bytes=1 << 20)
    job.start()
    job.run_until(0.5)  # inside the loop: the split is freed, the file open
    assert check_handle_ledger(job) == []
    assert job.world.ledger.live("comm") == 4 + 4  # worlds + the held splits
    job.run_to_completion()
    assert _half_rows(cluster.fs, 3) == [
        [[0.0, 200.0], [1.0, 201.0], [2.0, 202.0]],
        [[100.0, 300.0], [101.0, 301.0], [102.0, 302.0]],
    ]
    assert check_handle_ledger(job) == []
    assert job.world.ledger.live("comm") == 4


@pytest.mark.parametrize("compact", [False, True])
def test_freed_comm_file_survives_restart(compact):
    from repro.conformance.oracles import check_handle_ledger, state_fingerprint

    factory = freed_comm_writer_factory(4)
    base_fs = SimFilesystem()
    baseline = launch_mana(make_cluster("b", 2, interconnect="aries",
                                        fs=base_fs),
                           factory, n_ranks=4, ranks_per_node=2,
                           app_mem_bytes=1 << 20).start()
    baseline.run_to_completion()

    shared_fs = SimFilesystem()
    src = make_cluster("src", 2, interconnect="aries", fs=shared_fs)
    job = launch_mana(src, factory, n_ranks=4, ranks_per_node=2,
                      app_mem_bytes=1 << 20, compact=compact).start()
    ckpt, _ = job.checkpoint_at(0.5)
    dst = make_cluster("dst", 4, interconnect="infiniband", fs=shared_fs)
    job2 = restart(ckpt, dst, factory, ranks_per_node=1, mpi="openmpi")
    while not job2.resumed.done:
        assert job2.engine.step()
    assert check_handle_ledger(job2) == []
    job2.run_to_completion()
    assert state_fingerprint(job2.states) == state_fingerprint(baseline.states)
    assert _half_rows(shared_fs, 4) == _half_rows(base_fs, 4)
    assert check_handle_ledger(job2) == []
    assert job2.world.ledger.live("comm") == 4
