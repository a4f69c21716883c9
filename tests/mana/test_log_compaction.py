"""Checkpoint-time log compaction: O(live handles) restart, and the
replay-path hardening that rides along (docs/record_replay.md).

The tentpole property: a compacted image and a full image of the same
instant restart to *bit-identical* application state, while the compacted
one replays O(live handles) entries instead of O(call history).
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.conformance.oracles import (
    check_handle_ledger,
    check_replay_consistency,
    state_fingerprint,
)
from repro.hardware.cluster import make_cluster
from repro.mana import launch_mana, restart
from repro.mana.checkpoint_image import CheckpointImage
from repro.mana.log_compaction import compact_log
from repro.mana.record_replay import (
    LogEntry,
    RecordLog,
    ReplayEngine,
    ReplayError,
)
from repro.mana.virtualize import VCOMM_WORLD, HandleKind, VirtualHandleTable
from repro.mana.wrappers import FileBinding
from repro.mpilib import DOUBLE, SUM
from repro.mpilib.comm import Communicator, Group
from repro.mpilib.io import MpiFile
from repro.mpilib.topology import CartTopology
from repro.mprog import Call, Compute, Loop, Program, Seq
from repro.simtime import Completion, Engine

WORLD4 = (0, 1, 2, 3)


def _entry(op, args, vid, kind=HandleKind.COMM):
    return LogEntry(op, tuple(args), vid, kind)


def _table(comms=(), files=(), freed=None):
    """A rank-0 table: the world, live ``(vid, members, topology)``
    communicators, and ``(vid, vcomm, path)`` files; a file's vcomm in
    ``freed`` names a communicator that was freed after the open."""
    table = VirtualHandleTable()
    real = {VCOMM_WORLD: Communicator(1, 1, Group(WORLD4))}
    for vid, members, topology in comms:
        real[vid] = Communicator(vid, vid, Group(members), topology=topology)
    for vid, comm in real.items():
        table.register(HandleKind.COMM, comm, virtual=vid)
    for vid, vcomm, path in files:
        comm = real.get(vcomm) or Communicator(vcomm, vcomm, Group(freed[vcomm]))
        table.register(HandleKind.FILE, FileBinding(
            real=MpiFile(handle=vid, file=None, comm=comm, endpoint=None),
            vcomm=vcomm, path=path, mode="rw"), virtual=vid)
    return table


def _summary(entries):
    return [(e.op, e.args, e.result_vid) for e in entries]


# --------------------------------------------------------- unit: compaction

def test_dead_dup_pair_cancels():
    entries = [
        _entry("comm_dup", (VCOMM_WORLD,), 1000),
        _entry("comm_free", (1000,), None),
    ]
    result = compact_log(entries, _table())
    assert result.entries == []
    assert (result.stats.examined, result.stats.kept) == (2, 0)


def test_uniform_split_pair_cancels():
    entries = [
        _entry("comm_split", (VCOMM_WORLD, 0, 0), 1000),
        _entry("comm_free", (1000,), None),
    ]
    assert compact_log(entries, _table()).entries == []


def test_subset_split_pair_never_cancels():
    """A split pair over a proper subset is no special case any more: the
    image describes the table alone, so a dead pair leaves no entry and a
    live subset split is one entry over its own members."""
    pair = [
        _entry("comm_split", (VCOMM_WORLD, 0, 0), 1000),
        _entry("comm_free", (1000,), None),
    ]
    assert compact_log(pair, _table()).entries == []
    live = _table(comms=[(1000, (0, 1), None)])
    assert _summary(compact_log(pair[:1], live).entries) == [
        ("comm_create_group", ((0, 1), 0, None), 1000)]


def test_nonmember_entry_always_kept():
    """An undefined-colour split gave this rank no communicator; the image
    describes the table, so the history entry never reaches it, and the
    members' descriptors need no non-member to replay."""
    entries = [
        _entry("comm_split", (VCOMM_WORLD, None, 0), None),
        _entry("comm_dup", (VCOMM_WORLD,), 1002),
    ]
    table = _table(comms=[(1002, WORLD4, None)])
    result = compact_log(entries, table)
    assert result.entries == compact_log([], table).entries
    assert _summary(result.entries) == [
        ("comm_create_group", (WORLD4, 0, None), 1002)]


def test_comm_create_cancels_only_on_full_membership():
    """A dead comm_create pair leaves no entry whatever its membership; a
    live subset create is one entry over its own members."""
    full = [
        _entry("comm_create", (VCOMM_WORLD, WORLD4), 1000),
        _entry("comm_free", (1000,), None),
    ]
    subset = [
        _entry("comm_create", (VCOMM_WORLD, (0, 1)), 1001),
        _entry("comm_free", (1001,), None),
    ]
    assert compact_log(full, _table()).entries == []
    assert compact_log(subset, _table()).entries == []
    live = _table(comms=[(1001, (0, 1), None)])
    assert _summary(compact_log(subset[:1], live).entries) == [
        ("comm_create_group", ((0, 1), 0, None), 1001)]


def test_live_split_needs_no_parent():
    """A live split of a freed dup is one entry over its own members."""
    result = compact_log([], _table(comms=[(1001, (0, 2), None)]))
    assert _summary(result.entries) == [
        ("comm_create_group", ((0, 2), 0, None), 1001)]


def test_descriptors_sort_by_members_then_k():
    """``k`` counts equal-membership communicators in vid order; entries
    sort by ``(world_ranks, k)``, and a topology rides along."""
    cart = CartTopology((2, 2), (True, False))
    table = _table(comms=[
        (1000, (0, 2), None),
        (1001, WORLD4, cart),
        (1002, (0, 1, 2), None),
        (1003, WORLD4, None),
        (1004, (0, 2), None),
    ])
    assert _summary(compact_log([], table).entries) == [
        ("comm_create_group", ((0, 1, 2), 0, None), 1002),
        ("comm_create_group", (WORLD4, 0, cart), 1001),
        ("comm_create_group", (WORLD4, 1, None), 1003),
        ("comm_create_group", ((0, 2), 0, None), 1000),
        ("comm_create_group", ((0, 2), 1, None), 1004),
    ]


def test_descriptors_never_free_a_live_handle():
    """Files open on the world come first; a file on a live communicator
    follows its entry; a file on a freed one is opened between the
    communicator's re-creation and its free."""
    table = _table(
        comms=[(1001, (0, 1), None)],
        files=[(5000, 1000, "/a"), (5001, VCOMM_WORLD, "/w"),
               (5002, 1001, "/b")],
        freed={1000: (0, 1)},
    )
    assert _summary(compact_log([], table).entries) == [
        ("file_open", (VCOMM_WORLD, "/w", "rw"), 5001),
        ("comm_create_group", ((0, 1), 0, None), 1000),
        ("file_open", (1000, "/a", "rw"), 5000),
        ("comm_free", (1000,), None),
        ("comm_create_group", ((0, 1), 1, None), 1001),
        ("file_open", (1001, "/b", "rw"), 5002),
    ]


def test_local_entries_always_elided():
    entries = [
        _entry("type_create", (("contiguous", 4, "d"),), 2000,
               HandleKind.DATATYPE),
        _entry("comm_group", (VCOMM_WORLD,), 3000, HandleKind.GROUP),
        _entry("group_incl", (3000, (0, 1)), 3001, HandleKind.GROUP),
        _entry("group_free", (3001,), None, HandleKind.GROUP),
        _entry("type_free", (2000,), None, HandleKind.DATATYPE),
    ]
    table = _table()
    table.register(HandleKind.GROUP, Group(WORLD4), virtual=3000)
    result = compact_log(entries, table)
    assert result.entries == []
    # the live group rides as a value binding instead
    assert result.local == {"group": {3000: ("group", WORLD4)}}
    assert result.stats.snapshot_bindings == 1


# ------------------------------------------- unit: the consistency oracle

class _Image:
    def __init__(self, entries):
        self.entries = entries

    def restore_state(self):
        return {"log": {"entries": self.entries}}


class _Set:
    def __init__(self, logs):
        self.images = [_Image(log) for log in logs]


def _create_group(members, k, vid):
    return _entry("comm_create_group", (members, k, None), vid)


def test_consistency_oracle_passes_symmetric_logs():
    logs = [[_create_group(WORLD4, 0, 1000)] for _ in range(4)]
    for rank in (0, 2):
        logs[rank].append(_create_group((0, 2), 0, 1001))
    assert check_replay_consistency(_Set(logs)) == []


def test_consistency_oracle_detects_one_sided_pruning():
    kept = [_create_group(WORLD4, 0, 1000)]
    logs = [list(kept), list(kept), list(kept), []]  # rank 3 has none
    problems = check_replay_consistency(_Set(logs))
    assert [d.actual for d in problems] == [
        f"rank {r} holds comm_create_group ({WORLD4}, 0), member 3 does not"
        for r in range(3)
    ]


def test_consistency_oracle_flags_an_extra_equal_membership_key():
    # rank 0 describes a second world-membership communicator its peers
    # do not hold: it would wait for them forever
    one = [_create_group(WORLD4, 0, 1000)]
    extra = one + [_create_group(WORLD4, 1, 1001)]
    problems = check_replay_consistency(_Set([extra, one, one, one]))
    assert len(problems) == 3


# ------------------------------------------------- replay-path hardening

def _world_table():
    class _WorldStub:
        group = Group(WORLD4)

    table = VirtualHandleTable()
    table.register(HandleKind.COMM, _WorldStub(), virtual=VCOMM_WORLD)
    return table


def test_unknown_op_raises_replay_error_up_front():
    log = RecordLog()
    log.record("comm_quadruplicate", (VCOMM_WORLD,), 1000)
    replay = ReplayEngine(Engine(), None, _world_table(), log)
    with pytest.raises(ReplayError, match="comm_quadruplicate"):
        replay.start()


def test_failing_entry_resolves_finished_with_error():
    """A dangling reference mid-log must surface as a typed error, not
    wedge the engine with ``finished`` unresolved."""
    log = RecordLog()
    log.record("group_free", (9999,), None, result_kind=HandleKind.GROUP)
    engine = Engine()
    replay = ReplayEngine(engine, None, _world_table(), log)
    replay.start()
    engine.run()
    assert replay.finished.done
    assert isinstance(replay.finished.value, ReplayError)
    assert replay.error is replay.finished.value


def test_group_entry_without_result_vid_is_typed_error():
    log = RecordLog()
    log.record("comm_group", (VCOMM_WORLD,), None, result_kind=HandleKind.GROUP)
    engine = Engine()
    replay = ReplayEngine(engine, None, _world_table(), log)
    replay.start()
    engine.run()
    assert isinstance(replay.finished.value, ReplayError)


# ------------------------------------------------------------- end to end

def _done(api, value=None):
    out = Completion(api.rt.engine)
    out.resolve(value)
    return out


def _churn_factory(n_steps):
    """Per step: dup + uniform split, barrier + allreduce on them, free
    both, plus a datatype and two groups created and freed — pure log
    growth with constant live state."""

    def _init(s):
        s["checksum"] = 0.0
        s["rank_f"] = float(s["rank"])

    def _dup(s, api):
        return api.comm_dup()

    def _split(s, api):
        return api.comm_split(color=0, key=s["rank"])

    def _use_dup(s, api):
        return api.barrier(comm=s["edup"])

    def _use_split(s, api):
        return api.allreduce(np.array([s["rank_f"] + s["step"]]), SUM,
                             comm=s["esplit"], size=16)

    def _churn_local_and_free(s, api):
        api.comm_free(s.pop("edup"))
        api.comm_free(s.pop("esplit"))
        tvid = api.type_contiguous(3 + s["step"] % 5, DOUBLE)
        s["checksum"] += api.resolve_type(tvid).extent * 1e-6
        api.type_free(tvid)
        g = api.comm_group()
        half = api.group_incl(g, [0, 1])
        s["checksum"] += api.group_size(half)
        api.group_free(half)
        api.group_free(g)
        return _done(api)

    def _absorb(s):
        s["checksum"] += float(s["esum"][0]) * 1e-3

    def factory(rank, size):
        return Program(Seq(
            Compute(_init),
            Loop(n_steps, Seq(
                Call(_dup, store="edup"),
                Call(_split, store="esplit"),
                Call(_use_dup),
                Call(_use_split, store="esum"),
                Call(_churn_local_and_free),
                Compute(_absorb, cost=0.4e-3),
            ), var="step"),
        ), name="churn-test")

    return factory


@pytest.fixture
def cluster():
    return make_cluster("lc", 2, interconnect="aries", default_mpi="craympich")


def _fingerprint_of_baseline(cluster, factory):
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    job.run_to_completion()
    return state_fingerprint(job.states)


def _cycle(cluster, factory, t_ckpt, compact):
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2,
                      compact=compact).start()
    ckpt, _ = job.checkpoint_at(t_ckpt)
    dst = make_cluster("dst", 4, interconnect="infiniband")
    job2 = restart(ckpt, dst, factory, mpi="openmpi", ranks_per_node=1)
    job2.run_to_completion()
    return ckpt, job2


def test_compacted_restart_is_bit_identical_and_small(cluster):
    factory = _churn_factory(n_steps=12)
    golden = _fingerprint_of_baseline(cluster, factory)

    ckpt_full, job_full = _cycle(cluster, factory, 0.004, compact=False)
    ckpt_comp, job_comp = _cycle(cluster, factory, 0.004, compact=True)

    assert state_fingerprint(job_full.states) == golden
    assert state_fingerprint(job_comp.states) == golden

    full = job_full.restart_report
    comp = job_comp.restart_report
    assert comp.replayed_entries < full.replayed_entries / 4, \
        "compaction must shrink replay work by far more than a constant"
    assert check_replay_consistency(ckpt_comp) == []

    # every entry the compacted image holds describes a live handle, and
    # each replays in one step
    stats = ckpt_comp.meta["log_compaction"]
    assert stats["examined"] > stats["kept"] == comp.replayed_entries


def test_replay_frees_release_lower_half_handles(cluster):
    """Satellite: replayed frees must release real handles through the
    endpoint — the ledger and the virtual tables agree after replay."""
    factory = _churn_factory(n_steps=10)
    for compact in (False, True):
        _ckpt, job2 = _cycle(cluster, factory, 0.004, compact=compact)
        assert check_handle_ledger(job2) == []
        ledger = job2.world.ledger
        bound = sum(
            len(rt.table.bound(HandleKind.COMM)) for rt in job2.runtimes
        )
        assert ledger.live("comm") == bound
        if not compact:
            # the full log replayed every dead create AND its free
            assert ledger.released["comm"] > 0


def test_compaction_meta_only_when_enabled(cluster):
    factory = _churn_factory(n_steps=6)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(0.004)
    assert "log_compaction" not in ckpt.meta

    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2,
                      compact=True).start()
    ckpt, _ = job.checkpoint_at(0.004)
    assert ckpt.meta["log_compaction"]["examined"] > 0


def test_corrupted_image_surfaces_replay_error(cluster):
    """Satellite: a corrupted log in a real image must raise a typed
    ReplayError out of the restarted run, not wedge the engine."""
    factory = _churn_factory(n_steps=8)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2).start()
    ckpt, _ = job.checkpoint_at(0.004)

    img = ckpt.image_for(0)
    state = img.restore_state()
    snap = state["log"]
    entries = snap["entries"] if isinstance(snap, dict) else snap
    entries.append(LogEntry("comm_frobnicate", (VCOMM_WORLD,), 4242))
    ckpt.images[0] = CheckpointImage(
        rank=img.rank, size_bytes=img.size_bytes, regions=img.regions,
        payload=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        taken_at=img.taken_at,
    )

    dst = make_cluster("dst", 2, interconnect="tcp")
    job2 = restart(ckpt, dst, factory, ranks_per_node=2)
    with pytest.raises(ReplayError, match="comm_frobnicate"):
        job2.run_to_completion()


def _file_on_freed_comm_factory(n_steps):
    """Each parity half opens a file on its split and frees the split at
    once; every step then writes through the still-open file."""

    def _init(s):
        s["v"] = float(s["rank"])

    def _split(s, api):
        return api.comm_split(color=s["rank"] % 2, key=s["rank"])

    def _open(s, api):
        return api.file_open(f"/out/half{s['rank'] % 2}.dat", "rw",
                             comm=s["half"])

    def _free(s, api):
        api.comm_free(s["half"])
        return _done(api)

    def _write(s, api):
        offset = (s["step"] * 2 + s["rank"] // 2) * 8
        return api.file_write_at(s["fh"], offset, np.array([s["v"]]).tobytes())

    def _advance(s):
        s["v"] += 1.0

    def factory(rank, size):
        return Program(Seq(
            Compute(_init),
            Call(_split, store="half"),
            Call(_open, store="fh"),
            Call(_free),
            Loop(n_steps, Seq(
                Call(_write, store="_w"),
                Compute(_advance, cost=0.3e-3),
            ), var="step"),
        ), name="file-on-freed-comm")

    return factory


def test_compacted_restart_reopens_a_file_whose_comm_was_freed(cluster):
    factory = _file_on_freed_comm_factory(n_steps=8)
    golden = _fingerprint_of_baseline(cluster, factory)
    ckpt, job2 = _cycle(cluster, factory, 0.002, compact=True)

    log = ckpt.image_for(1).restore_state()["log"]
    split_vid, fh = job2.states[1]["half"], job2.states[1]["fh"]
    assert [(e.op, e.args, e.result_vid) for e in log["entries"]] == [
        ("comm_create_group", ((1, 3), 0, None), split_vid),
        ("file_open", (split_vid, "/out/half1.dat", "rw"), fh),
        ("comm_free", (split_vid,), None),
    ]
    assert state_fingerprint(job2.states) == golden
    assert check_handle_ledger(job2) == []
    assert job2.runtimes[1].table.resolve(HandleKind.FILE, fh).real.comm \
        .group.world_ranks == (1, 3)


def test_compact_then_noncompact_checkpoint_carries_local_bindings(cluster):
    """Carry-forward: once local creates were compacted away, later
    non-compact checkpoints must ship the value bindings instead."""
    from tests.mana.test_record_replay import comm_mgmt_factory

    factory = comm_mgmt_factory(n_iters=8)
    baseline = launch_mana(cluster, factory, n_ranks=4,
                           ranks_per_node=2).start()
    baseline.run_to_completion()

    # hop 1: compacted cut (the live datatype becomes a snapshot binding)
    job = launch_mana(cluster, factory, n_ranks=4, ranks_per_node=2,
                      compact=True).start()
    ckpt, _ = job.checkpoint_at(1.0)
    snap = ckpt.image_for(0).restore_state()["log"]
    assert snap["local"], "live datatype must ride as a value binding"

    # hop 2: restart WITHOUT compaction, checkpoint again — the datatype
    # create no longer exists in any log, so the binding must carry forward
    mid = make_cluster("mid", 2, interconnect="tcp")
    job2 = restart(ckpt, mid, factory, mpi="mpich", ranks_per_node=2,
                   compact=False)
    while not job2.resumed.done:
        assert job2.engine.step()
    rep = job2.restart_report
    assert rep.restored_bindings > 0
    ckpt2, _ = job2.checkpoint_at(job2.engine.now + 1.0)
    snap2 = ckpt2.image_for(0).restore_state()["log"]
    assert isinstance(snap2, dict) and snap2["local"]

    # hop 3: restart the second image and finish — still bit-identical
    dst = make_cluster("dst", 4, interconnect="infiniband")
    job3 = restart(ckpt2, dst, factory, mpi="openmpi", ranks_per_node=1)
    job3.run_to_completion()
    job2.run_to_completion()
    assert state_fingerprint(job3.states) == state_fingerprint(baseline.states)
    vid = job3.states[0]["vec_type"]
    assert job3.runtimes[0].table.resolve(HandleKind.DATATYPE, vid).extent \
        == 8 * 8


# ----------------------------------------- property: compacted ≡ full

_COMM_OPS = ("dup", "split_u", "split_p", "cart", "create_p")
_OPS = _COMM_OPS + ("type", "group")


def _scripted_factory(script):
    """SPMD churn driven by a generated script: every rank executes the
    same op sequence, so collectives match; frees happen ``delay`` steps
    after the create (99 = never: the handle stays live)."""

    def _init(s):
        s["checksum"] = 0.0
        s["due"] = []

    def _create(s, api):
        op, _delay = script[s["step"]]
        if op == "dup":
            return api.comm_dup()
        if op == "split_u":
            return api.comm_split(color=0, key=s["rank"])
        if op == "split_p":
            return api.comm_split(color=s["rank"] % 2, key=s["rank"])
        if op == "cart":
            return api.cart_create([2, 2], [True, False])
        if op == "create_p":  # ranks 0-2 get a communicator, 3 gets None
            return api.comm_create(Group((0, 1, 2)))
        return _done(api, None)

    def _use(s, api):
        op, delay = script[s["step"]]
        step = s["step"]
        if op in _COMM_OPS:
            if s["made"] is not None:  # not a comm_create non-member
                # a blocking Call fn must not mutate program state: a cut
                # inside the allreduce re-executes this leaf at restart
                return api.allreduce(np.array([float(s["rank"] + step)]),
                                     SUM, comm=s["made"], size=16)
        elif op == "type":
            tvid = api.type_contiguous(2 + step % 6, DOUBLE)
            s["checksum"] += api.resolve_type(tvid).extent * 1e-6
            s["due"].append((step + delay, "type", tvid))
        else:
            g = api.comm_group()
            half = api.group_incl(g, [0, 1, 2])
            s["checksum"] += api.group_size(half)
            s["due"].append((step + delay, "group", g))
            s["due"].append((step + delay, "group", half))
        return _done(api, np.zeros(1))

    def _note_comm(s):
        op, delay = script[s["step"]]
        if op in _COMM_OPS and s["made"] is not None:
            s["due"].append((s["step"] + delay, "comm", s["made"]))

    def _retire(s, api):
        step = s["step"]
        keep = []
        for due, kind, vid in s["due"]:
            if due > step:
                keep.append((due, kind, vid))
            elif kind == "comm":
                api.comm_free(vid)
            elif kind == "type":
                api.type_free(vid)
            else:
                api.group_free(vid)
        s["due"] = keep
        return _done(api)

    def _absorb(s):
        s["checksum"] += float(s["got"][0]) * 1e-3

    def factory(rank, size):
        return Program(Seq(
            Compute(_init),
            Loop(len(script), Seq(
                Call(_create, store="made"),
                Call(_use, store="got"),
                Compute(_note_comm),
                Call(_retire),
                Compute(_absorb, cost=0.3e-3),
            ), var="step"),
        ), name="scripted-churn")

    return factory


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(
        st.tuples(st.sampled_from(_OPS), st.sampled_from([0, 1, 2, 99])),
        min_size=3, max_size=8,
    ),
    ckpt_frac=st.floats(0.15, 0.85),
)
@example(script=[("type", 0), ("type", 0), ("type", 0), ("dup", 2),
                 ("dup", 0)], ckpt_frac=0.33203125)
def test_property_compacted_replay_equals_full_replay(script, ckpt_frac):
    """The tentpole invariant, fuzzed over churn histories and checkpoint
    times: compaction must never change a single replayed bit, across
    every HandleKind, while never replaying more than the full log."""
    factory = _scripted_factory(script)
    cl = make_cluster("prop", 2, interconnect="aries",
                      default_mpi="craympich")
    baseline = launch_mana(cl, factory, n_ranks=4, ranks_per_node=2).start()
    makespan = baseline.run_to_completion()
    golden = state_fingerprint(baseline.states)

    t = makespan * ckpt_frac
    ckpt_full, job_full = _cycle(cl, factory, t, compact=False)
    ckpt_comp, job_comp = _cycle(cl, factory, t, compact=True)

    assert state_fingerprint(job_full.states) == golden
    assert state_fingerprint(job_comp.states) == golden
    assert (job_comp.restart_report.replayed_entries
            <= job_full.restart_report.replayed_entries)
    assert check_replay_consistency(ckpt_comp) == []
    assert check_handle_ledger(job_comp) == []

    # the virtual tables of both restarts converged to identical bindings
    for rt_f, rt_c in zip(job_full.runtimes, job_comp.runtimes):
        for kind in HandleKind:
            assert sorted(rt_f.table.bound(kind)) == \
                sorted(rt_c.table.bound(kind))
