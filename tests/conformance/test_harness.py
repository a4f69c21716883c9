"""The differential harness end to end: a real sweep with zero divergences,
determinism across process-pool fan-out, seeded reproducibility of the
checkpoint fuzzer — and the proof the oracles have teeth: a deliberately
injected restore bug, caught with a repro recipe."""

import numpy as np
import pytest

from repro.conformance import (
    ConfigCell,
    differential_cycle,
    golden_run,
    matrix_for,
    run_conformance,
)
from repro.conformance.harness import (
    CKPT_FRACTION,
    REF_CELL,
    checkpoint_fraction,
)
from repro.mana.checkpoint_image import CheckpointImage

SRC = ConfigCell("craympich", "aries", 2)
DST = ConfigCell("openmpi", "tcp", 4)


# ------------------------------------------------------------- the sweep

def test_quick_sweep_has_zero_divergences():
    """The acceptance gate: >=2 impls x 2 fabrics x 2 layouts, fuzzed
    checkpoint times, every cycle bit-identical and conserving."""
    report = run_conformance(tier="quick", seed=0, jobs=1)
    assert report.ok, report.summary()
    cells = {ConfigCell.from_tuple(r.dst) for r in report.results}
    cells |= {ConfigCell.from_tuple(r.src) for r in report.results}
    assert len({c.mpi for c in cells}) >= 2
    assert len({c.fabric for c in cells}) >= 2
    assert len({c.ranks_per_node for c in cells}) >= 2
    assert "OK" in report.summary()


def test_sweep_is_deterministic_across_jobs():
    """jobs=1 and jobs=2 must produce identical rows (the run_cells
    determinism contract extends to conformance)."""
    kw = dict(tier="quick", seed=3, apps=("gromacs",), n_sources=1)
    seq = run_conformance(jobs=1, **kw)
    par = run_conformance(jobs=2, **kw)
    assert seq.results == par.results


def test_checkpoint_times_are_fuzzed_and_seed_reproducible():
    lo, hi = CKPT_FRACTION
    fracs = {
        checkpoint_fraction("gromacs", src, seed=0, k=k)
        for src in matrix_for("quick") for k in (0, 1)
    }
    assert len(fracs) > 1, "fuzzer produced a constant checkpoint time"
    assert all(lo <= f <= hi for f in fracs)
    # same (seed, identity) -> same draw; different seed -> different draw
    assert (checkpoint_fraction("hpcg", SRC, 5, 0)
            == checkpoint_fraction("hpcg", SRC, 5, 0))
    assert (checkpoint_fraction("hpcg", SRC, 5, 0)
            != checkpoint_fraction("hpcg", SRC, 6, 0))


def test_report_exit_contract_and_only_filter():
    rep = run_conformance(tier="quick", apps=("gromacs",), n_sources=1,
                          only=f"{SRC.label}->{DST.label}")
    assert len(rep.results) == 1
    assert rep.results[0].pair == f"{SRC.label}->{DST.label}"
    with pytest.raises(ValueError, match="no cycles"):
        run_conformance(tier="quick", only="nope->nope")


def test_golden_runs_agree_across_cells():
    """Uncheckpointed runs must already be cell-independent — the premise
    the differential oracle stands on."""
    ref = golden_run("gromacs", REF_CELL, n_ranks=4, n_steps=4)
    other = golden_run("gromacs", ConfigCell("intelmpi", "omnipath", 1),
                       n_ranks=4, n_steps=4)
    assert ref.fingerprint == other.fingerprint
    assert ref.totals == other.totals


# ----------------------------------------------------- injected-bug tests

def _perturb_first_array(state: dict) -> bool:
    """Flip the low-order bits of the first float array in app state."""
    for key in sorted(state["app_state"]):
        val = state["app_state"][key]
        if isinstance(val, np.ndarray) and val.dtype.kind == "f" and val.size:
            val.flat[0] = np.nextafter(val.flat[0], np.inf)
            return True
    return False


def test_injected_restore_bug_is_caught(monkeypatch):
    """A single-ULP corruption of one rank's restored state — the smallest
    possible replay/restore bug — must surface as a golden_state divergence
    carrying a runnable repro line."""
    clean = differential_cycle("gromacs", SRC, DST, seed=1)
    assert clean.ok

    fired = []
    real_restore = CheckpointImage.restore_state

    def corrupted(self):
        state = real_restore(self)
        if self.rank == 0 and _perturb_first_array(state):
            fired.append(True)
        return state

    monkeypatch.setattr(CheckpointImage, "restore_state", corrupted)
    buggy = differential_cycle("gromacs", SRC, DST, seed=1)
    assert fired, "the injected corruption never executed"
    assert not buggy.ok
    assert "golden_state" in {d.oracle for d in buggy.divergences}
    assert buggy.pair in buggy.repro("quick")
    assert f"--seed {buggy.seed}" in buggy.repro("quick")


def test_injected_lost_state_key_is_caught(monkeypatch):
    """Dropping a whole key from a restored rank's state (a restore-path
    bug losing data outright) is also caught."""
    real_restore = CheckpointImage.restore_state

    def lossy(self):
        state = real_restore(self)
        if self.rank == 1:
            for key in sorted(state["app_state"]):
                if isinstance(state["app_state"][key], np.ndarray):
                    del state["app_state"][key]
                    break
        return state

    monkeypatch.setattr(CheckpointImage, "restore_state", lossy)
    # dropping app arrays usually crashes the program text; either outcome
    # (divergence report or a raised failure) means the bug cannot land
    try:
        buggy = differential_cycle("hpcg", SRC, DST, seed=2)
    except Exception:
        return
    assert not buggy.ok


# ------------------------------------------------- chained cycles + lulesh

def test_chained_cycle_survives_two_migrations():
    """checkpoint -> restart -> checkpoint again -> restart, back on the
    source cell: state and conservation oracles hold across both hops."""
    res = differential_cycle("gromacs", SRC, DST, seed=4, k=1, chain=True)
    assert res.ok, res.divergences


def test_chain_second_cut_is_seeded_and_distinct():
    """The hop-1 fuzz draw is reproducible and independent of hop 0."""
    f0 = checkpoint_fraction("gromacs", SRC, seed=4, k=1)
    f1 = checkpoint_fraction("gromacs", SRC, seed=4, k=1, hop=1)
    assert f0 != f1
    assert f1 == checkpoint_fraction("gromacs", SRC, seed=4, k=1, hop=1)
    lo, hi = CKPT_FRACTION
    assert lo <= f1 <= hi


def test_ckpts_per_source_beyond_one_runs_chains():
    """k > 0 sweep cycles are the two-hop chains; the sweep stays green."""
    report = run_conformance(tier="quick", seed=2, apps=("gromacs",),
                             n_sources=1, ckpts_per_source=2, jobs=1)
    assert report.ok, report.summary()
    ks = {r.k for r in report.results}
    assert ks == {0, 1}


def test_lulesh_joins_the_mix_at_cube_rank_counts():
    """The rank-constrained app rides the matrix at 8 ranks (2^3), never
    collapsing to the useless single-rank cube."""
    from repro.conformance.harness import DEFAULT_APPS, effective_ranks

    assert "lulesh" in DEFAULT_APPS
    assert effective_ranks("lulesh", 4) == 8
    assert effective_ranks("gromacs", 4) == 4
    res = differential_cycle("lulesh", SRC, DST, seed=1)
    assert res.ok, res.divergences


# ------------------------------------------------- protocol / compact axes

def test_alternate_protocol_chains_across_engines():
    """A chained cycle cut under alg2, then topo: a checkpoint taken
    by one protocol must restore cleanly under the other, with state and
    3-segment conservation oracles intact."""
    res = differential_cycle("gromacs", SRC, DST, seed=4, k=1, chain=True,
                             protocol="alternate")
    assert res.ok, res.divergences
    assert res.protocol == "alternate"

    report = run_conformance(tier="quick", seed=2, apps=("gromacs",),
                             n_sources=1, ckpts_per_source=2,
                             protocol="alternate", jobs=1)
    assert report.ok, report.summary()
    assert {r.k for r in report.results} == {0, 1}


def _cycle(**kw):
    from repro.conformance.harness import CycleResult

    fields = dict(app="gromacs", src=SRC.as_tuple(), dst=DST.as_tuple(),
                  seed=0, k=0, ckpt_time=0.01, divergences=(),
                  fingerprint="aaaa")
    fields.update(kw)
    return CycleResult(**fields)


def test_cross_protocol_oracle_flags_fingerprint_drift():
    """The extra oracle behind --protocol both: same cycle, different
    protocols, different fingerprints => a cross_protocol divergence pinned
    on the topo run; cycles of other apps are never paired."""
    from repro.conformance.harness import _cross_axis_check

    def check(results):
        return _cross_axis_check(results, "protocol", "alg2",
                                 oracle="cross_protocol")

    base = _cycle(protocol="alg2")
    agree = check([base, _cycle(protocol="topo")])
    assert all(r.ok for r in agree)

    drifted = check([base, _cycle(protocol="topo", fingerprint="bbbb"),
                     _cycle(app="hpcg", protocol="topo", fingerprint="cccc")])
    flagged = [r for r in drifted if not r.ok]
    assert len(flagged) == 1
    assert flagged[0].protocol == "topo"
    assert flagged[0].divergences[0].oracle == "cross_protocol"
    assert flagged[0].divergences[0].expected == "aaaa"
    # the baseline side stays clean
    assert drifted[0].ok


def test_cross_compact_oracle_checks_fingerprint_and_replay_count():
    """The extra oracle behind --compact both: the compacted run must
    match the full run's fingerprint *and* replay no more entries."""
    from repro.conformance.harness import (
        _compacted_replays_no_more,
        _cross_axis_check,
    )

    def check(results):
        return _cross_axis_check(results, "compact", False,
                                 oracle="cross_compact",
                                 extra=_compacted_replays_no_more)

    full = _cycle(compact=False, replayed=100)
    assert all(r.ok for r in check([full, _cycle(compact=True,
                                                 replayed=8)]))

    drifted = check([full, _cycle(compact=True, replayed=101,
                                  fingerprint="bbbb")])
    assert drifted[0].ok
    assert [d.oracle for d in drifted[1].divergences] == [
        "cross_compact", "cross_compact"]
    assert drifted[1].divergences[1].actual == 101

    # a compacted cycle with no full-log peer is left alone
    lone = _cycle(compact=True, seed=9, fingerprint="bbbb")
    assert check([full, lone])[1].ok


@pytest.mark.parametrize("k, src_index", [(1, 0), (0, 2)],
                         ids=["chained-k1", "third-source"])
def test_repro_line_reruns_the_same_cycle(tmp_path, k, src_index):
    """A divergence's repro line, fed back to the CLI, re-runs that very
    (app, pair, k, protocol, compact) cycle at the sweep's shape — for a
    chained k=1 cycle, and for a cut on a third source cell."""
    import io
    import json
    import shlex

    from repro.cli import main
    from repro.conformance import source_cells
    from repro.conformance.harness import ConformanceReport
    from repro.conformance.oracles import Divergence

    dsts = matrix_for("quick")
    src = source_cells(dsts, 3)[src_index]
    dst = next(d for d in dsts if d != src)
    bad = _cycle(src=src.as_tuple(), dst=dst.as_tuple(), seed=3, k=k,
                 protocol="topo", compact=True,
                 divergences=(Divergence("golden_state", "a", "b", "x"),))
    report = ConformanceReport(tier="quick", seed=3, n_ranks=2, n_steps=3,
                               apps=("gromacs",), results=[bad],
                               protocol="topo", compact="on")
    argv = shlex.split(report.as_dict()["cycle_results"][0]["repro"])
    assert argv[:3] == ["python", "-m", "repro"]

    out = tmp_path / "rerun.json"
    assert main(argv[3:] + ["--report", str(out)], out=io.StringIO()) == 0
    rerun = json.loads(out.read_text())
    assert (rerun["n_ranks"], rerun["n_steps"]) == (2, 3)
    assert ("gromacs", bad.pair, k, "topo", True) in {
        (r["app"], r["pair"], r["k"], r["protocol"], r["compact"])
        for r in rerun["cycle_results"]
    }


def test_unknown_axis_values_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        run_conformance(tier="quick", protocol="nope")
    with pytest.raises(ValueError, match="unknown compact axis"):
        run_conformance(tier="quick", compact="sometimes")
