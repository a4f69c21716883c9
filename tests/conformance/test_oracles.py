"""Oracles: the fingerprint must be canonical and bit-sensitive, the
conservation check must flag every way traffic can go missing."""

import pathlib
from types import SimpleNamespace

import numpy as np

from repro.conformance import (
    ConservationTotals,
    check_conservation,
    check_golden_state,
    check_replay_accounting,
    state_fingerprint,
)
from repro.mana.storage import load_checkpoint

IMAGES = pathlib.Path(__file__).parents[1] / "mana" / "images"


def _state(**kw):
    base = {"rank": 0, "acc": 1.5, "halo": np.arange(8, dtype=float)}
    base.update(kw)
    return base


# ------------------------------------------------------------- fingerprint

def test_fingerprint_is_deterministic_and_order_insensitive():
    a = {"x": 1, "y": 2.0, "z": np.ones(4)}
    b = dict(reversed(list(a.items())))  # same mapping, different insertion
    assert state_fingerprint([a]) == state_fingerprint([b])
    assert state_fingerprint([a]) == state_fingerprint([dict(a)])


def test_fingerprint_is_bit_sensitive_to_floats_and_arrays():
    base = state_fingerprint([_state()])
    nudged = _state(acc=1.5 + 2**-50)
    assert state_fingerprint([nudged]) != base
    arr = _state()
    arr["halo"] = arr["halo"].copy()
    arr["halo"][3] = np.nextafter(arr["halo"][3], 9.0)
    assert state_fingerprint([arr]) != base


def test_fingerprint_distinguishes_types_and_shapes():
    assert state_fingerprint([{"v": 1}]) != state_fingerprint([{"v": 1.0}])
    assert state_fingerprint([{"v": True}]) != state_fingerprint([{"v": 1}])
    a = {"v": np.zeros(6)}
    b = {"v": np.zeros((2, 3))}
    assert state_fingerprint([a]) != state_fingerprint([b])
    assert (state_fingerprint([{"v": np.zeros(2, dtype=np.float32)}])
            != state_fingerprint([{"v": np.zeros(2, dtype=np.float64)}]))


def test_fingerprint_ignores_interpreter_scratch_keys():
    clean = _state()
    scratch = _state(_halo=[(np.ones(3), object())])
    assert state_fingerprint([clean]) == state_fingerprint([scratch])


def test_fingerprint_covers_every_rank_in_order():
    s0, s1 = _state(rank=0), _state(rank=1)
    assert state_fingerprint([s0, s1]) != state_fingerprint([s1, s0])


def test_fingerprint_handles_nested_containers():
    s = {"trace": [0, 1, (2, 3)], "tags": {"a": None, "b": b"\x00\x01"}}
    assert state_fingerprint([s]) == state_fingerprint([s])
    s2 = {"trace": [0, 1, [2, 3]], "tags": {"a": None, "b": b"\x00\x01"}}
    assert state_fingerprint([s]) != state_fingerprint([s2])


# ------------------------------------------------------------ conservation

def _totals(sm=10, rm=10, sb=640, rb=640):
    return ConservationTotals(sent_messages=sm, recv_messages=rm,
                              sent_bytes=sb, recv_bytes=rb)


def test_totals_add_fieldwise():
    merged = _totals(4, 3, 64, 48) + _totals(6, 7, 576, 592)
    assert merged == _totals(10, 10, 640, 640)


def test_balanced_totals_pass():
    assert check_conservation(_totals(), golden=_totals()) == []


def test_lost_message_is_flagged():
    divs = check_conservation(_totals(rm=9, rb=576))
    assert len(divs) == 2
    assert all(d.oracle == "conservation" for d in divs)


def test_duplicate_delivery_balancing_out_is_caught_by_golden_traffic():
    """A drained message replayed twice *and* re-sent once balances
    sent==recv on its own; only the golden totals expose it."""
    doubled = _totals(sm=11, rm=11, sb=704, rb=704)
    assert check_conservation(doubled) == []
    divs = check_conservation(doubled, golden=_totals())
    assert [d.oracle for d in divs] == ["golden_traffic"]


def test_golden_state_check_returns_divergence_with_both_sides():
    golden = state_fingerprint([_state()])
    assert check_golden_state(golden, [_state()]) is None
    div = check_golden_state(golden, [_state(acc=2.0)])
    assert div is not None and div.oracle == "golden_state"
    assert div.expected == golden and div.actual != golden
    assert "differs" in str(div)


def test_replay_accounting_reports_one_divergence_per_miscount():
    """One entry too few is one divergence, also for a compacted set whose
    logs hold no free."""
    ckpt = load_checkpoint(IMAGES / "commchurn_v3_compact")
    held = sum(len(image.restore_state()["log"]["entries"])
               for image in ckpt.images)
    short = SimpleNamespace(replayed_entries=held - 1)
    divergences = check_replay_accounting(ckpt, short)
    assert [(d.expected, d.actual) for d in divergences] == [(held, held - 1)]
    exact = SimpleNamespace(replayed_entries=held)
    assert check_replay_accounting(ckpt, exact) == []
