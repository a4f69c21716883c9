"""Interpreter continuation format: pinned, so old checkpoint images restore.

A checkpoint image stores ``Interpreter.snapshot()`` verbatim.  The frames
the interpreter keeps at run time may change shape (they hold node
references for speed), but the snapshot must stay the same tuples of node
paths and counters, byte for byte, or images written by earlier versions
stop restoring.  The literal below was recorded on the interpreter that
re-walked every path from the root.  (That a path outside the program
still raises ``ProgramError`` on restore is checked in ``test_interp.py``;
that a shipped image still restarts to its fingerprint, in
``tests/mana/test_image_corpus.py``.)
"""

import pickle

import pytest

from repro.mprog import Call, Compute, If, Interpreter, Loop, Program, Seq, While


def _add(state):
    state["acc"] = state.get("acc", 0) + state["i"]


def _odd(state):
    state["odd"] = state.get("odd", 0) + 1


def _settle(state):
    state["w"] = state["i"]


def _call(state, _api):
    state["calls"] = state.get("calls", 0) + 1


def build() -> Program:
    """Every node kind: Seq, Loop (with var), If (both arms), While, leaves."""
    body = Seq(
        Compute(_add),
        If(lambda s: s["i"] % 2 == 0, Call(_call), Compute(_odd)),
        While(lambda s: s.get("w", -1) < s["i"], Compute(_settle)),
    )
    return Program(Seq(Compute(_odd), Loop(lambda s: 5, body, var="i"),
                       Call(_call)))


def step(interp: Interpreter) -> bool:
    """Run one leaf; False once the program is done."""
    action = interp.next_action()
    if action.kind == "done":
        return False
    if action.kind == "compute":
        action.node.fn(interp.state)
    else:
        action.node.fn(interp.state, None)
    interp.leaf_done()
    return True


def paused(leaves: int) -> Interpreter:
    """An interpreter stopped in front of its ``leaves + 1``-th leaf."""
    interp = Interpreter(build())
    for _ in range(leaves):
        assert step(interp)
    interp.next_action()
    return interp


#: ``paused(8).snapshot()``: third loop pass (i == 2), inside the If's
#: then-arm, in front of its Call leaf
PINNED_SNAPSHOT = {
    "stack": [
        ((), "seq", 1, 0, 0, -1),
        ((1,), "loop", 0, 2, 5, -1),
        ((1, 0), "seq", 1, 0, 0, -1),
        ((1, 0, 1), "if", 0, 0, 0, 0),
        ((1, 0, 1, 0), "leaf", 0, 0, 0, -1),
    ],
    "finished": False,
    "leaves_done": 8,
}


def test_mid_loop_snapshot_matches_the_pinned_format():
    snap = paused(8).snapshot()
    assert snap == PINNED_SNAPSHOT
    assert pickle.dumps(snap) == pickle.dumps(PINNED_SNAPSHOT)


def test_restored_frames_point_at_their_nodes():
    program = build()
    interp = Interpreter(program)
    interp.restore(pickle.loads(pickle.dumps(PINNED_SNAPSHOT)))
    assert interp.snapshot() == PINNED_SNAPSHOT
    for frame in interp.stack:
        assert frame.node is program.node_at(frame.path)


@pytest.mark.parametrize("leaves", range(0, 40, 3))
def test_restore_resumes_like_the_uninterrupted_run(leaves):
    reference = Interpreter(build())
    while step(reference):
        pass
    src = paused(min(leaves, reference.leaves_done))
    fresh = Interpreter(build(), pickle.loads(pickle.dumps(src.state)))
    fresh.restore(pickle.loads(pickle.dumps(src.snapshot())))
    while step(fresh):
        pass
    assert dict(fresh.state) == dict(reference.state)
    assert fresh.leaves_done == reference.leaves_done
    assert fresh.snapshot() == reference.snapshot()

