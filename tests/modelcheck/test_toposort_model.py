"""Exhaustive exploration of the topological-sort protocol model.

The differential requirement (docs/protocols.md): on the same 3-rank
collective scenario, BOTH protocol models must explore deadlock-free state
spaces, each under its own write-ordering invariant — write-after-local-drain
for topo, write-after-global-drain for alg2.
"""

import pytest

from repro.modelcheck import ModelChecker, TopoSortModel, TwoPhaseModel


@pytest.mark.parametrize("n", [2, 3])
def test_toposort_model_holds(n):
    """Exhaustive check: invariants, deadlock-freedom, liveness."""
    res = ModelChecker(TopoSortModel(n_ranks=n)).run()
    assert res.ok, f"{res}\n" + "\n".join(res.trace)
    assert res.states_explored > 100


def test_both_protocols_deadlock_free_three_ranks():
    """The differential scenario: 3 ranks, one collective, both engines.

    Deadlock-freedom AND liveness (every reachable state can still reach
    completion) must hold for both state spaces — the topo model's ring of
    p2p sends is a dependency cycle, so this exercises the bounded-drain
    fallback path, not just the happy topological order.
    """
    topo = ModelChecker(TopoSortModel(n_ranks=3)).run(check_liveness=True)
    alg2 = ModelChecker(TwoPhaseModel(n_ranks=3, n_iters=1)).run(
        check_liveness=True
    )
    assert topo.ok, f"{topo}\n" + "\n".join(topo.trace)
    assert alg2.ok, f"{alg2}\n" + "\n".join(alg2.trace)
    assert topo.failure is None and alg2.failure is None


def test_topo_invariants_are_per_protocol():
    """Each model registers its own write-ordering invariant."""
    topo_inv = TopoSortModel(n_ranks=2).invariants()
    alg2_inv = TwoPhaseModel(n_ranks=2).invariants()
    assert "write-after-local-drain" in topo_inv
    assert "no-write-in-phase-2" in topo_inv
    assert "write-after-global-drain" in alg2_inv
    # the invariants are protocol-specific, not shared
    assert "write-after-global-drain" not in topo_inv
    assert "write-after-local-drain" not in alg2_inv


def test_topo_simulation_mode_scales():
    """Random-walk mode covers a rank count beyond exhaustive reach."""
    res = ModelChecker(TopoSortModel(n_ranks=4)).simulate(
        n_walks=50, seed=0
    )
    assert res.ok
    assert res.states_explored > 500


def test_post_done_exit_is_delivered_and_ignored():
    """The post-resume straggler's deferred exit-phase-2 reply reaches the
    coordinator after the round finished (its revision ack overtook the
    RESUME); the model must deliver it and change nothing else — the real
    engine ignores it the same way."""
    from collections import deque

    model = TopoSortModel(n_ranks=2)
    seen = set(model.initial_states())
    frontier = deque(seen)
    delivered = []
    while frontier:
        state = frontier.popleft()
        for action, nxt in model.successors(state):
            if action.endswith(":after-done"):
                delivered.append((state, nxt))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert delivered, "no post-done exit is reachable"
    for before, after in delivered:
        ranks, net, coord, mail, out = before
        assert coord[0] == "done"
        assert (after[0], after[1], after[2], after[3]) == (ranks, net, coord,
                                                           mail)
        assert ("x",) in out and None in after[4]
