"""Call budgets of the MANA hot paths: blocking send/recv, collectives and
the halo exchange.

Host wall-clock on a shared machine spreads by 10-15% from run to run, so a
slower hot path hides in the noise of a timing test.  The number of Python
calls the simulator makes per simulated operation does not: cProfile counts
it exactly, and it only moves when the code does.  Each test runs one
benchmark workload's MANA job and bounds the primitive calls per operation,
in total and per layer.  Layers are the module grouping the benchmark's
per-layer tracer uses (``mana_bench/layers.py``), with the ``mana.*``
layers summed into ``mana``; ``builtins`` are the C functions called.

Per message: the OSU ping-pong under MANA (2 ranks on one Aries node,
1 KiB messages, the ``pingpong`` workload).  Measured on CPython 3.11:

    layer     before  after
    mprog         39     10
    runtime       13      9
    mana          34     23
    mpilib        64     26
    simtime       27     18
    net            3      3
    total        306    158

"before" is the design whose interpreter re-walked node paths from the
root, with three chained completions per receive and labels formatted per
message.

Per lower-half collective (``mpi.coll.ops``; every wrapped collective is
two, the trivial barrier and the real call): commchurn under MANA (8 ranks
on 2 Aries nodes, 400 steps, the ``churn_restart`` workload's MANA run),
which makes no p2p calls at all.  Measured on CPython 3.11:

    layer     before  after
    builtins     215    127
    mpilib       126     51
    mana         107     96
    simtime       66     59
    mprog         21     21
    obs           20     11
    runtime       16     13
    total        608    396

"before" built four closures per wrapped call (one of them cyclic), looked
its counters up by sorted labels, hashed enum members in the handle table
and copied every allgather value p² times.

Per p2p message of the halo exchange (``mpi.p2p.recv_messages``): HPCG
under MANA (32 ranks on 4 Cori nodes, 8 per node, 12 steps, the
``halo_ckpt`` workload's MANA run), whose 128 KiB faces take the
rendezvous protocol.  Measured on CPython 3.11:

    layer     before  after
    builtins      77     60
    mpilib        38     36
    simtime       28     24
    mana          27     25
    net            9      6
    obs            9      9
    mprog          7      7
    runtime        4      4
    apps           2      3
    total        217    179

"before" kept each rendezvous in a send-id dict with three closures, built
a ``Message`` and a ``meta`` dict per wire send and summed the in-flight
registry, wrapped every guarded send and every ``all_of`` input in a
closure, and ran the HPCG vectors through ``np.roll`` and ``mean``.

The totals also count code outside these layers.  The budgets sit about
10% above "after", so they hold on every supported CPython; a change that
puts work back on a hot path trips them.
"""

import cProfile
import importlib.util
import os
from collections import Counter

from repro.apps import get_app, osu
from repro.hardware.cluster import cori, make_cluster
from repro.hardware.kernelmodel import UNPATCHED
from repro.mana import launch_mana

ITERS = 500
#: two messages per ping-pong iteration
MESSAGES = 2 * ITERS

#: primitive calls per message, all code (builtins included)
TOTAL_BUDGET = 174
#: primitive calls per message of each layer's own Python functions
LAYER_BUDGETS = {
    "mprog": 11,
    "runtime": 10,
    "mana": 26,
    "mpilib": 29,
    "simtime": 20,
    "net": 4,
}

#: the ``churn_restart`` benchmark's MANA run: commchurn, 8 ranks, 400 steps
CHURN_STEPS, CHURN_RANKS = 400, 8
#: primitive calls per lower-half collective, all code (builtins included)
COLL_TOTAL_BUDGET = 436
#: primitive calls per lower-half collective of each layer
COLL_LAYER_BUDGETS = {
    "builtins": 139,
    "mpilib": 57,
    "mana": 106,
    "simtime": 65,
    "mprog": 23,
    "obs": 12,
    "runtime": 14,
}

#: the ``halo_ckpt`` benchmark's MANA run: HPCG, 32 ranks, 12 steps
HALO_STEPS, HALO_RANKS, HALO_PER_NODE = 12, 32, 8
#: primitive calls per p2p message, all code (builtins included)
HALO_TOTAL_BUDGET = 197
#: primitive calls per p2p message of each layer
HALO_LAYER_BUDGETS = {
    "builtins": 66,
    "mpilib": 39,
    "mana": 28,
    "simtime": 26,
    "obs": 10,
    "mprog": 8,
    "net": 7,
    "runtime": 5,
    "apps": 3,
}

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")


def _layer_map() -> dict:
    """``LAYER_MAP`` of the benchmark's tracer, loaded from its file."""
    path = os.path.join(_ROOT, "mana_bench", "layers.py")
    spec = importlib.util.spec_from_file_location("_bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_MAP


def _module_of(filename: str):
    """``repro.x.y`` for a file under ``src/``, else None."""
    rel = os.path.relpath(os.path.abspath(filename), _SRC)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _calls_per_op(job, op_metric: str) -> tuple[float, Counter, float]:
    """Run ``job`` to completion under cProfile; returns (primitive calls
    per operation, per-layer calls per operation, operations), where the
    operations are the engine metric ``op_metric``'s total."""
    profiler = cProfile.Profile()
    profiler.enable()
    job.run_to_completion()
    profiler.disable()

    layer_map = _layer_map()
    total = 0
    layers: Counter = Counter()
    for entry in profiler.getstats():
        calls = entry.callcount - entry.reccallcount
        total += calls
        code = entry.code
        if isinstance(code, str):  # a builtin
            layers["builtins"] += calls
            continue
        layer = layer_map.get(_module_of(code.co_filename))
        if layer is not None:
            layers[layer.split(".")[0]] += calls
    ops = job.engine.metrics.total(op_metric)
    return total / ops, Counter({k: v / ops for k, v in layers.items()}), ops


def profile_hot_loop() -> tuple[float, Counter]:
    """(primitive calls per message, per-layer calls per message)."""
    cluster = make_cluster("pp-aries", 1, interconnect="aries",
                           kernel=UNPATCHED)
    job = launch_mana(cluster, osu.latency_program(1024, ITERS), n_ranks=2,
                      ranks_per_node=2, app_mem_bytes=1 << 20).start()
    total, layers, messages = _calls_per_op(job, "mpi.p2p.recv_messages")
    assert messages == MESSAGES
    return total, layers


def profile_collectives() -> tuple[float, Counter]:
    """(primitive calls per lower-half collective, per-layer calls per
    lower-half collective) of the ``churn_restart`` benchmark's MANA run."""
    spec = get_app("commchurn")
    program = spec.build(spec.default_config.scaled(n_steps=CHURN_STEPS))
    cluster = make_cluster("aries", 2, interconnect="aries",
                           default_mpi="craympich")
    job = launch_mana(cluster, program, n_ranks=CHURN_RANKS,
                      ranks_per_node=4, app_mem_bytes=1 << 20).start()
    total, layers, colls = _calls_per_op(job, "mpi.coll.ops")
    # five wrapped collectives per step and two at set-up, each of them two
    # lower-half collectives: the trivial barrier, then the real call
    assert colls == 2 * (5 * CHURN_STEPS + 2), colls
    assert job.engine.metrics.total("mpi.p2p.recv_messages") == 0
    return total, layers


def profile_halo() -> tuple[float, Counter]:
    """(primitive calls per p2p message, per-layer calls per p2p message)
    of the ``halo_ckpt`` benchmark's MANA run."""
    spec = get_app("hpcg")
    program = spec.build(spec.default_config.scaled(n_steps=HALO_STEPS))
    job = launch_mana(cori(HALO_RANKS // HALO_PER_NODE), program,
                      n_ranks=HALO_RANKS, ranks_per_node=HALO_PER_NODE,
                      app_mem_bytes=1 << 20).start()
    total, layers, messages = _calls_per_op(job, "mpi.p2p.recv_messages")
    # the 4x4x2 periodic grid gives each rank five distinct neighbours
    # (its two z-neighbours coincide), one message from each per step
    assert messages == HALO_STEPS * HALO_RANKS * 5, messages
    return total, layers


def _assert_within(total: float, layers: Counter, total_budget: int,
                   layer_budgets: dict, unit: str) -> None:
    report = ", ".join(f"{k}={layers[k]:.1f}" for k in layer_budgets)
    assert total <= total_budget, f"{total:.1f} calls/{unit} ({report})"
    over = {k: round(layers[k], 1) for k, budget in layer_budgets.items()
            if layers[k] > budget}
    assert over == {}, f"layers over budget: {over} ({report})"
    # every budgeted layer is on the path: a zero means the grouping broke
    assert all(layers[k] > 0 for k in layer_budgets), report


def test_calls_per_message_within_budget():
    _assert_within(*profile_hot_loop(), TOTAL_BUDGET, LAYER_BUDGETS, "msg")


def test_calls_per_collective_within_budget():
    _assert_within(*profile_collectives(), COLL_TOTAL_BUDGET,
                   COLL_LAYER_BUDGETS, "collective")


def test_calls_per_halo_message_within_budget():
    _assert_within(*profile_halo(), HALO_TOTAL_BUDGET, HALO_LAYER_BUDGETS,
                   "msg")
