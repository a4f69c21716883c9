"""Call budget of the per-message hot path (blocking send/recv under MANA).

Host wall-clock on a shared machine spreads by 10-15% from run to run, so a
slower hot path hides in the noise of a timing test.  The number of Python
calls the simulator makes per simulated message does not: cProfile counts
it exactly, and it only moves when the code does.  This test runs the OSU
ping-pong under MANA (2 ranks on one Aries node, 1 KiB messages, the
``pingpong`` benchmark workload) and bounds the primitive calls per message,
in total and per layer.  Layers are the module grouping the benchmark's
per-layer tracer uses (``mana_bench/layers.py``), with the ``mana.*``
layers summed into ``mana``.

Measured on CPython 3.11 (calls per message):

    layer     before  after
    mprog         39     10
    runtime       13      9
    mana          34     23
    mpilib        64     26
    simtime       27     18
    net            3      3
    total        306    158

The total also counts builtins and code outside these layers.  "before" is
the design whose interpreter re-walked node paths from the root, with three
chained completions per receive and labels formatted per message.  The budgets sit about 10%
above "after", so they hold on every supported CPython; a change that puts
work back on the hot path trips them.
"""

import cProfile
import importlib.util
import os
from collections import Counter

from repro.apps import osu
from repro.hardware.cluster import make_cluster
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


def profile_hot_loop() -> tuple[float, Counter]:
    """(primitive calls per message, per-layer calls per message)."""
    cluster = make_cluster("pp-aries", 1, interconnect="aries",
                           kernel=UNPATCHED)
    job = launch_mana(cluster, osu.latency_program(1024, ITERS), n_ranks=2,
                      ranks_per_node=2, app_mem_bytes=1 << 20).start()
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
            continue
        layer = layer_map.get(_module_of(code.co_filename))
        if layer is not None:
            layers[layer.split(".")[0]] += calls
    assert job.engine.metrics.total("mpi.p2p.recv_messages") == MESSAGES
    return total / MESSAGES, Counter({k: v / MESSAGES for k, v in layers.items()})


def test_calls_per_message_within_budget():
    total, layers = profile_hot_loop()
    report = ", ".join(f"{k}={layers[k]:.1f}" for k in LAYER_BUDGETS)
    assert total <= TOTAL_BUDGET, f"{total:.1f} calls/msg ({report})"
    over = {k: round(layers[k], 1) for k, budget in LAYER_BUDGETS.items()
            if layers[k] > budget}
    assert over == {}, f"layers over budget: {over} ({report})"
    # every layer of the p2p path is on it: a zero means the grouping broke
    assert all(layers[k] > 0 for k in LAYER_BUDGETS), report
