"""Import footprint of a MANA job: tooling packages load on first use.

``repro.conformance`` and ``repro.harness`` re-export their public names
lazily (PEP 562), so a process that only runs jobs and fingerprints their
state never loads the conformance harness, the figure runners or the
process-pool machinery.  Each check runs in a fresh interpreter, since the
test process itself has imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = (
    "repro.conformance.harness",
    "repro.harness.experiments",
    "multiprocessing",
    "concurrent.futures",
)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout


def test_job_and_oracles_leave_tooling_unloaded():
    loaded = json.loads(_run(
        "import json, sys\n"
        "import repro.mana.job, repro.conformance.oracles\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    ))
    assert loaded == []


def test_storage_burst_leaves_numpy_ma_unloaded():
    # np.median and np.percentile import numpy.ma (~1.2 MB resident)
    loaded = json.loads(_run(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.hardware.storage import LustreModel\n"
        "LustreModel().burst([1 << 20] * 8, node_of=[i // 4 for i in range(8)],"
        " rng=np.random.default_rng(0))\n"
        "print(json.dumps('numpy.ma' in sys.modules))\n"
    ))
    assert loaded is False


@pytest.mark.parametrize("statement", [
    "from repro.conformance import run_conformance, state_fingerprint",
    "from repro.conformance import QUICK_TIER, ConfigCell",
    "from repro.harness import run_cells, Table, fig8_ckpt_breakdown",
    "import repro.conformance as c; c.matrix.enumerate_cells",
    "import repro.harness as h; h.parallel.memo_stats",
])
def test_re_exported_names_still_import(statement):
    _run(statement)


def test_star_import_and_dir_cover_every_export():
    import repro.conformance
    import repro.harness

    for package in (repro.conformance, repro.harness):
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)
        assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_attribute_error():
    import repro.conformance

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.conformance.nope
