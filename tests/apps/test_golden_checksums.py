"""Golden determinism regression: pinned per-app checksums and states.

These values were produced by the deterministic simulation at a fixed
configuration; any change to application numerics, the RNG streams, message
matching, or reduction ordering shows up here first.  If a change is
*intentional* (e.g. an app kernel edit), regenerate with:

    python -c "from tests.apps.test_golden_checksums import regenerate; regenerate()"
"""

import pytest

from repro.apps import APP_REGISTRY, get_app
from repro.conformance.oracles import state_fingerprint
from repro.hardware.cluster import cori
from repro.runtime.native import run_native

CONFIG = dict(n_ranks=8, n_steps=4)

#: app -> rank-0 checksum under CONFIG (8 ranks where the geometry allows,
#: LULESH drops to its nearest cube, which is also 8)
GOLDEN = {
    "clamr": 1175.133694546227,
    "commchurn": 0.17622592327426,
    "gromacs": 178.2975651501,
    "hpcg": 211.37589965079457,
    "lulesh": 0.09998036466099999,
    "minife": 507.0721075247329,
    "npbft": 499.76902151,
}

#: app -> ``state_fingerprint`` over every rank's final state under CONFIG:
#: pins the full numeric state (halo buffers, solver vectors), not only the
#: checksum the apps fold it into
GOLDEN_STATE = {
    "clamr": "4574f28406f8cc713114cab1f330e309c2238707a3cad96fc630994bc05dab14",
    "commchurn": "b291d1e704b2fec0cc2ff6ba2ff4e68f9720cadd536d65a8a01218035cf9b18f",
    "gromacs": "d72fd4dcd23270c19df7f9b8b0b79a06c052347228de06f2689af29ca790499a",
    "hpcg": "49460328d58c7a00daa2d44a92eac187b80b9a35817722df6b9634b6d286d150",
    "lulesh": "576cff2289010c8321eb27765f3d883fa1aa4bcb5696f21e651440cfc7ef53cb",
    "minife": "c9181bf50baa5dec81cc9ddf7387cb5f0937350eb773b11444309920bff59804",
    "npbft": "b693e726faa02ef70c7c7946f754bc77fd990d9ef80109fd755392b71d6e40d9",
}


def _states(name):
    spec = get_app(name)
    cfg = spec.default_config.scaled(n_steps=CONFIG["n_steps"])
    n = spec.valid_ranks(CONFIG["n_ranks"])
    job = run_native(cori(1), spec.build(cfg), n_ranks=n, ranks_per_node=n)
    return job.states


def _checksum(name):
    return _states(name)[0]["checksum"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_checksum(name):
    assert _checksum(name) == pytest.approx(GOLDEN[name], rel=0, abs=0), \
        f"{name}: numerics changed — regenerate GOLDEN if intentional"


@pytest.mark.parametrize("name", sorted(GOLDEN_STATE))
def test_golden_state_fingerprint(name):
    assert state_fingerprint(_states(name)) == GOLDEN_STATE[name], \
        f"{name}: application state changed — regenerate GOLDEN_STATE if intentional"


def test_golden_covers_every_registered_app():
    assert sorted(GOLDEN) == sorted(APP_REGISTRY)
    assert sorted(GOLDEN_STATE) == sorted(APP_REGISTRY)


def regenerate():
    """Print fresh GOLDEN and GOLDEN_STATE tables."""
    for name in sorted(APP_REGISTRY):
        print(f'    "{name}": {_checksum(name)!r},')
    for name in sorted(APP_REGISTRY):
        print(f'    "{name}": "{state_fingerprint(_states(name))}",')


if __name__ == "__main__":
    regenerate()
