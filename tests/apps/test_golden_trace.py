"""Golden event-order regression: a pinned digest of a MANA job's trace.

The engine records every dispatched event as ``(virtual time, label)``
when ``engine.trace`` is a list.  This test runs one checkpointed MANA
job — HPCG, 8 ranks on 2 Cori nodes, one checkpoint, restart onto an
InfiniBand cluster under Open MPI — on a single engine and pins the
SHA-256 of that trace.  Any change to event ordering, timing, or labels
anywhere on the launch → checkpoint → restart → resume path shows up
here, even when final checksums agree.  If a change is *intentional*,
regenerate with:

    python -c "from tests.apps.test_golden_trace import regenerate; regenerate()"
"""

import hashlib

from repro.apps import get_app
from repro.hardware.cluster import cori, make_cluster
from repro.mana import launch_mana, restart
from repro.simtime import Engine

#: virtual time of the checkpoint (mid-run for the configuration below)
CKPT_AT = 0.02

#: SHA-256 over the source and restarted job's traces, in dispatch order
GOLDEN_DIGEST = "25d65decf188a814b9b2028ad4e222e59ba6160bde8bc5dfd1671fae4ff19952"


def _trace_digest():
    spec = get_app("hpcg")
    cfg = spec.default_config.scaled(n_steps=4)
    program = spec.build(cfg)

    src_engine = Engine()
    src_engine.trace = []
    job = launch_mana(cori(2), program, n_ranks=8, ranks_per_node=4,
                      engine=src_engine, app_mem_bytes=1 << 20).start()
    ckpt, _ = job.checkpoint_at(CKPT_AT)

    dst_engine = Engine()
    dst_engine.trace = []
    dst = make_cluster("ib", 2, cores_per_node=16, interconnect="infiniband")
    job2 = restart(ckpt, dst, program, ranks_per_node=4, mpi="openmpi",
                   engine=dst_engine)
    job2.run_to_completion()

    h = hashlib.sha256()
    for trace in (src_engine.trace, dst_engine.trace):
        for when, label in trace:
            h.update(f"{when!r} {label}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


def test_golden_mana_trace():
    assert _trace_digest() == GOLDEN_DIGEST, \
        "MANA event order changed — regenerate GOLDEN_DIGEST if intentional"


def regenerate():
    """Print a fresh GOLDEN_DIGEST."""
    print(f'GOLDEN_DIGEST = "{_trace_digest()}"')


if __name__ == "__main__":
    regenerate()
