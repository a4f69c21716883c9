"""Golden event-order regression: pinned digests of MANA jobs' traces.

The engine records every dispatched event as ``(virtual time, label)``
when ``engine.trace`` is a list.  Each test runs one checkpointed MANA job,
restarts it onto an InfiniBand cluster under Open MPI, and pins the
SHA-256 of both traces:

* HPCG, 8 ranks on 2 Cori nodes — the batched ``exchange`` halo path and
  the collectives;
* OSU ping-pong, 2 ranks on 2 TCP nodes, checkpointed mid-loop — the
  blocking ``send``/``recv`` path, its wrapper events and wire deliveries;
* commchurn, 4 ranks on 2 Aries nodes, checkpointed while one rank is held
  at wrapper entry and the others wait in a trivial barrier, then restarted
  with full-log replay — the communicator-management path: the two-phase
  wrapper, record-replay and held-entry release.  Its source job also runs
  on to completion after the checkpoint, so the release is in its trace.

Any change to event ordering, timing, or labels anywhere on the launch →
checkpoint → restart → resume path shows up here, even when final
checksums agree.  If a change is *intentional*, regenerate with:

    python -c "from tests.apps.test_golden_trace import regenerate; regenerate()"
"""

import hashlib

from repro.apps import get_app, osu
from repro.hardware.cluster import cori, make_cluster
from repro.mana import launch_mana, restart
from repro.simtime import Engine

#: virtual time of the checkpoint (mid-run for the configuration below)
CKPT_AT = 0.02

#: SHA-256 over the source and restarted job's traces, in dispatch order
GOLDEN_DIGEST = "25d65decf188a814b9b2028ad4e222e59ba6160bde8bc5dfd1671fae4ff19952"

#: checkpoint time of the ping-pong: its 200 iterations end near 11.7 ms,
#: the image is cut mid-loop with one rank parked in a receive
PINGPONG_CKPT_AT = 0.004

#: the same digest for the ping-pong job
PINGPONG_DIGEST = "6ca65405faf12a6b623c22d2b7196d1195034b06df4ded04e9bf142de279e4fd"


#: checkpoint time of the commchurn job (8 steps, ends near 4.2 ms): the
#: intent reaches three ranks inside a trivial barrier and holds the fourth
#: at its next wrapper entry
CHURN_CKPT_AT = 0.0015

#: the same digest for the commchurn job
CHURN_DIGEST = "71e5ac4116de2d1e6f63e1fc1801a299a144cb091ed5907f274ec6f3bf1d79e8"


def _digest(*traces):
    h = hashlib.sha256()
    for trace in traces:
        for when, label in trace:
            h.update(f"{when!r} {label}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


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
    return _digest(src_engine.trace, dst_engine.trace)


def _pingpong_digest():
    program = osu.latency_program(1024, 200)

    src_engine = Engine()
    src_engine.trace = []
    src = make_cluster("eth", 2, interconnect="tcp")
    job = launch_mana(src, program, n_ranks=2, ranks_per_node=1,
                      engine=src_engine, app_mem_bytes=1 << 20).start()
    ckpt, _ = job.checkpoint_at(PINGPONG_CKPT_AT)

    dst_engine = Engine()
    dst_engine.trace = []
    dst = make_cluster("ib", 2, interconnect="infiniband")
    job2 = restart(ckpt, dst, program, ranks_per_node=1, mpi="openmpi",
                   engine=dst_engine)
    job2.run_to_completion()
    return _digest(src_engine.trace, dst_engine.trace)


def _churn_traces():
    spec = get_app("commchurn")
    program = spec.build(spec.default_config.scaled(n_steps=8))

    src_engine = Engine()
    src_engine.trace = []
    src = make_cluster("aries", 2, interconnect="aries",
                       default_mpi="craympich")
    job = launch_mana(src, program, n_ranks=4, ranks_per_node=2,
                      engine=src_engine, app_mem_bytes=1 << 20).start()
    ckpt, _ = job.checkpoint_at(CHURN_CKPT_AT)
    assert ckpt.meta["options"] == {"protocol": "alg2", "compact": False}
    # the source runs on, so its trace also covers the held entry's release
    job.run_to_completion()

    dst_engine = Engine()
    dst_engine.trace = []
    dst = make_cluster("ib", 2, interconnect="infiniband")
    job2 = restart(ckpt, dst, program, ranks_per_node=2, mpi="openmpi",
                   engine=dst_engine)
    job2.run_to_completion()
    assert job2.restart_report.replayed_entries > 0
    return src_engine.trace, dst_engine.trace


def _churn_digest():
    return _digest(*_churn_traces())


def test_golden_mana_trace():
    assert _trace_digest() == GOLDEN_DIGEST, \
        "MANA event order changed — regenerate GOLDEN_DIGEST if intentional"


def test_golden_pingpong_trace():
    assert _pingpong_digest() == PINGPONG_DIGEST, \
        "MANA send/recv event order changed — regenerate PINGPONG_DIGEST " \
        "if intentional"


def test_golden_commchurn_trace():
    src_trace, dst_trace = _churn_traces()
    # the cut exercises the held-entry path, not only a quiet step boundary
    assert any(label.endswith(":release-entry") for _, label in src_trace)
    assert _digest(src_trace, dst_trace) == CHURN_DIGEST, \
        "MANA comm-management event order changed — regenerate " \
        "CHURN_DIGEST if intentional"


def regenerate():
    """Print fresh GOLDEN_DIGEST, PINGPONG_DIGEST and CHURN_DIGEST values."""
    print(f'GOLDEN_DIGEST = "{_trace_digest()}"')
    print(f'PINGPONG_DIGEST = "{_pingpong_digest()}"')
    print(f'CHURN_DIGEST = "{_churn_digest()}"')


if __name__ == "__main__":
    regenerate()
