"""Write a ``commchurn`` image-corpus set.

    PYTHONPATH=src python tests/mana/images/make_commchurn.py OUTDIR [--compact]

Checkpoints a 4-rank ``commchurn`` job mid-run on two Aries nodes (its logs
uncompacted, or compacted with ``--compact``), saves the set with
:func:`repro.mana.storage.save_checkpoint`, restarts it onto InfiniBand/Open
MPI and writes the restarted run's final state fingerprint and replayed
entry count to ``OUTDIR/golden.json``.

Each committed set was written by the code of one image format, and stays
as it was written.  The first three have the ``MANAIMG1`` file header and
are read as image schema 2 (see :mod:`repro.mana.checkpoint_image`):

* ``commchurn_v1``: ``LogEntry`` was a plain frozen dataclass (pickled
  state: the instance ``__dict__``);
* ``commchurn_v1_tuple``: ``LogEntry`` was a slotted frozen dataclass
  (pickled state: the tuple of its field values);
* ``commchurn_v2``: log entries pickle as calls of ``LogEntry`` on their
  field values;
* ``commchurn_v3``: schema 3, stamped in the ``MANAIMG2`` file header; the
  log is always ``{"entries", "local", "stats"}``, and an entry pickles as
  a call of ``LogEntry`` on five fields, the fifth the result
  communicator's members;
* ``commchurn_v3_compact``: schema 3 with ``--compact``: each log is the
  pruned subsequence of the full one that schema-3 compaction kept (the
  live dup and the split derived from it);
* ``commchurn_v4``: schema 4; an entry has four fields.

Running this script writes images in the current format.  When the image
schema changes again, write a new versioned directory with it; do not
rewrite the committed sets.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.apps import get_app
from repro.conformance.oracles import state_fingerprint
from repro.hardware.cluster import local_cluster, make_cluster
from repro.mana import restart
from repro.mana.storage import load_checkpoint, save_checkpoint

N_RANKS = 4
N_STEPS = 6
CKPT_AT = 0.004


def app_config():
    """(app spec, config) the fixture was written and is restarted with."""
    spec = get_app("commchurn")
    return spec, spec.default_config.scaled(n_steps=N_STEPS)


def restart_fingerprint(directory) -> tuple[str, int]:
    """(final-state fingerprint, replayed entries) of restarting the set in
    ``directory`` onto two InfiniBand nodes running Open MPI."""
    spec, cfg = app_config()
    job = restart(load_checkpoint(directory), local_cluster(2),
                  spec.build(cfg), ranks_per_node=2, mpi="openmpi")
    job.run_to_completion()
    return (state_fingerprint(job.states),
            job.restart_report.replayed_entries)


def main(out: str, compact: bool = False) -> None:
    """Write the checkpoint set and its ``golden.json`` to ``out``, its
    logs compacted if ``compact``."""
    from repro.harness.experiments import _launch_mana_app
    from repro.mana.protocol import JobOptions

    spec, cfg = app_config()
    cluster = make_cluster("aries", 2, interconnect="aries")
    job = _launch_mana_app(cluster, spec, cfg, N_RANKS, 2,
                           JobOptions(compact=compact))
    ckpt, _report = job.checkpoint_at(CKPT_AT)
    outdir = pathlib.Path(out)
    save_checkpoint(ckpt, outdir)
    job.run_to_completion()
    fingerprint, replayed = restart_fingerprint(outdir)
    assert fingerprint == state_fingerprint(job.states), "restart diverged"
    (outdir / "golden.json").write_text(json.dumps({
        "fingerprint": fingerprint,
        "replayed_entries": replayed,
    }, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], compact="--compact" in sys.argv[2:])
