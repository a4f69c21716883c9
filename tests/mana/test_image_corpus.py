"""Images written by older versions of the code must keep restarting.

Each directory under ``tests/mana/images/`` is a checkpoint set saved by
an earlier image format, committed with the fingerprint its restart
produced when it was written.  Restoring it with today's code must give
that fingerprint bit for bit.
"""

import json
import pathlib
import pickle

import pytest

from repro.mana.record_replay import LogEntry
from repro.mana.storage import load_checkpoint
from repro.mana.virtualize import HandleKind

from tests.mana.images.make_commchurn import restart_fingerprint

IMAGES = pathlib.Path(__file__).parent / "images"


def _golden(name: str) -> dict:
    return json.loads((IMAGES / name / "golden.json").read_text())


def test_commchurn_v1_log_covers_the_churn_ops():
    """The fixture exercises what it guards: an uncompacted log holding
    communicator and datatype creations."""
    ckpt = load_checkpoint(IMAGES / "commchurn_v1")
    log = pickle.loads(ckpt.images[0].payload)["log"]
    assert isinstance(log, list)  # the uncompacted, bare-list shape
    ops = {entry.op for entry in log}
    assert {"comm_dup", "comm_split", "type_create"} <= ops
    # every field lands in its own slot, not the state dict's keys
    assert log[0] == LogEntry("comm_dup", (1,), 1000, HandleKind.COMM,
                              (0, 1, 2, 3))
    assert all(isinstance(entry.result_kind, HandleKind) for entry in log)


def test_log_entries_are_slotted_and_read_both_pickle_states():
    entry = LogEntry("comm_split", (1, 0, 2), 1001, HandleKind.COMM, (0, 2))
    assert not hasattr(entry, "__dict__")
    assert pickle.loads(pickle.dumps(entry)) == entry
    old = LogEntry.__new__(LogEntry)  # an entry pickled before ``group``
    old.__setstate__({"op": "comm_dup", "args": (1,), "result_vid": 1000,
                      "result_kind": HandleKind.COMM})
    assert old == LogEntry("comm_dup", (1,), 1000, HandleKind.COMM, None)


def test_commchurn_v2_entries_load_without_state_hooks(monkeypatch):
    """The current format: every entry unpickles as a call of ``LogEntry``
    on its fields, never through the legacy ``__setstate__``."""
    def legacy(self, state):
        raise AssertionError("a commchurn_v2 entry was pickled as state")

    monkeypatch.setattr(LogEntry, "__setstate__", legacy)
    ckpt = load_checkpoint(IMAGES / "commchurn_v2")
    log = pickle.loads(ckpt.images[0].payload)["log"]
    assert isinstance(log, list)
    assert {"comm_dup", "comm_split", "type_create"} <= {e.op for e in log}
    assert log[0] == LogEntry("comm_dup", (1,), 1000, HandleKind.COMM,
                              (0, 1, 2, 3))


@pytest.mark.parametrize("name", ["commchurn_v1", "commchurn_v2"])
def test_old_image_restarts_to_its_recorded_fingerprint(name):
    fingerprint, replayed = restart_fingerprint(IMAGES / name)
    golden = _golden(name)
    assert fingerprint == golden["fingerprint"]
    assert replayed == golden["replayed_entries"]
