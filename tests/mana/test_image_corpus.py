"""Images written by older versions of the code must keep restarting.

Each directory under ``tests/mana/images/`` is a checkpoint set saved by
an earlier image format, committed with the fingerprint its restart
produced when it was written.  Restoring it with today's code must give
that fingerprint bit for bit.  A shape that no committed set holds must be
refused with a typed error, never restored with guessed defaults.
"""

import copyreg
import dataclasses
import hashlib
import json
import pathlib
import pickle
import shutil
import struct

import pytest

from repro.mana import record_replay
from repro.mana.checkpoint_image import SCHEMA, CheckpointError
from repro.mana.record_replay import LogEntry
from repro.mana.storage import load_checkpoint
from repro.mana.virtualize import HandleKind

from tests.mana.images.make_commchurn import restart_fingerprint

IMAGES = pathlib.Path(__file__).parent / "images"
#: every committed set, oldest first
CORPUS = ["commchurn_v1", "commchurn_v1_tuple", "commchurn_v2", "commchurn_v3"]
FIRST_ENTRY = LogEntry("comm_dup", (1,), 1000, HandleKind.COMM, (0, 1, 2, 3))


def _golden(name: str) -> dict:
    return json.loads((IMAGES / name / "golden.json").read_text())


def test_commchurn_v1_log_covers_the_churn_ops():
    """The fixture exercises what it guards: an uncompacted log holding
    communicator and datatype creations."""
    image = load_checkpoint(IMAGES / "commchurn_v1").images[0]
    assert image.schema == 2
    log = image.restore_state()["log"]
    assert log["local"] == {} and log["stats"] is None
    ops = {entry.op for entry in log["entries"]}
    assert {"comm_dup", "comm_split", "type_create"} <= ops
    # every field lands in its own slot, not the state dict's keys
    assert log["entries"][0] == FIRST_ENTRY
    assert all(isinstance(e.result_kind, HandleKind) for e in log["entries"])


def test_log_entries_are_slotted_and_read_both_pickle_states():
    entry = LogEntry("comm_split", (1, 0, 2), 1001, HandleKind.COMM, (0, 2))
    assert not hasattr(entry, "__dict__")
    assert pickle.loads(pickle.dumps(entry)) == entry
    # the __dict__ state of commchurn_v1, the field tuple of _v1_tuple
    for name in ("commchurn_v1", "commchurn_v1_tuple"):
        image = load_checkpoint(IMAGES / name).images[0]
        entries = image.restore_state()["log"]["entries"]
        assert entries[0] == FIRST_ENTRY
        assert all(e.__class__ is LogEntry for e in entries)


def test_commchurn_v2_entries_load_without_state_hooks():
    """Entries pickled as calls of ``LogEntry`` on their fields unpickle
    with today's class, which has no state hook at all."""
    assert not hasattr(LogEntry, "__setstate__")
    ckpt = load_checkpoint(IMAGES / "commchurn_v2")
    log = pickle.loads(ckpt.images[0].payload)["log"]
    assert isinstance(log, list)
    assert {"comm_dup", "comm_split", "type_create"} <= {e.op for e in log}
    assert log[0] == FIRST_ENTRY


def test_newest_set_has_the_current_schema():
    """A schema bump without a corpus set written by the new code fails
    here; the current schema restores by plain unpickling."""
    image = load_checkpoint(IMAGES / CORPUS[-1]).images[0]
    assert image.schema == SCHEMA
    log = pickle.loads(image.payload)["log"]
    assert set(log) == {"entries", "local", "stats"}
    assert log["entries"][0] == FIRST_ENTRY


@pytest.mark.parametrize("name", CORPUS)
def test_old_image_restarts_to_its_recorded_fingerprint(name):
    fingerprint, replayed = restart_fingerprint(IMAGES / name)
    golden = _golden(name)
    assert golden == {"fingerprint": "722ab8ce98d804e7824b61dd23b8472e"
                                     "2bb122d3d6e4b4e66673b5a789a8683e",
                      "replayed_entries": 248}
    assert fingerprint == golden["fingerprint"]
    assert replayed == golden["replayed_entries"]


# ------------------------------------------------ shapes no set holds

class _StateEntry:
    """A log entry pickled as a bare instance plus its state, as the
    dataclass entries of schema 2 were, under ``LogEntry``'s name."""

    __module__ = "repro.mana.record_replay"
    __qualname__ = "LogEntry"

    def __init__(self, state) -> None:
        self.state = state

    def __reduce__(self):
        return (copyreg.__newobj__, (type(self),), self.state)


def _schema2_image(monkeypatch, state: dict):
    """An image of ``state`` as the code before the schema stamp wrote it."""
    template = load_checkpoint(IMAGES / "commchurn_v2").images[0]
    with monkeypatch.context() as patch:
        patch.setattr(record_replay, "LogEntry", _StateEntry)
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    return dataclasses.replace(template, payload=payload, schema=2)


def _schema2_state() -> dict:
    """commchurn_v1's rank-0 payload as written: a bare-list log of
    entries pickled as their ``__dict__``."""
    state = load_checkpoint(IMAGES / "commchurn_v1").images[0].restore_state()
    state["log"] = [_StateEntry({f: getattr(e, f) for f in LogEntry.__slots__})
                    for e in state["log"]["entries"]]
    return state


def test_schema2_stand_in_restores(monkeypatch):
    """``_schema2_image`` writes what the old code wrote: unaltered, its
    image restores."""
    state = _schema2_image(monkeypatch, _schema2_state()).restore_state()
    assert state["log"]["entries"][0] == FIRST_ENTRY


def _with_entries(*states):
    return lambda state: dict(state, log=[_StateEntry(s) for s in states])


@pytest.mark.parametrize("alter, missing", [
    # an unslotted entry pickled before ``group`` existed
    pytest.param(_with_entries({"op": "comm_dup", "args": (1,),
                                "result_vid": 1000,
                                "result_kind": HandleKind.COMM}),
                 "'group'", id="comm_dup_without_group"),
    # a split whose result membership was never recorded
    pytest.param(_with_entries(
        ("comm_split", (1, 0, 0), 1000, HandleKind.COMM, None),
        ("comm_free", (1000,), None, HandleKind.COMM, None)),
        "'group'", id="comm_split_with_unknown_membership"),
    # the datatype vid carried in the args as well as in result_vid
    pytest.param(_with_entries(
        ("type_create", (("contiguous", 4, "d"), 2000), 2000,
         HandleKind.DATATYPE, None)),
        "2 args", id="type_create_with_two_args"),
    pytest.param(lambda state: {k: v for k, v in state.items()
                                if k != "recv_journal"},
                 "recv_journal", id="payload_without_a_key"),
])
def test_pre_corpus_shape_is_refused(monkeypatch, alter, missing):
    image = _schema2_image(monkeypatch, alter(_schema2_state()))
    with pytest.raises(CheckpointError, match=missing):
        image.restore_state()


def _rewrite_rank0(tmp_path, name: str, edit) -> pathlib.Path:
    """Copy a set, edit rank 0's file bytes, keep the manifest digest
    true, so only the edit can make loading or restoring fail."""
    directory = tmp_path / name
    shutil.copytree(IMAGES / name, directory)
    path = directory / "rank_00000.img"
    blob = edit(path.read_bytes())
    path.write_bytes(blob)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["images"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return directory


def test_newer_schema_is_refused(tmp_path):
    def bump(blob):  # the stamp follows magic, rank, size and taken_at
        at = struct.calcsize("<8sIQd")
        return blob[:at] + struct.pack("<I", SCHEMA + 1) + blob[at + 4:]

    ckpt = load_checkpoint(_rewrite_rank0(tmp_path, CORPUS[-1], bump))
    assert ckpt.images[0].schema == SCHEMA + 1
    with pytest.raises(CheckpointError, match=f"schema {SCHEMA + 1}"):
        ckpt.images[0].restore_state()


def test_unknown_header_is_refused(tmp_path):
    directory = _rewrite_rank0(tmp_path, CORPUS[-1],
                               lambda blob: b"MANAIMG9" + blob[8:])
    with pytest.raises(CheckpointError, match="MANAIMG9"):
        load_checkpoint(directory)
