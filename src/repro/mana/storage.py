"""On-disk checkpoint sets.

The simulation times writes through the Lustre model, but a reproduction a
user can adopt also needs *actual* persistence: save a coordinated
checkpoint to a directory, exit the process, and restart it later (or on
another machine) — MANA's ``ckpt_rank_*`` image files and coordinator
manifest, in miniature.

Layout::

    <dir>/
      manifest.json        job metadata + per-image index and digests
      rank_00000.img       pickled restore payload of rank 0
      rank_00001.img       ...

Each image file starts with a fixed header (magic, rank, modeled size,
``taken_at``), followed by the region table (a little-endian u64 length,
then the pickled region rows) and then the pickled payload.  The header
holds no version field: the magic ``MANAIMG1`` is the only format tag.
The manifest records a SHA-256 of every file so corruption is detected at
load time.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import struct
from typing import Union

from repro.mana.checkpoint_image import (
    CheckpointError,
    CheckpointImage,
    CheckpointSet,
    RegionDescriptor,
)

_MAGIC = b"MANAIMG1"
_HEADER = struct.Struct("<8sIQd")   # magic, rank, modeled size, taken_at


def _image_bytes(image: CheckpointImage) -> bytes:
    header = _HEADER.pack(_MAGIC, image.rank, image.size_bytes, image.taken_at)
    regions = pickle.dumps(
        [(d.name, d.kind, d.perm, d.size) for d in image.regions],
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return header + struct.pack("<Q", len(regions)) + regions + image.payload


def _image_from_bytes(blob: bytes) -> CheckpointImage:
    magic, rank, size_bytes, taken_at = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise CheckpointError("not a MANA image file (bad magic)")
    off = _HEADER.size
    (rlen,) = struct.unpack_from("<Q", blob, off)
    off += 8
    regions = tuple(
        RegionDescriptor(*row) for row in pickle.loads(blob[off:off + rlen])
    )
    payload = blob[off + rlen:]
    return CheckpointImage(rank=rank, size_bytes=size_bytes, regions=regions,
                           payload=payload, taken_at=taken_at)


def save_checkpoint(ckpt: CheckpointSet, directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a checkpoint set to ``directory`` (created if needed).

    Returns the manifest path.  Refuses to overwrite a directory that
    already holds a manifest for a different rank count.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    entries = []
    for image in ckpt.images:
        blob = _image_bytes(image)
        fname = f"rank_{image.rank:05d}.img"
        (directory / fname).write_bytes(blob)
        entries.append({
            "rank": image.rank,
            "file": fname,
            "bytes_on_disk": len(blob),
            "modeled_bytes": image.size_bytes,
            "sha256": hashlib.sha256(blob).hexdigest(),
        })
    manifest = {
        "format": "mana-checkpoint/1",
        "n_ranks": ckpt.n_ranks,
        "total_modeled_bytes": ckpt.total_bytes,
        "meta": _jsonable(ckpt.meta),
        "images": entries,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def load_checkpoint(directory: Union[str, pathlib.Path]) -> CheckpointSet:
    """Load a checkpoint set saved by :func:`save_checkpoint`, verifying
    file digests."""
    directory = pathlib.Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "mana-checkpoint/1":
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format')!r}"
        )
    images = []
    for entry in sorted(manifest["images"], key=lambda e: e["rank"]):
        blob = (directory / entry["file"]).read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry["sha256"]:
            raise CheckpointError(
                f"checkpoint file {entry['file']} is corrupt "
                f"(digest mismatch)"
            )
        images.append(_image_from_bytes(blob))
    return CheckpointSet(images=images, meta=dict(manifest.get("meta", {})))


def describe_checkpoint(directory: Union[str, pathlib.Path]) -> dict:
    """Inspection summary (what ``mana_coordinator --status`` would show)."""
    ckpt = load_checkpoint(directory)
    per_rank = [img.size_bytes for img in ckpt.images]
    return {
        "n_ranks": ckpt.n_ranks,
        "total_modeled_bytes": ckpt.total_bytes,
        "per_rank_modeled_bytes": per_rank,
        "taken_at": ckpt.images[0].taken_at if ckpt.images else None,
        "meta": dict(ckpt.meta),
        "regions_rank0": [
            (d.name, d.size) for d in ckpt.images[0].regions
        ] if ckpt.images else [],
    }


def _jsonable(obj):
    """Best-effort conversion of checkpoint meta to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)
