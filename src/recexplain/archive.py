"""Deterministic named-tensor archive.

Checkpoints must be byte-identical across runs with the same config and
seed, which rules out zip-based containers (they embed timestamps).  The
format here is a magic line, a JSON header describing each tensor (name,
dtype, shape, byte length) plus free-form metadata, then the raw
little-endian buffers concatenated in header order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MAGIC = b"NTAR1\n"


class ArchiveError(Exception):
    pass


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write `tensors` (insertion order preserved) and `meta` to `path`."""
    entries = []
    buffers = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, order="C")  # ascontiguousarray would make 0-d arrays 1-d
        buf = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "nbytes": len(buf)}
        )
        buffers.append(buf)
    header = json.dumps({"tensors": entries, "meta": meta or {}}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for buf in buffers:
            fh.write(buf)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive back; returns (tensors, meta)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArchiveError(f"{path}: not a tensor archive")
        size = fh.read(8)
        if len(size) != 8:
            raise ArchiveError(f"{path}: truncated header length")
        header_len = int.from_bytes(size, "little")
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ArchiveError(f"{path}: truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArchiveError(f"{path}: header is not UTF-8 JSON ({exc})") from exc
        if not (
            isinstance(header, dict)
            and isinstance(header.get("tensors"), list)
            and isinstance(header.get("meta"), dict)
        ):
            raise ArchiveError(f"{path}: header has no 'tensors' list and 'meta' object")
        tensors: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            raw = fh.read(entry["nbytes"])
            if len(raw) != entry["nbytes"]:
                raise ArchiveError(f"{path}: truncated buffer for '{entry['name']}'")
            arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])
            tensors[entry["name"]] = arr.copy()
    return tensors, header["meta"]
