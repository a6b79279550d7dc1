"""Deterministic named-tensor archive.

Checkpoints must be byte-identical across runs with the same config and
seed, which rules out zip-based containers (they embed timestamps).  The
format here is a magic line, a JSON header describing each tensor (name,
dtype, shape, byte length) plus free-form metadata, then the raw
little-endian buffers concatenated in header order.

`save_tensors` writes `<path>.tmp` and moves it onto `path` with
`os.replace`, so a killed process leaves the previous archive whole, never
a truncated one.  Nothing is fsynced: a power loss is not covered.

Neither side copies a buffer.  `save_tensors` hands each array to the file
as it is (a little-endian, C-ordered array is its own buffer), and
`load_tensors` reads each buffer straight into the array it returns.  A
caller may load only the tensors whose names start with given prefixes: the
others are seeked past, unread, but every header entry, every buffer's
extent and the file's total length are checked all the same.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

MAGIC = b"NTAR1\n"


class ArchiveError(Exception):
    pass


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write `tensors` (insertion order preserved) and `meta` to `path`
    atomically; a write that raises removes its temporary file."""
    arrays = []
    for arr in tensors.values():
        arr = np.asarray(arr, order="C")  # ascontiguousarray would make 0-d arrays 1-d
        arrays.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False))
    entries = [
        {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "nbytes": arr.nbytes}
        for name, arr in zip(tensors, arrays)
    ]
    header = json.dumps({"tensors": entries, "meta": meta or {}}, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in arrays:
                fh.write(arr)  # the array's own buffer, 0-d and 0-size ones included
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_tensors(path, prefixes: tuple[str, ...] | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive back; returns (tensors, meta).  With `prefixes`, only
    the tensors whose names start with one of them are read; the others are
    skipped, after the same checks.  A header that names a tensor twice, a
    buffer past the end of the file, or bytes after the last buffer, is an
    ArchiveError."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArchiveError(f"{path}: not a tensor archive")
        size = fh.read(8)
        if len(size) != 8:
            raise ArchiveError(f"{path}: truncated header length")
        header_len = int.from_bytes(size, "little")
        file_size = os.fstat(fh.fileno()).st_size
        if header_len > file_size - fh.tell():  # checked before read() allocates header_len
            raise ArchiveError(f"{path}: truncated header")
        blob = fh.read(header_len)
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
        names: set[str] = set()
        for index, entry in enumerate(header["tensors"]):
            name, dtype, shape, nbytes = _layout(path, index, entry)
            if name in names:
                raise ArchiveError(f"{path}: tensor '{name}' is named twice in the header")
            names.add(name)
            if nbytes > file_size - fh.tell():  # checked before the buffer is allocated
                raise ArchiveError(f"{path}: truncated buffer for '{name}'")
            if prefixes is None or name.startswith(prefixes):
                arr = np.empty(shape, dtype=dtype)
                if fh.readinto(arr) != nbytes:
                    raise ArchiveError(f"{path}: truncated buffer for '{name}'")
                tensors[name] = arr
            else:
                fh.seek(nbytes, os.SEEK_CUR)
        if fh.tell() != file_size:
            raise ArchiveError(f"{path}: {file_size - fh.tell()} bytes after the last tensor buffer")
    return tensors, header["meta"]


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # json gives exact types; a bool is not an int here


def _layout(path: Path, index: int, entry) -> tuple[str, np.dtype, list[int], int]:
    """A header entry's name, dtype, shape and byte length.  An ArchiveError
    names the tensor when a field is missing or of the wrong type, when the
    dtype is not a fixed-size numeric or bool type, or when the byte length
    is not the shape's element count times the item size."""
    name = entry.get("name") if isinstance(entry, dict) else None
    if not isinstance(name, str):
        raise ArchiveError(f"{path}: tensor entry {index} has no 'name' string")
    where = f"{path}: tensor '{name}'"
    dtype, shape, nbytes = entry.get("dtype"), entry.get("shape"), entry.get("nbytes")
    if not isinstance(shape, list) or not all(map(_is_count, shape)):
        raise ArchiveError(f"{where}: 'shape' is not a list of non-negative integers")
    if not _is_count(nbytes):
        raise ArchiveError(f"{where}: 'nbytes' is not a non-negative integer")
    try:
        dtype = np.dtype(dtype) if isinstance(dtype, str) else None  # np.dtype(None) would be float64
    except (TypeError, ValueError, SyntaxError):  # SyntaxError: numpy parses "f8,(2" as Python
        dtype = None
    if dtype is None or dtype.kind not in "biufc":
        raise ArchiveError(f"{where}: 'dtype' {entry.get('dtype')!r} is not a numeric or bool type")
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise ArchiveError(f"{where}: 'nbytes' {nbytes} is not {math.prod(shape)} elements of {dtype.itemsize} bytes")
    return name, dtype, shape, nbytes
