"""Binary logit-cache files.

Little-endian layout, independent of host byte order:

    offset 0   magic  b"NKDL"
    offset 4   u32    version (= 1)
    offset 8   u32    N (record count)
    offset 12  u32    C (class count)
    offset 16  N records of: u32 sample_id, u32 label, C float32 logits

Total size is exactly 16 + N*(8 + 4*C) bytes, and C is at most 536,870,909,
so that a record's 8 + 4*C bytes fit numpy's C int.  Logits are stored as
float32 (the serialization boundary); reading widens them to float64
exactly, so write-read-write reproduces the file byte for byte.  A write
and a read each move the records through one numpy record array: no
whole-file or whole-matrix copy is made on either side.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, FileFormatError, NumericError
from .ioutil import atomic_write_bytes
from .logitstats import LogitCache, require_cache

MAGIC = b"NKDL"
VERSION = 1
_HEADER = struct.Struct("<4sIII")
_ID_LIMIT = 2**32
_RECORD_LIMIT = 2**31 - 1  # numpy keeps a record's size in bytes in a C int


def _record_dtype(path, c: int) -> np.dtype:
    if 8 + 4 * c > _RECORD_LIMIT:
        raise FileFormatError(f"{path}: class count {c} is too large: a record of "
                              f"{8 + 4 * c} bytes is over {_RECORD_LIMIT}")
    return np.dtype([("sample_id", "<u4"), ("label", "<u4"), ("logits", "<f4", (c,))])


def write_logit_cache(path: Path | str, cache: LogitCache) -> None:
    """Write a cache: nonempty, ids that fit u32 and logits in the float32
    range, each checked in that order before the file is touched; each
    error names ``path``."""
    if not len(require_cache(cache, "write_logit_cache input")):
        raise ContractError(f"{path}: refusing to write an empty logit cache")
    bad_id = (cache.sample_ids < 0) | (cache.sample_ids >= _ID_LIMIT)
    if bad_id.any():
        i = int(bad_id.argmax())
        raise ContractError(
            f"{path}: record {i} has sample_id {cache.sample_ids[i]}, outside [0, 2**32)"
        )
    n, c = cache.logits.shape
    data = np.empty(_HEADER.size + n * (8 + 4 * c), dtype=np.uint8)
    _HEADER.pack_into(data, 0, MAGIC, VERSION, n, c)
    body = np.ndarray(n, dtype=_record_dtype(path, c), buffer=data, offset=_HEADER.size)
    body["sample_id"] = cache.sample_ids
    body["label"] = cache.labels
    with np.errstate(over="ignore"):
        body["logits"] = cache.logits
    overflow = ~np.isfinite(body["logits"]).all(axis=1)
    if overflow.any():
        i = int(overflow.argmax())
        raise NumericError(f"{path}: record {i} has logits outside the float32 range")
    atomic_write_bytes(path, data)


def _read_records(path: Path, fh) -> np.ndarray:
    """``fh``'s records as one record array.  The header and a regular file's
    size are checked first, so a header that claims more than the file holds
    allocates nothing, and a short read returns no uninitialised rows.  A
    pipe or other stream is read to its end, then checked the same way."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise FileFormatError(
            f"{path}: truncated header, expected {_HEADER.size} bytes, got {len(header)}"
        )
    magic, version, n, c = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version} at offset 4")
    if c < 1:
        raise FileFormatError(f"{path}: class count must be positive, got {c}")
    expected = _HEADER.size + n * (8 + 4 * c)
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):  # a pipe's size is known only at its end
        rest = fh.read()
        size = _HEADER.size + len(rest)
        if size == expected:
            return np.frombuffer(rest, dtype=_record_dtype(path, c))
    else:
        size = info.st_size
        if size == expected:
            raw = np.empty(n, dtype=_record_dtype(path, c))
            size = _HEADER.size + fh.readinto(memoryview(raw).cast("B"))
            if size == expected:
                return raw
    raise FileFormatError(
        f"{path}: expected {expected} bytes for {n} records of {c} classes, got {size}"
    )


def read_logit_cache(path: Path | str) -> LogitCache:
    """Read a cache; the first invalid record is named with its byte offset."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            raw = _read_records(path, fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read cache {path}: {exc}") from exc
    try:
        return LogitCache(raw["sample_id"], raw["label"], raw["logits"])
    except ContractError as exc:
        offset = _HEADER.size + exc.row * raw.itemsize
        raise FileFormatError(f"{path}: bad record {exc.row} at offset {offset}: {exc}") from exc
