"""Binary logit-cache files.

Little-endian layout, independent of host byte order:

    offset 0   magic  b"NKDL"
    offset 4   u32    version (= 1)
    offset 8   u32    N (record count)
    offset 12  u32    C (class count)
    offset 16  N records of: u32 sample_id, u32 label, C float32 logits

Total size is exactly 16 + N*(8 + 4*C) bytes.  Logits are stored as
float32 (the serialization boundary); reading widens them to float64
exactly, so write-read-write reproduces the file byte for byte.
"""

from __future__ import annotations

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


def _record_dtype(c: int) -> np.dtype:
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
    with np.errstate(over="ignore"):
        narrowed = cache.logits.astype("<f4")
    overflow = ~np.isfinite(narrowed).all(axis=1)
    if overflow.any():
        i = int(overflow.argmax())
        raise NumericError(f"{path}: record {i} has logits outside the float32 range")
    n, c = narrowed.shape
    body = np.empty(n, dtype=_record_dtype(c))
    body["sample_id"] = cache.sample_ids
    body["label"] = cache.labels
    body["logits"] = narrowed
    atomic_write_bytes(path, _HEADER.pack(MAGIC, VERSION, n, c) + body.tobytes())


def read_logit_cache(path: Path | str) -> LogitCache:
    """Read a cache; the first invalid record is named with its byte offset."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read cache {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise FileFormatError(
            f"{path}: truncated header, expected {_HEADER.size} bytes, got {len(data)}"
        )
    magic, version, n, c = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version} at offset 4")
    if c < 1:
        raise FileFormatError(f"{path}: class count must be positive, got {c}")
    expected = _HEADER.size + n * (8 + 4 * c)
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes for {n} records of {c} classes, "
            f"got {len(data)}"
        )
    raw = np.frombuffer(data, dtype=_record_dtype(c), count=n, offset=_HEADER.size)
    try:
        return LogitCache(raw["sample_id"], raw["label"], raw["logits"])
    except ContractError as exc:
        offset = _HEADER.size + exc.row * (8 + 4 * c)
        raise FileFormatError(f"{path}: bad record {exc.row} at offset {offset}: {exc}") from exc
