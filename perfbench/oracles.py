"""Independent float64 reference computations for the benchmark's checks.

Nothing here imports normkd: each formula is written again from the
definitions in the README, so a check compares the library against a
second implementation rather than against itself.  The checks use
tolerances, never bitwise equality, so a change that reorders
floating-point work still passes.
"""

from __future__ import annotations

import struct

import numpy as np

EPSILON = 1e-8

# relative tolerance between a library loss value and the formula below
VALUE_RTOL = 1e-9
# the repository's own finite-difference bound (normkd grad-check)
GRAD_RTOL = 1e-4


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _log_mean_softmax(z: np.ndarray, temps) -> np.ndarray:
    """log of mean_t softmax(z / t), by logsumexp over the temperatures."""
    stacked = np.stack([log_softmax(z / t) for t in temps])
    top = stacked.max(axis=0)
    return top + np.log(np.exp(stacked - top).sum(axis=0)) - np.log(len(temps))


def _row_stat(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "normstd":
        return z.std(axis=1, ddof=1, keepdims=True)
    if kind == "maxval":
        return z.max(axis=1, keepdims=True)
    if kind == "range":
        return z.max(axis=1, keepdims=True) - z.min(axis=1, keepdims=True)
    raise ValueError(f"no per-sample statistic for {kind!r}")


def distill_value(
    kind: str, scale, z_s: np.ndarray, z_t: np.ndarray, labels: np.ndarray,
    alpha: float, beta: float,
) -> float:
    """alpha * CE(z_s, labels) + beta * mean_i w_i * KL(p_t,i || p_s,i).

    ``kind`` is fixed (scale = T), multiset (scale = the temperature
    set), or one of the per-sample rules (scale = T_norm or T_v).
    """
    ce = -log_softmax(z_s)[np.arange(z_s.shape[0]), labels].mean()
    if kind == "fixed":
        lp_t, lp_s, weight = log_softmax(z_t / scale), log_softmax(z_s / scale), scale**2
    elif kind == "multiset":
        lp_t, lp_s = _log_mean_softmax(z_t, scale), _log_mean_softmax(z_s, scale)
        weight = max(scale) ** 2
    else:
        t_t = np.maximum(_row_stat(z_t, kind), EPSILON) * scale
        t_s = np.maximum(_row_stat(z_s, kind), EPSILON) * scale
        lp_t, lp_s, weight = log_softmax(z_t / t_t), log_softmax(z_s / t_s), t_t[:, 0] ** 2
    per_row = (np.exp(lp_t) * (lp_t - lp_s)).sum(axis=1)
    return float(alpha * ce + beta * (weight * per_row).mean())


def smooth_direction(z: np.ndarray, direction: np.ndarray, step: float) -> np.ndarray:
    """Zero ``direction`` on rows whose max or min could switch index
    within +-step, so a central difference stays on one smooth branch
    of the max/min statistics (the repository's grad-check does the same).
    """
    ordered = np.sort(z, axis=1)
    gap = np.minimum(ordered[:, -1] - ordered[:, -2], ordered[:, 1] - ordered[:, 0])
    reach = 4.0 * step * np.abs(direction).max(axis=1)
    return np.where((gap > reach)[:, None], direction, 0.0)


def directional_fd(fn, z: np.ndarray, direction: np.ndarray, step: float) -> float:
    """Central difference of fn along ``direction``."""
    return (fn(z + step * direction) - fn(z - step * direction)) / (2.0 * step)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(1e-12, abs(reference))


# ---------------------------------------------------------------------------
# NKDL logit caches, parsed without the library

_HEADER = struct.Struct("<4sIII")


def read_nkdl(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Labels and float32 logits (a view of ``data``) of an NKDL cache."""
    magic, version, n, c = _HEADER.unpack_from(data)
    if magic != b"NKDL" or version != 1 or len(data) != _HEADER.size + n * (8 + 4 * c):
        raise ValueError("not a version-1 NKDL cache")
    rec = np.dtype([("id", "<u4"), ("label", "<u4"), ("logits", "<f4", (c,))])
    raw = np.frombuffer(data, dtype=rec, count=n, offset=_HEADER.size)
    return raw["label"].astype(np.int64), raw["logits"]


def argmax_hits(data: bytes) -> tuple[int, int]:
    """(rows whose argmax is the label, rows) of an NKDL cache."""
    labels, logits = read_nkdl(data)
    return int((logits.argmax(axis=1) == labels).sum()), labels.size


def analyze_frobenius(
    teacher: bytes, student: bytes, t_norm: float = 2.0, chunk: int = 8192
) -> tuple[float, float]:
    """Frobenius norms of the raw and normalized class-difference matrices.

    Entry [a, b] is |mean over rows labelled a of (p_s[b] - p_t[b])|.
    Rows are taken in chunks so the oracle's memory stays far below the
    library's, which peak_rss_mb measures.
    """
    labels, z_t = read_nkdl(teacher)
    _, z_s = read_nkdl(student)
    c = z_t.shape[1]
    sums = {"raw": np.zeros((c, c)), "normalized": np.zeros((c, c))}

    def probs(z, normalized):
        if normalized:
            z = z / (np.maximum(_row_stat(z, "normstd"), EPSILON) * t_norm)
        return np.exp(log_softmax(z))

    for lo in range(0, labels.size, chunk):
        one_hot = (labels[lo:lo + chunk, None] == np.arange(c)).astype(np.float64)
        zt = z_t[lo:lo + chunk].astype(np.float64)
        zs = z_s[lo:lo + chunk].astype(np.float64)
        for kind in sums:
            normalized = kind == "normalized"
            sums[kind] += one_hot.T @ (probs(zs, normalized) - probs(zt, normalized))
    counts = np.maximum(np.bincount(labels, minlength=c), 1)[:, None]
    return tuple(float(np.sqrt(((sums[k] / counts) ** 2).sum())) for k in ("raw", "normalized"))
