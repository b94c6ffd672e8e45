"""Per-sample logit statistics and the closed set of temperature rules.

A temperature rule maps one sample's raw logit vector to the positive
temperature (or set of temperatures) used to soften it:

* ``Fixed(T)``            - one global temperature;
* ``MultiSet(t_1..t_k)``  - several global temperatures, predictions averaged;
* ``NormStd(T_norm, eps)``- per-sample ``max(std(z), eps) * T_norm``;
* ``MaxVal(T_v, eps)``    - per-sample ``max(max(z), eps) * T_v``;
* ``Range(T_v, eps)``     - per-sample ``max(max(z) - min(z), eps) * T_v``.

The epsilon floor keeps degenerate samples (constant logits, non-positive
maxima) finite instead of raising.  It makes a constant row soften to
uniform, but not every degenerate row: MaxVal floors a row whose maximum
is not positive whatever its spread, so a non-constant such row is
divided by a temperature near ``epsilon`` and sharpened hard, toward
one-hot.  NormStd and Range floor only rows whose spread is already
below ``epsilon``.  Note that the Range rule is invariant to adding a
constant to all logits while MaxVal is not; both behaviours are
intentional.

A batch of samples travels as one :class:`LogitCache`: id and label
columns plus an (N, C) logit matrix, validated once with array checks.
It is the only type that carries logits across a module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError
from .numcore import (
    as_vector,
    log_softmax_values,
    max_rows,
    maximum,
    min_rows,
    multiply,
    std_rows,
    subtract,
)

DEFAULT_EPSILON = 1e-8
HISTOGRAM_BINS = 50


@dataclass(frozen=True, eq=False)
class LogitCache:
    """N samples' raw class logits as columns, in sample order.

    ``sample_ids`` and ``labels`` are int64 vectors of length N and
    ``logits`` is a float64 (N, C) matrix; the arrays are held as given
    when they already have these dtypes.  Construction checks every row
    at once: logits finite and each label in [0, C).  The first row that
    fails raises a NumericError (non-finite logits) or a ContractError
    (label out of range), with the row's index in the error's ``row``
    attribute.  Row i is ``sample_ids[i]``, ``labels[i]`` and
    ``logits[i]``; ``len`` gives N.
    """

    sample_ids: np.ndarray
    labels: np.ndarray
    logits: np.ndarray

    def __post_init__(self):
        try:
            logits = np.asarray(self.logits, dtype=np.float64)
        except ValueError as exc:  # ragged rows, or entries that are not numbers
            raise DimensionError(f"logits are not an (N, C) float matrix: {exc}") from None
        if logits.ndim != 2:
            raise DimensionError(f"logits must be 2-D, got shape {logits.shape}")
        n, c = logits.shape
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if ids.shape != (n,) or labels.shape != (n,):
            raise DimensionError(
                f"sample_ids {ids.shape} and labels {labels.shape} must both "
                f"have shape ({n},) to match logits {logits.shape}"
            )
        bad = (labels < 0) | (labels >= c) | ~np.isfinite(logits).all(axis=1)
        if bad.any():
            row = int(bad.argmax())
            if np.isfinite(logits[row]).all():
                exc = ContractError(f"label {labels[row]} outside [0, {c})")
            else:
                exc = NumericError("logits contains non-finite entries")
            exc.row = row
            raise exc
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "logits", logits)

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def __len__(self) -> int:
        return self.logits.shape[0]


def require_cache(value, name: str) -> LogitCache:
    """``value`` itself if it is a LogitCache; any other type is a ContractError."""
    if not isinstance(value, LogitCache):
        raise ContractError(f"{name} must be a LogitCache, got {type(value).__name__}")
    return value


def _require_positive(value: float, name: str) -> None:
    if not value > 0.0:
        raise ContractError(f"{name} must be strictly positive, got {value}")
    if value == math.inf:
        raise ContractError(f"{name} must be finite, got {value}")


class _PositiveFields:
    """A rule whose every field must be finite and strictly positive, checked in field order."""

    def __post_init__(self):
        for f in fields(self):
            _require_positive(getattr(self, f.name), f.name)


@dataclass(frozen=True)
class Fixed(_PositiveFields):
    temperature: float


@dataclass(frozen=True)
class MultiSet:
    temperatures: tuple[float, ...]

    def __post_init__(self):
        temps = tuple(float(t) for t in self.temperatures)
        if not temps:
            raise ContractError("MultiSet needs at least one temperature")
        for t in temps:
            _require_positive(t, "temperature")
        object.__setattr__(self, "temperatures", temps)


@dataclass(frozen=True)
class NormStd(_PositiveFields):
    t_norm: float = 2.0
    epsilon: float = DEFAULT_EPSILON


@dataclass(frozen=True)
class MaxVal(_PositiveFields):
    t_v: float = 1.0
    epsilon: float = DEFAULT_EPSILON


@dataclass(frozen=True)
class Range(_PositiveFields):
    t_v: float = 1.0
    epsilon: float = DEFAULT_EPSILON


TemperatureRule = Fixed | MultiSet | NormStd | MaxVal | Range


def sample_std(logits, corrected: bool = True) -> float:
    """Standard deviation of one logit vector.

    Defaults to the corrected (divide by C-1) estimator, the default of
    the tensor-framework ``std`` call this mirrors; pass
    ``corrected=False`` for the population form.  It is ``std_rows`` on a
    one-row matrix, so it equals ``summarize``'s sigma bit for bit.
    """
    z = as_vector(logits, "logits")
    return float(std_rows(z[None, :], corrected)[0, 0])


def row_temperatures(rule: TemperatureRule, logits, corrected: bool = True):
    """Per-sample temperatures ``max(stat(z_i), epsilon) * scale`` as an (N, 1) column.

    ``logits`` is an (N, C) matrix; the statistic is the row std
    (NormStd), maximum (MaxVal) or maximum minus minimum (Range).  When
    ``logits`` is a Tensor the result is taped, so gradient flows through
    the statistic.  The losses, ``teacher_side`` (so ``analyze``) and ``temperature_for``
    use it; ``distill.logit_grad`` recomputes a live statistic beside its backward.
    """
    if isinstance(rule, NormStd):
        stat, scale = std_rows(logits, corrected), rule.t_norm
    elif isinstance(rule, MaxVal):
        stat, scale = max_rows(logits), rule.t_v
    elif isinstance(rule, Range):
        stat, scale = subtract(max_rows(logits), min_rows(logits)), rule.t_v
    else:
        raise ContractError(f"rule {rule!r} has no per-sample temperature")
    return multiply(maximum(stat, rule.epsilon), scale)


def temperature_for(
    rule: TemperatureRule, logits, corrected: bool = True
) -> float | tuple[float, ...]:
    """The softening temperature(s) a rule assigns to one logit vector."""
    z = as_vector(logits, "logits")
    if isinstance(rule, Fixed):
        return rule.temperature
    if isinstance(rule, MultiSet):
        return rule.temperatures
    return float(row_temperatures(rule, z[None, :], corrected)[0, 0])


@dataclass(frozen=True, eq=False)
class LogitSummary:
    """Per-sample statistics plus an aggregate histogram of sigma."""

    sigma: np.ndarray
    mu: np.ndarray
    v_max: np.ndarray
    v_min: np.ndarray
    entropy: np.ndarray
    sigma_hist_counts: np.ndarray
    sigma_hist_edges: np.ndarray


def _row_stats(z: np.ndarray):
    """``summarize``'s per-row columns of ``z`` (sigma, mu, v_max, v_min,
    entropy) and its T=1 probabilities, from one log-softmax and one exp.
    Every value is row by row: a block's rows of them equal the block's own."""
    log_p = log_softmax_values(z)
    p = np.exp(log_p)
    entropy = -(p * log_p).sum(axis=1)
    return (std_rows(z)[:, 0], z.mean(axis=1), z.max(axis=1), z.min(axis=1), entropy), p


def _summary(sigma, mu, v_max, v_min, entropy) -> LogitSummary:
    """The per-row columns with the sigma histogram added.  A sigma that is not
    finite (a finite row whose spread overflows float64) is a NumericError."""
    bad = ~np.isfinite(sigma)
    if bad.any():
        row = int(bad.argmax())
        raise NumericError(f"row {row} has a logit std that is not finite: {sigma[row]}")
    counts, edges = np.histogram(sigma, bins=HISTOGRAM_BINS, range=(sigma.min(), sigma.max()))
    return LogitSummary(sigma, mu, v_max, v_min, entropy, counts, edges)


def summarize(cache: LogitCache) -> LogitSummary:
    """Summarize a cache's rows.

    Sigma is the corrected (divide by C-1) row std.  Entropy is that of
    the T=1 softmax, in nats.  The sigma histogram uses ``HISTOGRAM_BINS``
    uniform bins over [min, max] of the observed sigmas (numpy widens a
    degenerate range by 0.5 on each side).
    """
    if not len(require_cache(cache, "summarize input")):
        raise ContractError("summarize needs at least one record")
    return _summary(*_row_stats(cache.logits)[0])


# every rule but MultiSet, whose parameters are one comma-separated field
_RULES = {"fixed": Fixed, "normstd": NormStd, "maxval": MaxVal, "range": Range}


def parse_rule(text: str) -> TemperatureRule:
    """Parse a rule spec like ``fixed:4``, ``multiset:1,2,4``, ``normstd:2.0``.

    NormStd/MaxVal/Range accept an optional trailing epsilon, e.g.
    ``normstd:2.0:1e-6``.
    """
    name, sep, rest = text.strip().partition(":")
    name = name.lower()
    try:
        if name == "multiset":
            return MultiSet(tuple(float(p) for p in rest.split(",")))
        if name == "fixed":
            return Fixed(float(rest))
        if name in _RULES:
            parts = rest.split(":") if sep else []
            scale = (float(parts[0]),) if parts and parts[0] else ()
            eps = float(parts[1]) if len(parts) > 1 else DEFAULT_EPSILON
            return _RULES[name](*scale, epsilon=eps)
    except (ValueError, ContractError) as exc:
        raise ConfigError(f"bad temperature rule {text!r}: {exc}") from exc
    raise ConfigError(f"unknown temperature rule {text!r}")


def rule_label(rule: TemperatureRule | None) -> tuple[str, str]:
    """(name, params) pair used in CSV rows; round-trips through parse_rule."""
    if rule is None:
        return "none", ""
    if isinstance(rule, MultiSet):
        return "multiset", ",".join(repr(t) for t in rule.temperatures)
    for name, cls in _RULES.items():
        if isinstance(rule, cls):
            return name, ":".join(repr(getattr(rule, f.name)) for f in fields(rule))
    raise ContractError(f"unknown temperature rule {rule!r}")
