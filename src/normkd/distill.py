"""Differentiable distillation objectives over teacher/student logits.

All losses share these conventions:

* The divergence direction is KL(teacher || student): the teacher's
  softened prediction is the reference distribution and only the student
  side carries gradient.  Written argument orders elsewhere are notation;
  this module's ``kl_divergence(p_teacher, p_student)`` order is the
  authoritative one.
* Batch reduction is: sum over classes per sample, multiply by that
  sample's squared-temperature compensation weight, then mean over the
  batch.
* Cross entropy is always computed at temperature 1 on the raw student
  logits; no temperature rule touches it.
* Softmax and log-softmax always go through max subtraction, and KL is
  evaluated from log-probabilities.
* The student argument of every loss may be a plain (N, C) array or a
  taped :class:`~normkd.numcore.Tensor`; teacher logits are always
  treated as constants.

Every loss runs through one dispatch.  ``_softened`` turns a temperature
rule into one side's log-probabilities and temperature: the global T for
Fixed, the averaged prediction and the largest T for MultiSet, and the
(N, 1) column of ``logitstats.row_temperatures`` for the per-sample
rules.  ``teacher_side`` applies it to the teacher (``train`` once per run),
``_rule_kld`` to the student, weighting each sample's divergence by its
squared teacher temperature.  ``kd_loss``, ``multi_temp_kld``,
``normkd_loss`` and ``distill_loss`` are thin wrappers over the two.
No training step tapes them: ``logit_grad`` replays the backward of
``side_loss`` taped at the student logits on plain arrays, node by node,
and gives the same gradient bytes.  ``gradient_check_suite`` audits that
replay on every loss, ``combine`` included, against central differences.

The per-sample losses floor each sample's statistic at ``epsilon`` before
scaling, so no row divides by zero.  That makes a constant row soften to
uniform, but not every degenerate row: under MaxVal a non-constant row
whose maximum is not positive is divided by a temperature near
``epsilon`` and sharpened hard, toward one-hot.  The student-side
statistic (its standard deviation, maximum, or range) is differentiated
through by default; pass ``detach_student_stat=True`` to treat it as a
constant for ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError
from .logitstats import (
    Fixed,
    MaxVal,
    MultiSet,
    NormStd,
    Range,
    TemperatureRule,
    row_temperatures,
    temperature_for,
)
from .numcore import (
    Tensor,
    _central_probes,
    _fd_error,
    _log_softmax_grad,
    _pick_grad,
    _std_grad,
    add,
    as_matrix,
    as_vector,
    divide,
    exp,
    gather_rows,
    log,
    log_softmax_rows,
    log_softmax_values,
    mean_all,
    multiply,
    std_rows,
    subtract,
    sum_rows,
    value_of,
)

DEFAULT_T_NORM = 2.0
DEFAULT_ALPHA = 0.1
DEFAULT_BETA = 0.9
GRAD_CHECK_LOSSES = ("kd", "multi_temp", "normkd", "maxval", "range", "combine")
GRAD_CHECK_TOLERANCE = 1e-4
GRAD_CHECK_SEED = 20250809


@dataclass(eq=False)
class LossReport:
    """Decomposed loss value: total = alpha * ce_part + beta * kld_part.

    ``per_sample_weight`` holds the squared-temperature compensation
    weight of each sample (constant T**2 for fixed-temperature losses).
    ``node`` is the taped scalar when the student side was a Tensor, for
    backpropagation; it is None for plain-array calls.
    """

    total: float
    ce_part: float
    kld_part: float
    per_sample_weight: np.ndarray
    node: Tensor | None = None


def soften(logits, temperature: float) -> np.ndarray:
    """Temperature-softened prediction exp(z_i/T) / sum_j exp(z_j/T)."""
    if not temperature > 0.0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    z = as_vector(logits, "logits")
    return np.exp(log_softmax_values(z / float(temperature)))


def norm_soften(logits, t_norm: float = DEFAULT_T_NORM) -> np.ndarray:
    """Soften with the sample's own scale: T = max(std(z), epsilon) * t_norm.

    ``NormStd`` checks ``t_norm`` and holds epsilon; the population std is
    ``temperature_for``'s ``corrected``.  A shift of z cancels, as in softmax.
    """
    z = as_vector(logits, "logits")
    return soften(z, temperature_for(NormStd(t_norm), z))


def kl_divergence(p_teacher, p_student) -> float:
    """KL(p_teacher || p_student) in nats, with the 0*ln(0) = 0 convention.

    Both arguments must lie on the probability simplex.  A zero student
    probability where the teacher is positive is rejected; softened
    outputs of this module are strictly positive, so this only affects
    callers passing raw distributions.  A negative rounding residue on
    the order of 1e-16 is clamped to zero.
    """
    p = as_vector(p_teacher, "p_teacher")
    q = as_vector(p_student, "p_student")
    if p.shape != q.shape:
        raise DimensionError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    for name, d in (("p_teacher", p), ("p_student", q)):
        if d.min() < 0.0 or d.max() > 1.0 + 1e-12 or abs(d.sum() - 1.0) > 1e-9:
            raise ContractError(f"{name} is not a probability distribution: {d}")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        raise NumericError("p_student has a zero where p_teacher is positive")
    kl = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
    return max(kl, 0.0)


def multi_temp_prediction(logits, temps) -> np.ndarray:
    """Arithmetic mean of the predictions softened at each temperature."""
    temps = MultiSet(temps).temperatures
    z = as_vector(logits, "logits")
    acc = soften(z, temps[0])
    for t in temps[1:]:
        acc = acc + soften(z, t)
    return acc / float(len(temps))


def _student_matrix(student_logits) -> np.ndarray:
    z_s = value_of(student_logits)
    if z_s.ndim != 2:
        raise DimensionError(f"student logits must be (N, C), got shape {z_s.shape}")
    return z_s


def _check_student(student_logits) -> np.ndarray:
    z_s = _student_matrix(student_logits)
    if not z_s.shape[0]:
        raise DimensionError(f"student logits have no rows, shape {z_s.shape}")
    if not np.isfinite(z_s).all():
        raise NumericError("student logits contain non-finite entries")
    return z_s


def _check_pair(student_logits, teacher_logits) -> tuple[np.ndarray, np.ndarray]:
    z_s = _check_student(student_logits)
    z_t = as_matrix(teacher_logits, "teacher logits")
    if z_s.shape != z_t.shape:
        raise DimensionError(
            f"student logits shape {z_s.shape} != teacher logits shape {z_t.shape}"
        )
    return z_s, z_t


def _as_labels(labels, n: int, c: int) -> np.ndarray:
    if not n:
        raise DimensionError(f"student logits have no rows, shape {(n, c)}")
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise DimensionError(f"labels shape {arr.shape} does not match batch size {n}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ContractError("labels must be integers")
        arr = cast
    if arr.size and (arr.min() < 0 or arr.max() >= c):
        raise ContractError(f"labels must lie in [0, {c})")
    return arr.astype(np.int64)


def cross_entropy(student_logits, labels):
    """Mean over the batch of -log softmax(z)[label], at temperature 1."""
    z_s = _student_matrix(student_logits)
    labels = _as_labels(labels, z_s.shape[0], z_s.shape[1])
    log_p = log_softmax_rows(student_logits)
    return mean_all(multiply(gather_rows(log_p, labels), -1.0))


def _log_mean_prediction(logits, temps):
    """Log of the temperature-averaged prediction, row-wise, stabilized.

    Computed as logsumexp over the per-temperature log-softmax values
    minus log(k); for a single temperature this reduces bitwise to the
    plain log-softmax, which keeps the k=1 case exactly equal to the
    fixed-temperature path.
    """
    log_ps = [log_softmax_rows(divide(logits, t)) for t in temps]
    shift = value_of(log_ps[0])
    for lp in log_ps[1:]:
        shift = np.maximum(shift, value_of(lp))
    total = exp(subtract(log_ps[0], shift))
    for lp in log_ps[1:]:
        total = add(total, exp(subtract(lp, shift)))
    return add(subtract(log(total), math.log(len(temps))), shift)


def _report(total, ce, kld, weights, n) -> LossReport:
    return LossReport(
        total=float(value_of(total)),
        ce_part=float(value_of(ce)),
        kld_part=float(value_of(kld)),
        per_sample_weight=np.full((n, 1), weights, dtype=np.float64).reshape(-1),
        node=total if isinstance(total, Tensor) else None,
    )


def _softened(rule: TemperatureRule, logits, stat_src, corrected: bool):
    """One side's log-probabilities under ``rule``, and its temperature.

    The temperature is the rule's T for Fixed, the largest of the set for
    MultiSet (which averages the predictions over the set), and the
    per-sample column ``row_temperatures(rule, stat_src)`` otherwise.
    """
    if isinstance(rule, MultiSet):
        return _log_mean_prediction(logits, rule.temperatures), max(rule.temperatures)
    if isinstance(rule, Fixed):
        t = rule.temperature
    else:
        t = row_temperatures(rule, stat_src, corrected)
    return log_softmax_rows(divide(logits, t)), t


def teacher_side(rule: TemperatureRule, z_t, corrected: bool = True):
    """``(lp_t, p_t, weights)``: the teacher's softened log-probabilities,
    probabilities and T_t**2 (a float for Fixed and MultiSet, else an (N, 1)
    column).  All are row by row: a batch's rows of them equal the batch's own."""
    lp_t, t_t = _softened(rule, z_t, z_t, corrected)
    return lp_t, np.exp(lp_t), t_t * t_t


def _rule_kld(rule: TemperatureRule, student_logits, teacher, corrected: bool, detach: bool):
    """KL(teacher || student) under ``rule``, each sample weighted by T_t**2.

    ``teacher`` is the ``teacher_side`` triple.  Returns the (taped, for a
    Tensor student) scalar and the weights; ``detach`` makes the student's
    statistic a constant.
    """
    lp_t, p_t, weights = teacher
    stat_src = value_of(student_logits) if detach else student_logits
    lp_s, _ = _softened(rule, student_logits, stat_src, corrected)
    per_sample = sum_rows(multiply(p_t, subtract(lp_t, lp_s)))
    return mean_all(multiply(per_sample, weights)), weights


def kd_loss(
    student_logits,
    teacher_logits,
    labels,
    temperature: float,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> LossReport:
    """Fixed-temperature distillation: alpha*CE + beta*T^2*KL(teacher||student)."""
    return distill_loss(Fixed(temperature), student_logits, teacher_logits, labels, alpha, beta)


def multi_temp_kld(student_logits, teacher_logits, temps):
    """Averaged-prediction distillation: T_mul^2 * KL(mean_t p_t || mean_t p_s).

    The compensation factor T_mul is the maximum of the temperature set.
    Returns a float for plain-array students and a taped scalar Tensor
    when the student side is a Tensor.
    """
    rule = MultiSet(temps)
    _, z_t = _check_pair(student_logits, teacher_logits)
    kld, _ = _rule_kld(rule, student_logits, teacher_side(rule, z_t), corrected=True, detach=False)
    return kld if isinstance(kld, Tensor) else float(kld)


def normkd_loss(student_logits, teacher_logits, t_norm: float = DEFAULT_T_NORM) -> LossReport:
    """Per-sample normalized-temperature distillation.

    Sample i is softened at max(std_i, epsilon) * t_norm on each side (its
    own std) and weighted by the squared teacher temperature; ce_part is 0
    and total equals kld_part.  Epsilon is a ``NormStd`` field, and the std
    estimator and a detached student std are ``distill_loss``'s.
    """
    rule = NormStd(t_norm)
    z_s, z_t = _check_pair(student_logits, teacher_logits)
    kld, weights = _rule_kld(
        rule, student_logits, teacher_side(rule, z_t), corrected=True, detach=False
    )
    return _report(kld, 0.0, kld, weights, z_s.shape[0])


def distill_loss(
    rule: TemperatureRule,
    student_logits,
    teacher_logits,
    labels,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    corrected: bool = True,
    detach_student_stat: bool = False,
) -> LossReport:
    """Dispatch a temperature rule to its loss: alpha*CE + beta*KLD(rule)."""
    z_s, z_t = _check_pair(student_logits, teacher_logits)
    _as_labels(labels, *z_s.shape)  # cross entropy's label error precedes the teacher side's
    return side_loss(rule, student_logits, teacher_side(rule, z_t, corrected), labels, alpha, beta,
                     corrected, detach_student_stat)


def side_loss(rule, student_logits, teacher, labels, alpha, beta, corrected, detach) -> LossReport:
    """``distill_loss`` of a student checked as it checks one, on a ``teacher_side``."""
    ce = cross_entropy(student_logits, labels)
    kld, weights = _rule_kld(rule, student_logits, teacher, corrected, detach)
    total = add(multiply(ce, alpha), multiply(kld, beta))
    return _report(total, ce, kld, weights, teacher[0].shape[0])


def logit_grad(rule, z_s, teacher, labels, alpha, beta, corrected, detach) -> np.ndarray:
    """d(total)/d(z_s) of ``side_loss`` on a plain (N, C) ``z_s``, bit-identical
    to taping it with ``z_s`` as a parentless node and calling ``Tape.backward``.

    ``teacher`` None means ``alpha * cross_entropy`` alone, whose student is
    not checked; otherwise the student is checked as ``side_loss``'s callers
    check it, before the labels.  The composite's own forward expressions
    run, then each node's backward rule in reverse creation order.  A node's
    gradient is its first contribution plus 0.0, as on the tape; the only
    node with several, ``z_s``, adds the later ones in place.  A gradient a
    node passes on unchanged is already ``g + 0.0`` and is not added again,
    and one that is the same in every entry, a mean's or a constant
    weight's, stays a float until it meets an array.
    """
    return _tape_sum(_logit_parts(rule, z_s, teacher, labels, alpha, beta, corrected, detach))


def _tape_sum(parts) -> np.ndarray:
    """A node's gradient as the tape sums its contributions: the first plus 0.0, then ``+=``."""
    grad = np.add(parts[0], 0.0)
    for part in parts[1:]:
        grad += part
    return grad


def _logit_parts(rule, z_s, teacher, labels, alpha, beta, corrected, detach) -> list[np.ndarray]:
    """``logit_grad``'s contributions to the gradient of ``z_s``, in the tape's order."""
    if teacher is not None:
        _check_student(z_s)
    n, c = z_s.shape
    labels = _as_labels(labels, n, c)
    parts = [] if teacher is None else _kld_logit_parts(rule, z_s, teacher, beta, corrected, detach)
    # alpha * mean(gather(log_softmax(z_s)) * -1.0), back to the log-softmax
    picked = _pick_grad(((1.0 * alpha + 0.0) * (1.0 / n) + 0.0) * -1.0 + 0.0, z_s, labels[:, None])
    parts.append(_log_softmax_back(picked, log_softmax_values(z_s)))
    return parts


def _stack_totals(rule, stack, side, labels, alpha, beta) -> np.ndarray:
    """``side_loss(rule, z, side, labels, alpha, beta, True, False).total`` of every
    (N, C) matrix ``z`` of an (S, N, C) stack, bit for bit, in one plain-array pass."""
    lp_t, p_t, weights = side
    n, rows = len(labels), stack.reshape(-1, stack.shape[-1])
    lp_s = _softened(rule, rows, rows, True)[0].reshape(stack.shape)
    # label picks stored row by row, reduced as ``mean_all`` reduces an (N, 1) column
    picked = np.take_along_axis(log_softmax_values(stack), labels[None, :, None], 2)
    ce = np.add.reduce(picked * -1.0, axis=(1, 2)) / n
    per_sample = (p_t * (lp_t - lp_s)).sum(axis=2, keepdims=True)
    kld = np.add.reduce(per_sample * weights, axis=(1, 2)) / n
    return ce * alpha + kld * beta


def _log_softmax_back(g, lp) -> np.ndarray:
    """``_log_softmax_grad`` as the tape stores it, its first contribution plus 0.0."""
    return np.add(_log_softmax_grad(g, lp), 0.0)


def _kld_logit_parts(rule, z, teacher, beta, corrected, detach) -> list[np.ndarray]:
    """The KL term's contributions to ``logit_grad``, in the order the tape adds them."""
    lp_t, p_t, weights = teacher
    # beta * mean(weights * sum_rows(p_t * (lp_t - lp_s))), back to lp_s
    g = np.add(((1.0 * beta + 0.0) * (1.0 / z.shape[0]) + 0.0) * weights, 0.0)
    g = np.add(-np.add(g * p_t, 0.0), 0.0)
    if isinstance(rule, MultiSet):  # _log_mean_prediction, back to each z / t
        temps = rule.temperatures
        lps = [log_softmax_values(z / t) for t in temps]
        shift = lps[0]
        for lp in lps[1:]:
            shift = np.maximum(shift, lp)
        exps = [np.exp(lp - shift) for lp in lps]
        total = exps[0]
        for e in exps[1:]:
            total = total + e
        g = np.add(g / total, 0.0)  # through + shift, - log(k) and log
        return [_log_softmax_back(np.add(g * e, 0.0), lp) / t
                for t, lp, e in reversed(list(zip(temps, lps, exps)))]
    if isinstance(rule, Fixed) or detach:
        t = rule.temperature if isinstance(rule, Fixed) else row_temperatures(rule, z, corrected)
        return [_log_softmax_back(g, log_softmax_values(z / t)) / t]
    # the live statistic: std_rows, max_rows, or max_rows minus min_rows
    if isinstance(rule, NormStd):
        stat, scale = std_rows(z, corrected), rule.t_norm
    else:
        rows, hi = np.arange(z.shape[0])[:, None], z.argmax(axis=1)[:, None]
        stat, scale = z[rows, hi], rule.t_v
        if not isinstance(rule, MaxVal):
            lo = z.argmin(axis=1)[:, None]
            stat = stat - z[rows, lo]
    t = np.maximum(stat, rule.epsilon) * scale
    g = _log_softmax_back(g, log_softmax_values(z / t))
    # t = maximum(stat, epsilon) * scale, back to the statistic
    g_t = np.add((-g * z / (t * t)).sum(axis=1, keepdims=True), 0.0)
    g_stat = np.add(np.add(g_t * scale, 0.0) * (stat > rule.epsilon), 0.0)
    if isinstance(rule, NormStd):
        return [g / t, _std_grad(g_stat, z - z.mean(axis=1, keepdims=True), stat, corrected)]
    if isinstance(rule, MaxVal):
        return [g / t, _pick_grad(g_stat, z, hi)]
    # the min's pick is recorded after the max's, so it runs first
    return [g / t, _pick_grad(np.add(-g_stat, 0.0), z, lo), _pick_grad(g_stat, z, hi)]


def combine(terms):
    """Weighted sum of loss terms: sum_i weight_i * term_i.

    Terms may be floats, arrays, or taped Tensors; gradients propagate
    through every Tensor term.  This is the hook for stacking these
    losses with external logit objectives.
    """
    terms = list(terms)
    if not terms:
        raise ContractError("combine needs at least one term")
    total = None
    for weight, term in terms:
        piece = multiply(term, float(weight))
        total = piece if total is None else add(total, piece)
    return total if isinstance(total, Tensor) else float(value_of(total))


# ---------------------------------------------------------------------------
# Finite-difference audit of every loss


def _loss_instance(name: str, rng: np.random.Generator):
    """One random audit instance: ``(z_s, labels, terms)``.

    The loss is the weighted sum of its terms, each ``(weight, rule,
    teacher_side(rule, z_t), alpha, beta)`` standing for ``side_loss`` on
    that side; a KL-only loss (``multi_temp_kld``, ``normkd_loss``) is its
    rule at alpha 0 and beta 1, and ``combine`` weighs two terms.  The
    teacher side is built once per instance, not once per probe.

    The MaxVal instances shift all logits upward so the student's row
    maximum stays well above the epsilon floor: at the floor the
    temperature collapses to ~1e-8 and the loss, though finite and
    correctly differentiated, is too ill-conditioned for a 1e-5
    finite-difference probe.  Derivatives are checked on the smooth
    branch, like every other kink in the suite.
    """
    n = int(rng.integers(2, 5))
    c = int(rng.integers(3, 7))
    shift = 2.0 if name == "maxval" else 0.0
    z_t = rng.normal(shift, 1.5, (n, c))
    z_s = rng.normal(shift, 1.5, (n, c))
    labels = rng.integers(0, c, n)
    if name == "kd":
        terms = [(1.0, Fixed(float(rng.uniform(1.0, 5.0))), 0.3, 0.7)]
    elif name == "multi_temp":
        k = int(rng.integers(1, 4))
        terms = [(1.0, MultiSet(tuple(float(t) for t in rng.uniform(0.5, 6.0, k))), 0.0, 1.0)]
    elif name == "normkd":
        terms = [(1.0, NormStd(float(rng.uniform(0.5, 3.0))), 0.0, 1.0)]
    elif name in ("maxval", "range"):
        rule = (MaxVal if name == "maxval" else Range)(float(rng.uniform(0.5, 3.0)))
        terms = [(1.0, rule, 0.2, 0.8)]
    else:  # combine
        kd, norm = Fixed(float(rng.uniform(1.0, 5.0))), NormStd(float(rng.uniform(0.5, 3.0)))
        terms = [(0.6, norm, 0.0, 1.0), (0.4, kd, 0.0, 1.0)]
    return z_s, labels, [(w, rule, teacher_side(rule, z_t), a, b) for w, rule, a, b in terms]


def gradient_check_suite(
    instances: int = 100,
    step: float = 1e-5,
    inject_fault: str | None = None,
) -> list[tuple[str, float]]:
    """Max finite-difference relative error per loss over random instances.

    Returns one (name, max_error) row per implemented loss; every error
    should sit below GRAD_CHECK_TOLERANCE.  The instances are drawn from
    GRAD_CHECK_SEED, so every call with the same arguments is identical.
    The analytic gradient is training's, ``logit_grad``'s parts of every
    term summed in a tape's order (the last term's first), against one
    plain-array pass over every probe.  ``inject_fault`` names a loss
    whose analytic gradient gets sign-flipped, as a self-test of the audit.
    """
    if instances < 1:
        raise ConfigError(f"instances must be at least 1, got {instances}")
    if not 0.0 < step < math.inf:
        raise ConfigError(f"step must be finite and positive, got {step}")
    if inject_fault is not None and inject_fault not in GRAD_CHECK_LOSSES:
        raise ConfigError(
            f"unknown loss {inject_fault!r}; choose from {', '.join(GRAD_CHECK_LOSSES)}"
        )
    results = []
    for name in GRAD_CHECK_LOSSES:
        rng = np.random.default_rng((GRAD_CHECK_SEED, GRAD_CHECK_LOSSES.index(name)))
        worst = 0.0
        for _ in range(instances):
            z_s, labels, terms = _loss_instance(name, rng)
            analytic = _tape_sum([part for w, rule, side, a, b in reversed(terms) for part in
                                  _logit_parts(rule, z_s, side, labels, a * w, b * w, True, False)])
            probes = _central_probes(z_s, step)
            with np.errstate(all="ignore"):
                values = sum(w * _stack_totals(rule, probes, side, labels, a, b)
                             for w, rule, side, a, b in terms)
            worst = max(worst, _fd_error(-analytic if inject_fault == name else analytic,
                                         values, step))
        results.append((name, worst))
    return results
