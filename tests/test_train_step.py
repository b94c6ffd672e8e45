"""The untaped training step against the taped step it replays.

``taped_grads`` is the reference: every parameter becomes a ``Tape.leaf``,
``taped_forward`` (the MLP recorded node by node) and ``taped_loss`` (the
batch loss) run on the tape, and ``Tape.backward`` fills the leaves'
gradients.
``reference_train`` is ``train`` with that step, and with the teacher
side built from each batch's own rows (and each record's whole matrix),
where ``train`` builds it once per run and indexes it.  Arrays are
compared by ``.tobytes()``, because ``assert_array_equal`` takes -0.0 for
0.0.
"""

import numpy as np
import pytest

from normkd import trainer
from normkd.datasets import make_blobs
from normkd.distill import _check_student, cross_entropy, side_loss, teacher_side
from normkd.errors import NumericError
from normkd.logitstats import parse_rule
from normkd.numcore import Tape, Tensor, grad_check, maximum, multiply, sum_all
from normkd.trainer import (
    MlpSpec,
    TrainConfig,
    _epoch_order,
    _split_record,
    cache_teacher_logits,
    init_mlp,
    train,
)


def taped_affine(x, w, b):
    """``x @ w + b`` as one node on its Tensors' tape, or a plain array when
    none is taped.  Each taped argument's gradient, in (x, w, b) order, is
    ``g @ w.T``, ``x.T @ g`` or ``g.sum(axis=0)``."""
    (xd, xt), (wd, wt), (bd, bt) = (
        (a.data, a) if isinstance(a, Tensor) else (np.asarray(a, dtype=np.float64), None)
        for a in (x, w, b)
    )
    out = xd @ wd + bd
    rules = ((xt, lambda g: g @ wd.T), (wt, lambda g: xd.T @ g), (bt, lambda g: g.sum(axis=0)))
    rules = [(t, rule) for t, rule in rules if t is not None]
    if not rules:
        return out
    parents = tuple(t for t, _ in rules)
    return parents[0].tape._record(out, parents, lambda g: tuple(rule(g) for _, rule in rules))


def taped_forward(params, x):
    """``trainer.forward`` on a tape: ``taped_affine`` per layer, ``maximum(h, 0.0)`` between."""
    h = x
    for i, (w, b) in enumerate(params):
        if i:
            h = maximum(h, 0.0)
        h = taped_affine(h, w, b)
    return h


def test_taped_affine_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    assert grad_check(lambda t: sum_all(taped_affine(t, w, b)), x) < 1e-8
    assert grad_check(lambda t: sum_all(taped_affine(x, t, b)), w) < 1e-8
    assert grad_check(lambda t: sum_all(taped_affine(x, w, t)), b) < 1e-8


def taped_loss(config, logits, labels, batch_side):
    """The batch loss as a taped scalar: alpha-scaled cross entropy for a None
    side, else ``side_loss`` after the student check ``train`` makes."""
    if batch_side is None:
        return multiply(cross_entropy(logits, labels), config.alpha)
    _check_student(logits)
    return side_loss(config.rule, logits, batch_side, labels, config.alpha, config.beta,
                     config.std_corrected, config.detach_student_stat).node


def taped_grads(config, params, x, labels, batch_side):
    tape = Tape()
    leaves = [(tape.leaf(w), tape.leaf(b)) for w, b in params]
    loss = taped_loss(config, taped_forward(leaves, x), labels, batch_side)
    tape.backward(loss)
    return [(wl.grad, bl.grad) for wl, bl in leaves]


def side(config, rows):
    """The ``teacher_side`` triple of raw teacher rows, or None for plain CE."""
    if rows is None or config.beta == 0.0 or config.rule is None:
        return None
    return teacher_side(config.rule, rows, config.std_corrected)


def reference_train(spec, config, train_data, teacher=None, val_data=None, check_step=False):
    """``train`` with the taped step; ``check_step`` also asserts, at every
    step, that ``trainer._step_grads`` gives the same gradient bytes."""
    params = [(w.copy(), b.copy()) for w, b in init_mlp(spec)]
    bufs = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    history = []
    lr = config.learning_rate
    x_all, y_all = train_data.features, train_data.labels
    for epoch in range(1, config.epochs + 1):
        if epoch in config.lr_decay_epochs:
            lr *= config.lr_decay_rate
        order = _epoch_order(config.seed, epoch, train_data.n_samples)
        for start in range(0, order.size, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_side = side(config, teacher[idx] if teacher is not None else None)
            grads = taped_grads(config, params, x_all[idx], y_all[idx], batch_side)
            if check_step:
                got = [(np.empty_like(w), np.empty_like(b)) for w, b in params]
                trainer._step_grads(config, params, x_all[idx], y_all[idx], batch_side, got)
                assert [(gw.tobytes(), gb.tobytes()) for gw, gb in got] == [
                    (gw.tobytes(), gb.tobytes()) for gw, gb in grads
                ], f"gradient bytes differ at epoch {epoch}, row {start}"
            for (w, b), (gw, gb), (vw, vb) in zip(params, grads, bufs):
                for p, g, v in ((w, gw, vw), (b, gb, vb)):
                    g = g + config.weight_decay * p
                    v *= config.momentum
                    v += g
                    p -= lr * (g + config.momentum * v)
        train_side = side(config, teacher)
        history.append(_split_record(epoch, "train", config, params, train_data, train_side))
        if val_data is not None:
            history.append(_split_record(epoch, "val", config, params, val_data, None))
    return params, history


TRAIN_DS, VAL_DS = make_blobs(3, 4, 20, 3.0, seed=0)  # 48 training rows
TEACHER = cache_teacher_logits(init_mlp(MlpSpec((4, 10, 3), init_seed=1)), TRAIN_DS)

# name -> (TrainConfig overrides, whether train gets the teacher cache)
ARMS = {
    "ce": (dict(alpha=1.0, beta=0.0), False),
    "ce_alpha": (dict(alpha=0.37), False),
    "ce_with_teacher": (dict(alpha=0.1, beta=0.9), True),
    "rule_beta_zero": (dict(alpha=0.37, beta=0.0, rule="normstd:2.0"), True),
    "rule_without_teacher": (dict(alpha=0.1, rule="fixed:4"), False),
    "fixed": (dict(rule="fixed:4"), True),
    "multiset": (dict(rule="multiset:1,2,4", alpha=0.37), True),
    "normstd": (dict(rule="normstd:2.0"), True),
    "maxval": (dict(rule="maxval:1.0"), True),
    "range": (dict(rule="range:1.0", alpha=1.0), True),
    "normstd_uncorrected": (dict(rule="normstd:2.0", std_corrected=False), True),
    "range_uncorrected": (dict(rule="range:1.0", std_corrected=False), True),
    "normstd_detached": (dict(rule="normstd:2.0", detach_student_stat=True), True),
    "maxval_detached": (dict(rule="maxval:1.0", detach_student_stat=True), True),
    "multiset_k1": (dict(rule="multiset:4"), True),
    "range_detached": (dict(rule="range:1.0", detach_student_stat=True), True),
}
WIDTHS = {1: (4, 3), 2: (4, 6, 3), 3: (4, 7, 5, 3)}


def _config(overrides, **extra):
    overrides = dict(overrides, **extra)
    if "rule" in overrides:
        overrides["rule"] = parse_rule(overrides["rule"])
    return TrainConfig(**overrides)


def _bytes(params):
    return [(w.tobytes(), b.tobytes()) for w, b in params]


@pytest.mark.parametrize("batch_size", [16, 7])
@pytest.mark.parametrize("depth", sorted(WIDTHS))
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_untaped_step_equals_taped_step_bytes(arm, depth, batch_size):
    overrides, with_teacher = ARMS[arm]
    config = _config(overrides, epochs=4, lr_decay_epochs=(3,), batch_size=batch_size, seed=5)
    spec = MlpSpec(WIDTHS[depth], init_seed=depth)
    teacher = TEACHER if with_teacher else None
    got, got_history = train(spec, config, TRAIN_DS, teacher, VAL_DS)
    want, want_history = reference_train(
        spec, config, TRAIN_DS, TEACHER.logits if with_teacher else None, VAL_DS, check_step=True
    )
    assert _bytes(got) == _bytes(want)
    assert repr(got_history) == repr(want_history)


def _raised_at(exc):
    """(epoch, batch start, raised in _split_record) of a training loop's error."""
    where, in_record = None, False
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_code.co_name in ("train", "reference_train"):
            where = (frame.f_locals["epoch"], frame.f_locals["start"])
        in_record = in_record or frame.f_code.co_name == "_split_record"
        tb = tb.tb_next
    return where, in_record


@pytest.mark.parametrize("learning_rate", [1e150, 1e200, 1e300])
@pytest.mark.parametrize(
    "rule,message",
    [
        (None, "leaf contains non-finite entries"),
        ("fixed:4", "student logits contain non-finite entries"),
        ("normstd:2.0", "student logits contain non-finite entries"),
        ("multiset:1,2,4", "student logits contain non-finite entries"),
    ],
)
def test_diverging_run_raises_what_and_where_the_taped_step_did(learning_rate, rule, message):
    """Parameters that overflow fail the next step's finiteness check;
    logits that overflow first fail the loss's student-logit check."""
    overrides = dict(alpha=1.0, beta=0.0) if rule is None else dict(rule=rule)
    config = _config(
        overrides, epochs=5, lr_decay_epochs=(), batch_size=16, momentum=0.0,
        learning_rate=learning_rate, seed=2,
    )
    spec = MlpSpec((4, 6, 3), init_seed=3)
    teacher = None if rule is None else TEACHER
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=message) as got:
            train(spec, config, TRAIN_DS, teacher)
        with pytest.raises(NumericError, match=message) as want:
            reference_train(spec, config, TRAIN_DS, None if teacher is None else teacher.logits)
    assert _raised_at(got.value) == _raised_at(want.value)
    assert _raised_at(got.value)[0] is not None
