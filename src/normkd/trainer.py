"""Teacher/student MLP training with Nesterov-momentum SGD and step decay.

Training is bit-deterministic: the parameter init is fixed by the
MlpSpec seed, and every epoch's batch order comes from a counter-based
Philox stream keyed on (seed, epoch), so identical (spec, config,
dataset) inputs always reproduce identical parameters and history.  The
loop is single-threaded by contract.

Distillation uses a cache of precomputed teacher logits; the teacher is
never run online.  With no cache (or beta = 0, or no rule) the objective
is plain cross entropy scaled by alpha.

The MLP has one forward, on plain arrays: ``_layers``, which ``forward``
checks shapes for.  A training step runs it, keeping each layer's input,
and replays its backward on plain arrays, in the order and with the numpy
expressions of a tape, so the parameters come out bit-identical to a
fully taped step.  A plain-CE step builds no tape at all: it replays
cross entropy's backward as well.  A distilling step tapes only the loss,
with the logits as its root node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .distill import _as_labels, _check_student, cross_entropy, side_loss, teacher_side
from .errors import ConfigError, ContractError, DimensionError
from .logitstats import LogitCache, TemperatureRule, require_cache
from .numcore import Tape, as_array, log_softmax_values, multiply, value_of


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths [input, hidden..., classes] and the init seed."""

    layer_widths: tuple[int, ...]
    init_seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2:
            raise ConfigError(f"need at least [input, classes] widths, got {widths}")
        if any(w < 1 for w in widths):
            raise ConfigError(f"layer widths must be positive, got {widths}")
        object.__setattr__(self, "layer_widths", widths)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization recipe, with desk-scale defaults.

    The default schedule is 120 epochs with the learning rate multiplied
    by 0.1 when entering epochs 75, 90 and 105 (1-based).  Momentum is
    always applied in Nesterov form; weight decay is the coupled L2 term
    added to the gradient.
    """

    epochs: int = 120
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_epochs: tuple[int, ...] = (75, 90, 105)
    lr_decay_rate: float = 0.1
    alpha: float = 0.1
    beta: float = 0.9
    rule: TemperatureRule | None = None
    seed: int = 0
    std_corrected: bool = True
    detach_student_stat: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        decay = tuple(int(e) for e in self.lr_decay_epochs)
        if any(b <= a for a, b in zip(decay, decay[1:])):
            raise ConfigError(f"lr_decay_epochs must be strictly increasing, got {decay}")
        if decay and (decay[0] < 1 or decay[-1] >= self.epochs):
            raise ConfigError(
                f"lr_decay_epochs must lie in [1, epochs), got {decay} for {self.epochs} epochs"
            )
        if not self.lr_decay_rate > 0.0:
            raise ConfigError(f"lr_decay_rate must be positive, got {self.lr_decay_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key in ("learning_rate", "weight_decay", "lr_decay_rate", "alpha", "beta"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        object.__setattr__(self, "lr_decay_epochs", decay)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    split: str
    ce: float
    kld: float
    total: float
    top1: float


Params = list[tuple[np.ndarray, np.ndarray]]
TrainHistory = list[EpochRecord]


def init_mlp(spec: MlpSpec) -> Params:
    """Fan-in-scaled uniform init: W ~ U(-1/sqrt(d_in), 1/sqrt(d_in)), b = 0."""
    rng = np.random.default_rng(spec.init_seed)
    params: Params = []
    widths = spec.layer_widths
    for d_in, d_out in zip(widths, widths[1:]):
        bound = 1.0 / np.sqrt(d_in)
        w = rng.uniform(-bound, bound, size=(d_in, d_out))
        params.append((w, np.zeros(d_out)))
    return params


def _layers(params: Params, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The MLP's logits and each layer's input: ``h @ w + b`` per layer,
    ``np.maximum(h, 0.0)`` between layers and none after the last."""
    inputs = []
    h = x
    for w, b in params:
        if inputs:
            h = np.maximum(h, 0.0)
        inputs.append(h)
        h = h @ w + b
    return h, inputs


def forward(params: Params, x) -> np.ndarray:
    """MLP logits of an (N, D) input; params that do not fit it are a DimensionError."""
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    for i, (w, b) in enumerate(params):
        if x.ndim != 2 or w.ndim != 2 or shape[1] != w.shape[0] or b.shape != w.shape[1:]:
            raise DimensionError(
                f"layer {i} does not fit: input {shape}, weight {w.shape}, bias {b.shape}"
            )
        shape = (shape[0], w.shape[1])
    return _layers(params, x)[0]


def evaluate(params: Params, data: Dataset) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    logits = forward(params, data.features)
    return float(np.mean(logits.argmax(axis=1) == data.labels))


def cache_teacher_logits(params: Params, data: Dataset) -> LogitCache:
    """Raw (unsoftened) logits for every sample, in dataset order."""
    return LogitCache(
        np.arange(data.n_samples), data.labels.copy(), forward(params, data.features)
    )


def _teacher_matrix(cache: LogitCache, data: Dataset) -> np.ndarray:
    """Validate a teacher cache against the dataset; return its logit matrix."""
    if len(require_cache(cache, "teacher_logits")) != data.n_samples:
        raise ContractError(
            f"teacher cache has {len(cache)} records, dataset has {data.n_samples}"
        )
    if cache.num_classes != data.num_classes:
        raise ContractError(
            f"teacher cache record 0 has {cache.num_classes} classes, "
            f"dataset has {data.num_classes}"
        )
    mismatch = (cache.sample_ids != np.arange(data.n_samples)) | (cache.labels != data.labels)
    if mismatch.any():
        i = int(mismatch.argmax())
        raise ContractError(
            f"teacher cache record {i} (sample_id={cache.sample_ids[i]}, "
            f"label={cache.labels[i]}) does not match dataset row"
        )
    return cache.logits


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(epoch)))
    return rng.permutation(n)


def _batch_loss(config: TrainConfig, logits, labels, teacher):
    """Scalar loss node plus (ce, kld) floats; ``teacher`` is a ``teacher_side``
    triple, or None for alpha-scaled cross entropy alone."""
    if teacher is None:
        ce = cross_entropy(logits, labels)
        total = multiply(ce, config.alpha)
        return total, float(value_of(ce)), 0.0
    _check_student(logits)
    report = side_loss(config.rule, logits, teacher, labels, config.alpha, config.beta,
                       config.std_corrected, config.detach_student_stat)
    return report.node if report.node is not None else report.total, report.ce_part, report.kld_part


def _split_record(
    epoch: int, split: str, config: TrainConfig, params: Params, data: Dataset, teacher
) -> EpochRecord:
    logits = forward(params, data.features)
    _, ce, kld = _batch_loss(config, logits, data.labels, teacher)
    return EpochRecord(
        epoch=epoch,
        split=split,
        ce=ce,
        kld=kld,
        total=config.alpha * ce + config.beta * kld,
        top1=float(np.mean(logits.argmax(axis=1) == data.labels)),
    )


def _ce_logit_grad(logits, labels, alpha: float) -> np.ndarray:
    """d(alpha * cross_entropy)/d(logits), untaped.

    Replays the backward rules of the nodes ``cross_entropy`` and the alpha
    multiply record (the multiply, ``mean_all``, ``* -1.0``, the gather and
    log-softmax) in reverse creation order.  Each node's gradient is its
    one contribution written as ``np.add(g, 0.0)``, which equals the tape's
    ``zeros + g`` bit for bit, signed zeros included.
    """
    log_p = log_softmax_values(logits)
    n = log_p.shape[0]
    g = np.add(np.ones(()) * alpha, 0.0)
    g = np.add(np.broadcast_to(g * (1.0 / n), (n, 1)), 0.0)
    g = np.add(g * -1.0, 0.0)
    picked = np.zeros_like(log_p)
    np.put_along_axis(picked, labels[:, None], g, axis=1)
    g = np.add(picked, 0.0)
    return np.add(g - np.exp(log_p) * g.sum(axis=1, keepdims=True), 0.0)


def _step_grads(config: TrainConfig, params: Params, x, labels, teacher) -> Params:
    """The batch loss's gradient for every (weight, bias), bit-identical to
    taping the MLP (one ``x @ w + b`` node per layer, ``maximum(h, 0.0)``
    between) and ``_batch_loss``, and calling ``Tape.backward``.

    A plain-CE step builds no tape.  Otherwise a tape holds only the loss,
    and the gradient reaching the logits comes from its backward.  The
    MLP's forward and backward run on plain arrays either way; the
    parameters are checked finite first, as ``Tape.leaf`` checked them.
    """
    for w, b in params:
        as_array(w, "leaf")
        as_array(b, "leaf")
    h, inputs = _layers(params, x)
    if teacher is None:
        labels = _as_labels(labels, h.shape[0], h.shape[1])
        g = _ce_logit_grad(h, labels, config.alpha)
    else:
        tape = Tape()
        logits = tape.root(h)
        loss, _, _ = _batch_loss(config, logits, labels, teacher)
        tape.backward(loss)
        g = logits.grad
    grads: Params = []
    for x_in, (w, _) in zip(reversed(inputs), reversed(params)):
        grads.append((np.add(x_in.T @ g, 0.0), np.add(g.sum(axis=0), 0.0)))
        if x_in is not x:  # back through the ReLU that made this input
            g = np.add(np.add(g @ w.T, 0.0) * (x_in > 0.0), 0.0)
    return grads[::-1]


def train(
    spec: MlpSpec,
    config: TrainConfig,
    train_data: Dataset,
    teacher_logits: LogitCache | None = None,
    val_data: Dataset | None = None,
) -> tuple[Params, TrainHistory]:
    """Minimize alpha*CE + beta*KLD(rule) over the training split.

    ``teacher_logits`` is an optional LogitCache covering every training
    sample in dataset order (its ids 0..N-1 and labels must match the
    dataset's); without it the objective is alpha-scaled plain cross
    entropy.
    History records ce/kld/total/top1 per epoch for the train split and,
    when ``val_data`` is given, the validation split; validation rows
    report plain cross entropy (kld 0), since teacher logits are cached
    for training samples only.
    """
    if train_data.n_samples == 0:
        raise ContractError("training dataset is empty")
    if spec.layer_widths[0] != train_data.num_features:
        raise ContractError(
            f"spec input width {spec.layer_widths[0]} != dataset features "
            f"{train_data.num_features}"
        )
    if spec.layer_widths[-1] != train_data.num_classes:
        raise ContractError(
            f"spec class width {spec.layer_widths[-1]} != dataset classes "
            f"{train_data.num_classes}"
        )
    teacher = None
    if teacher_logits is not None:
        teacher = _teacher_matrix(teacher_logits, train_data)

    params = [(w.copy(), b.copy()) for (w, b) in init_mlp(spec)]
    history: TrainHistory = []
    if config.epochs == 0:
        return params, history
    if config.beta == 0.0 or config.rule is None:  # alpha-scaled cross entropy alone
        teacher = None
    elif teacher is not None:  # constant and row by row: built once per run, indexed per batch
        teacher = teacher_side(config.rule, teacher, config.std_corrected)

    momentum_bufs = [(np.zeros_like(w), np.zeros_like(b)) for (w, b) in params]
    lr = config.learning_rate
    x_all, y_all = train_data.features, train_data.labels

    for epoch in range(1, config.epochs + 1):
        if epoch in config.lr_decay_epochs:
            lr *= config.lr_decay_rate
        order = _epoch_order(config.seed, epoch, train_data.n_samples)
        for start in range(0, order.size, config.batch_size):
            idx = order[start : start + config.batch_size]
            rows = None if teacher is None else tuple(
                a[idx] if isinstance(a, np.ndarray) else a for a in teacher)
            grads = _step_grads(config, params, x_all[idx], y_all[idx], rows)
            for (w, b), (gw, gb), (vw, vb) in zip(params, grads, momentum_bufs):
                for p, g, v in ((w, gw, vw), (b, gb, vb)):
                    g = g + config.weight_decay * p
                    v *= config.momentum
                    v += g
                    p -= lr * (g + config.momentum * v)
        history.append(_split_record(epoch, "train", config, params, train_data, teacher))
        if val_data is not None:
            history.append(_split_record(epoch, "val", config, params, val_data, None))
    return params, history
