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
checks shapes for.  No training step tapes anything.  A step runs the
forward, keeping each layer's input, takes the loss's gradient at the
logits from ``distill.logit_grad`` (a replay of the taped loss's
backward), and replays the MLP's backward on plain arrays, in the order
and with the numpy expressions of a tape, so the parameters come out
bit-identical to a fully taped step.  Parameters, gradients and momentum
are each views of one flat array, so the Nesterov update runs once per
step on the flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .distill import _check_student, cross_entropy, logit_grad, side_loss, teacher_side
from .errors import ConfigError, ContractError, DimensionError
from .logitstats import LogitCache, TemperatureRule, require_cache
from .numcore import as_array


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
        if self.init_seed < 0:
            raise ConfigError(f"init_seed must be nonnegative, got {self.init_seed}")
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
        if self.seed >= 2**64:  # the high half of each epoch's 128-bit Philox key
            raise ConfigError(f"seed must be below 2**64, got {self.seed}")
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
    ``np.maximum(h, 0.0)`` between layers and none after the last.  Each
    layer's ``+ b`` and ReLU write into its ``h @ w``: the same ufuncs, so
    the same bytes, without two whole-matrix temporaries."""
    inputs = []
    h = x
    for w, b in params:
        if inputs:
            np.maximum(h, 0.0, out=h)
        inputs.append(h)
        h = h @ w
        h += b
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
    """Top-1 accuracy; argmax ties resolve to the lowest class index.  A dataset
    with no rows has none, and is a ContractError."""
    if data.n_samples == 0:
        raise ContractError("evaluation dataset is empty")
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


def _check_widths(spec: MlpSpec, data: Dataset, where: str = "") -> None:
    """A spec whose input or class width is not the dataset's is a ContractError,
    its message prefixed with ``where``."""
    widths, features, classes = spec.layer_widths, data.num_features, data.num_classes
    if widths[0] != features:
        raise ContractError(f"{where}spec input width {widths[0]} != dataset features {features}")
    if widths[-1] != classes:
        raise ContractError(f"{where}spec class width {widths[-1]} != dataset classes {classes}")


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(epoch)))
    return rng.permutation(n)


def _split_record(
    epoch: int, split: str, config: TrainConfig, params: Params, data: Dataset, teacher
) -> EpochRecord:
    """One split's losses and top-1; ``teacher`` is a ``teacher_side`` triple,
    or None for cross entropy alone (kld 0)."""
    logits = forward(params, data.features)
    if teacher is None:
        ce, kld = float(cross_entropy(logits, data.labels)), 0.0
    else:
        _check_student(logits)
        report = side_loss(config.rule, logits, teacher, data.labels, config.alpha, config.beta,
                           config.std_corrected, config.detach_student_stat)
        ce, kld = report.ce_part, report.kld_part
    return EpochRecord(
        epoch=epoch,
        split=split,
        ce=ce,
        kld=kld,
        total=config.alpha * ce + config.beta * kld,
        top1=float(np.mean(logits.argmax(axis=1) == data.labels)),
    )


def _step_grads(config: TrainConfig, params: Params, x, labels, teacher, grads: Params) -> None:
    """Write the batch loss's gradient for every (weight, bias) into ``grads``,
    bit-identical to taping the MLP (one ``x @ w + b`` node per layer,
    ``maximum(h, 0.0)`` between) and the loss (alpha-scaled cross entropy for
    a None ``teacher``, else ``side_loss`` after the student check), and
    calling ``Tape.backward``.  Nothing is taped: ``logit_grad`` replays the
    loss's backward, and the loop below the MLP's."""
    h, inputs = _layers(params, x)
    g = logit_grad(config.rule, h, teacher, labels, config.alpha, config.beta,
                   config.std_corrected, config.detach_student_stat)
    for x_in, (w, _), (gw, gb) in zip(reversed(inputs), reversed(params), reversed(grads)):
        np.add(x_in.T @ g, 0.0, out=gw)
        np.add(g.sum(axis=0), 0.0, out=gb)
        if x_in is not x:  # back through the ReLU that made this input
            g = np.add(np.add(g @ w.T, 0.0) * (x_in > 0.0), 0.0)


def _views(flat: np.ndarray, like: Params) -> Params:
    """(weight, bias) views of ``flat``, shaped and ordered as ``like``'s arrays."""
    parts = iter(np.split(flat, np.cumsum([a.size for wb in like for a in wb])[:-1]))
    return [(next(parts).reshape(w.shape), next(parts)) for w, _ in like]


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
    for training samples only.  An empty training or validation split, or one
    whose widths do not fit ``spec``, is a ContractError, raised before any step.
    """
    if train_data.n_samples == 0:
        raise ContractError("training dataset is empty")
    if val_data is not None and val_data.n_samples == 0:
        raise ContractError("validation dataset is empty")
    _check_widths(spec, train_data)
    if val_data is not None:
        _check_widths(spec, val_data, "validation dataset: ")
    teacher = None  # alpha-scaled cross entropy alone, unless the recipe distills from a cache
    if teacher_logits is not None:
        z_t = _teacher_matrix(teacher_logits, train_data)
        if config.rule is not None and config.beta != 0.0:  # built once per run, indexed per batch
            teacher = teacher_side(config.rule, z_t, config.std_corrected)

    init = init_mlp(spec)
    flat_p = np.concatenate([a.reshape(-1) for wb in init for a in wb])
    flat_g, flat_v = np.zeros_like(flat_p), np.zeros_like(flat_p)
    params, grads = _views(flat_p, init), _views(flat_g, init)
    history: TrainHistory = []
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
            as_array(flat_p, "leaf")  # the taped step's leaves checked the parameters first
            _step_grads(config, params, x_all[idx], y_all[idx], rows, grads)
            g = flat_g + config.weight_decay * flat_p
            flat_v *= config.momentum
            flat_v += g
            flat_p -= lr * (g + config.momentum * flat_v)
        history.append(_split_record(epoch, "train", config, params, train_data, teacher))
        if val_data is not None:
            history.append(_split_record(epoch, "val", config, params, val_data, None))
    return [(w.copy(), b.copy()) for w, b in params], history
