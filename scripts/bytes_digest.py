"""One sha256 over the bytes normkd computes, for bit-for-bit A/B checks.

Run it on two trees and compare the printed digests:

    PYTHONPATH=src python scripts/bytes_digest.py

The digest covers, for every case of the loss grid below, the taped
``distill_loss`` values, per-sample weights, tape node count and every
node's data and grad bytes after backward, plus the same values from the
untaped (plain-array) call.  It also covers a short teacher training and a
student training per rule: parameters, history and logit caches.  A case
that raises contributes its error type and message instead.  Nothing is
written to disk.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import sys
from dataclasses import replace

import numpy as np

from normkd import MlpSpec, TrainConfig, cache_teacher_logits, distill_loss, make_blobs, train
from normkd.logitstats import parse_rule
from normkd.numcore import Tape

RULES = (
    "fixed:4", "fixed:1", "multiset:1,2,4", "multiset:4", "normstd:2.0",
    "normstd:1.0:1e-3", "maxval:1.0", "range:1.0", "maxval:2.0:0.5", "range:0.7",
)
SIZES = (1, 3, 64, 1024)
CLASSES = (2, 3, 10, 100)
ROW_KINDS = ("normal", "constant", "tied", "negative", "float32")
TRAIN_RULES = ("fixed:4", "multiset:1,2,4", "normstd:2.0", "maxval:1.0", "range:1.0")


def _logits(rng: np.random.Generator, n: int, c: int, kind: str) -> np.ndarray:
    z = rng.normal(0.0, 2.0, size=(n, c))
    if kind == "constant":
        z[::2] = z[::2, :1]
    elif kind == "tied":
        z[:, 1] = z.max(axis=1)
    elif kind == "negative":
        z -= z.max(axis=1, keepdims=True) + 1.0
    elif kind == "float32":
        z = (z + 4.0).astype(np.float32).astype(np.float64)
    return z


class Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(repr((v.dtype.str, v.shape)).encode())
                self._h.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, float):
                self._h.update(struct.pack("<d", v))
            else:
                self._h.update(repr(v).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _loss_case(d: Digest, rule, z_s, z_t, labels, corrected: bool, detach: bool) -> None:
    kwargs = dict(alpha=0.1, beta=0.9, corrected=corrected, detach_student_stat=detach)
    try:
        plain = distill_loss(rule, z_s, z_t, labels, **kwargs)
        d.add(plain.total, plain.ce_part, plain.kld_part, plain.per_sample_weight)
        tape = Tape()
        rep = distill_loss(rule, tape.leaf(z_s), z_t, labels, **kwargs)
        d.add(rep.total, rep.ce_part, rep.kld_part, rep.per_sample_weight, len(tape.nodes))
        tape.backward(rep.node)
        for node in tape.nodes:
            d.add(node.data, node.grad)
    except Exception as exc:  # a raising case is part of the behaviour digested
        d.add(type(exc).__name__, str(exc))


def loss_grid(d: Digest) -> int:
    cases = 0
    for n, c, kind in itertools.product(SIZES, CLASSES, ROW_KINDS):
        rng = np.random.default_rng([n, c, ROW_KINDS.index(kind)])
        z_s, z_t = _logits(rng, n, c, kind), _logits(rng, n, c, kind)
        labels = rng.integers(0, c, size=n)
        for spec, corrected, detach in itertools.product(RULES, (True, False), (False, True)):
            d.add(spec, n, c, kind, corrected, detach)
            _loss_case(d, parse_rule(spec), z_s, z_t, labels, corrected, detach)
            cases += 1
    return cases


def trainings(d: Digest) -> int:
    train_ds, val_ds = make_blobs(classes=4, dim=6, per_class=40, separation=2.0, seed=3)
    recipe = TrainConfig(epochs=4, batch_size=16, lr_decay_epochs=(3,), learning_rate=0.02, seed=1)
    teacher, history = train(
        MlpSpec((6, 16, 4), init_seed=1),
        replace(recipe, alpha=1.0, beta=0.0),
        train_ds,
        None,
        val_ds,
    )
    cache = cache_teacher_logits(teacher, train_ds)
    d.add("teacher", *(a for wb in teacher for a in wb), repr(history), cache.logits)
    for spec in TRAIN_RULES:
        for corrected, detach in ((True, False), (False, True)):
            config = replace(
                recipe, rule=parse_rule(spec), std_corrected=corrected, detach_student_stat=detach
            )
            student, history = train(MlpSpec((6, 5, 4), init_seed=1), config, train_ds, cache, val_ds)
            d.add(spec, corrected, detach, *(a for wb in student for a in wb), repr(history))
            d.add(cache_teacher_logits(student, val_ds).logits)
    return 1 + 2 * len(TRAIN_RULES)


def main() -> int:
    d = Digest()
    cases = loss_grid(d)
    runs = trainings(d)
    print(d.hexdigest())
    print(f"{cases} loss cases, {runs} training runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
