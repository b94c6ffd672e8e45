"""sha256 digests of the bytes normkd computes, for bit-for-bit A/B checks.

    PYTHONPATH=src python scripts/bytes_digest.py                  # one digest
    PYTHONPATH=src python scripts/bytes_digest.py --each           # one per part
    PYTHONPATH=src python scripts/bytes_digest.py --cli            # the CLI run
    python scripts/bytes_digest.py [--cli] --against REV           # the gate

The default digest covers, for every case of the loss grid below, the taped
``distill_loss`` values, per-sample weights, tape node count and every
node's data and grad bytes after backward, plus the same values from the
untaped (plain-array) call.  One more part holds ``distill.logit_grad`` over
the same grid, with the cell's ``teacher_side`` and with no teacher, at
alpha 0.1 and beta 0.9.  It also covers a short teacher training and a
student training per rule: parameters, history and logit caches; a depth-3
run at batch 7; for ``multiset:1,2,4`` and ``maxval:1.0``, a run whose
every epoch ends on a one-row batch; runs of ``multiset:4``, the eight
temperatures 1 to 8, and ``range:1.0`` with a detached student statistic;
and, in one part, runs with the teacher cache at 0 and 2 epochs under every
rule of the loss grid and under none, at beta 0 and 0.9.
Then come ``cache_teacher_logits`` and ``evaluate`` at the perfbench
big_cache widths (32-64-100 and 32-16-100) on 16,384 rows; one part for
the paper-named wrappers on three rows of each row kind at every class
count (``soften``, ``kl_divergence``, ``norm_soften``, ``sample_std``,
``temperature_for`` of every rule above and ``multi_temp_prediction`` per
row, and ``normkd_loss`` and ``multi_temp_kld`` per matrix, plain and as
a taped leaf's gradient); ``analyze``
and ``write_analysis`` (every array of the result and the bytes of both
files, written to a temporary directory) on 2 * 16,384 + 3 rows, twice
``analyze``'s block of 16,384 plus three: the two big_cache-width nets'
caches, and a C = 2 and a C = 3 pair with constant rows (the C = 3 pair
has a class with no samples); then the same on 16,387 rows at C = 100
with class-sorted labels, so that every block edge falls inside a class's
rows, one class with no rows and one only in the final three; three parts for NKDL logit-cache files: the
bytes written and the arrays read back at N in 1, 3 and 16,387 (and a
header-only N = 0 file, read only) by C in 1, 2 and 100, with float32 edge
logits (the float32 maximum, the largest float64 that rounds to it, -0.0,
subnormals and round-half ties), every write error (empty, a sample id
outside u32, a logit beyond float32 at several rows) and every read error
(a missing file, a directory, each short header, bad magic, version or
class count, a body a byte short or long, a bad label, a non-finite
record and a header that claims 2**32-1 records of 2**32-1 classes); one
``datasets`` part: both ``make_blobs`` splits (features, labels and label
dtype) at four small sizes and at perfbench big_cache's, and the
``write_dataset`` bytes, read back by ``read_dataset``, of every split but
big_cache's, of a 0-row dataset and of one with -0.0, 5e-324, 1e-300 and
the float64 extremes; and ``gradient_check_suite``'s errors by ``float.hex``,
one part per call: the default call, ``instances=7, step=1e-6``, and
``inject_fault=name, instances=5`` for each of the audit's losses.  Last come
``numcore.grad_check``'s errors by ``float.hex``, one part per audit loss:
its public taped entry point (``kd_loss``, ``multi_temp_kld``,
``normkd_loss``, ``distill_loss`` or ``combine`` of two) at the audit's
first 20 points, rebuilt from ``GRAD_CHECK_SEED`` in the audit's draw
order, at steps 1e-5 and 1e-6; and one part for three primitive
compositions, one of them on the strided view ``x.T``.  A loss case that
raises contributes its error type and message instead.  Nothing else is
written to disk.

``--cli`` digests a desk CLI sequence instead, run in-process in a
temporary directory: gen-data, train-teacher, grad-check (default, and
``--instances 7 --step 1e-6``), distill for six arms, two variants
(``std_corrected = false``, ``detach_student_stat = true``) and an arm
that trains its own teacher, then eval and analyze.  Five failing calls
follow, so that error messages are digested too: eval of a cache copy
whose record 3 has label C, analyze of the train-split teacher cache
against a val-split student cache, distill from the val-split teacher
cache, distill with an empty ``student_layers``, and train-teacher with
a teacher whose last width is not the class count.  Its parts are every file written plus each command's
exit code, stdout and stderr, with the temporary directory's path
replaced by ``<work>``.

``--each`` prints one digest per part (a loss-grid cell, a training run, a
file or a stream) before the total, so a mismatch names its part.
``--against REV`` exports ``REV`` with ``git archive`` into a temporary
directory, runs this script with ``--each`` once on this tree's ``src``
and once on that tree's ``src``, prints every part that differs and exits
1 on any difference, or 2 when ``REV`` cannot be exported or a side
fails.  It also prints the line count of ``src/normkd/*.py`` in both
trees, the total ``wc -l`` gives.  Run both sides on one machine: numpy's
SIMD kernels change the bytes between CPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np


RULES = (
    "fixed:4", "fixed:1", "multiset:1,2,4", "multiset:4", "normstd:2.0",
    "normstd:1.0:1e-3", "maxval:1.0", "range:1.0", "maxval:2.0:0.5", "range:0.7",
)
SIZES = (1, 3, 64, 1024)
CLASSES = (2, 3, 10, 100)
ROW_KINDS = ("normal", "constant", "tied", "negative", "float32")
TRAIN_RULES = ("fixed:4", "multiset:1,2,4", "normstd:2.0", "maxval:1.0", "range:1.0")
EXTRA_TRAININGS = (("multiset:4", False), ("multiset:1,2,3,4,5,6,7,8", False),
                   ("range:1.0", True))


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
    """One running sha256 over everything added, and one per named part."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.parts = {}
        self._part = None

    def part(self, name: str) -> None:
        self._part = self.parts.setdefault(name, hashlib.sha256())

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                chunks = (repr((v.dtype.str, v.shape)).encode(), np.ascontiguousarray(v).tobytes())
            elif isinstance(v, float):
                chunks = (struct.pack("<d", v),)
            else:
                chunks = (repr(v).encode(),)
            for chunk in chunks:
                self._h.update(chunk)
                if self._part is not None:
                    self._part.update(chunk)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _loss_case(d: Digest, rule, z_s, z_t, labels, corrected: bool, detach: bool) -> None:
    from normkd import distill_loss
    from normkd.numcore import Tape

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


def _replay_case(d: Digest, rule, z_s, z_t, labels, corrected: bool, detach: bool) -> None:
    from normkd.distill import logit_grad, teacher_side

    for with_teacher in (True, False):
        try:
            teacher = teacher_side(rule, z_t, corrected) if with_teacher else None
            d.add(logit_grad(rule, z_s, teacher, labels, 0.1, 0.9, corrected, detach))
        except Exception as exc:  # a raising case is part of the behaviour digested
            d.add(type(exc).__name__, str(exc))


def _grid():
    """Every cell of the loss grid and every case in it: ``(cell name, case
    key, rule, z_s, z_t, labels, corrected, detach)``."""
    from normkd.logitstats import parse_rule

    for n, c, kind in itertools.product(SIZES, CLASSES, ROW_KINDS):
        rng = np.random.default_rng([n, c, ROW_KINDS.index(kind)])
        z_s, z_t = _logits(rng, n, c, kind), _logits(rng, n, c, kind)
        labels = rng.integers(0, c, size=n)
        for spec, corrected, detach in itertools.product(RULES, (True, False), (False, True)):
            yield (f"n={n} c={c} {kind}", (spec, n, c, kind, corrected, detach),
                   parse_rule(spec), z_s, z_t, labels, corrected, detach)


def loss_grid(d: Digest) -> int:
    cases = 0
    for cell, key, *case in _grid():
        d.part(f"loss {cell}")
        d.add(*key)
        _loss_case(d, *case)
        cases += 1
    d.part("logit_grad over the loss grid")
    for _, key, *case in _grid():
        d.add(*key)
        _replay_case(d, *case)
    return cases


def trainings(d: Digest) -> int:
    from normkd import MlpSpec, TrainConfig, cache_teacher_logits, make_blobs, train
    from normkd.logitstats import parse_rule

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
    d.part("train teacher")
    d.add("teacher", *(a for wb in teacher for a in wb), repr(history), cache.logits)
    for spec in TRAIN_RULES:
        for corrected, detach in ((True, False), (False, True)):
            config = replace(
                recipe, rule=parse_rule(spec), std_corrected=corrected, detach_student_stat=detach
            )
            student, history = train(MlpSpec((6, 5, 4), init_seed=1), config, train_ds, cache, val_ds)
            d.part(f"train {spec} corrected={corrected} detach={detach}")
            d.add(spec, corrected, detach, *(a for wb in student for a in wb), repr(history))
            d.add(cache_teacher_logits(student, val_ds).logits)
    # depth 3, alpha != 1 and a batch size that divides neither the rows nor a power of two
    odd = replace(recipe, batch_size=7, alpha=0.37)
    for spec in (None, "normstd:2.0"):
        config = replace(odd, rule=parse_rule(spec) if spec else None, beta=0.9 if spec else 0.0)
        params, history = train(MlpSpec((6, 7, 5, 4), init_seed=2), config, train_ds, cache, val_ds)
        d.part(f"train {spec or 'ce'} depth 3 batch 7")
        d.add(spec, *(a for wb in params for a in wb), repr(history))
    # every epoch ends on a one-row batch: the run's teacher side indexed by a single row
    last_one = replace(recipe, batch_size=train_ds.n_samples - 1)
    for spec in ("multiset:1,2,4", "maxval:1.0"):
        config = replace(last_one, rule=parse_rule(spec))
        params, history = train(MlpSpec((6, 5, 4), 3), config, train_ds, cache, val_ds)
        d.part(f"train {spec} last batch one row")
        d.add(spec, *(a for wb in params for a in wb), repr(history))
    # a one-temperature MultiSet, acceptance 7's eight temperatures, and a detached live-std Range
    for spec, detach in EXTRA_TRAININGS:
        config = replace(recipe, rule=parse_rule(spec), detach_student_stat=detach)
        params, history = train(MlpSpec((6, 5, 4), init_seed=4), config, train_ds, cache, val_ds)
        d.part(f"train {spec} detach={detach}")
        d.add(spec, detach, *(a for wb in params for a in wb), repr(history))
    # with the cache: no epoch and two, under every digest rule and none, at beta 0 and 0.9
    d.part("train with a cache at epochs 0 and 2, every rule and none, beta 0 and 0.9")
    edges = list(itertools.product((0, 2), (None, *RULES), (0.0, 0.9)))
    for epochs, spec, beta in edges:
        config = replace(recipe, epochs=epochs, lr_decay_epochs=(),
                         rule=parse_rule(spec) if spec else None, beta=beta)
        d.add(epochs, spec, beta)
        try:
            params, history = train(MlpSpec((6, 5, 4), init_seed=5), config, train_ds, cache, val_ds)
            d.add(*(a for wb in params for a in wb), repr(history))
        except Exception as exc:  # a raising run is part of the behaviour digested
            d.add(type(exc).__name__, str(exc))
    return 5 + 2 * len(TRAIN_RULES) + len(EXTRA_TRAININGS) + len(edges)


BIG_WIDTHS = ((32, 64, 100), (32, 16, 100))
BIG_ROWS = 16384


def big_forwards(d: Digest) -> int:
    from normkd import Dataset, MlpSpec, cache_teacher_logits, evaluate, init_mlp

    rng = np.random.default_rng(17)
    data = Dataset(rng.normal(0.0, 2.0, size=(BIG_ROWS, 32)), rng.integers(0, 100, BIG_ROWS), 100)
    for seed, widths in enumerate(BIG_WIDTHS):
        params = init_mlp(MlpSpec(widths, init_seed=seed))
        d.part(f"forward {'-'.join(map(str, widths))} n={BIG_ROWS}")
        d.add(widths, cache_teacher_logits(params, data).logits, evaluate(params, data))
    return len(BIG_WIDTHS)


WRAPPER_ROWS = 3
WRAPPER_TEMPERATURES = (0.5, 1.0, 4.0)


def _call(d: Digest, fn, *args) -> None:
    """Add ``fn(*args)`` (each item of a tuple result), or the error it raises."""
    try:
        out = fn(*args)
        d.add(*(out if isinstance(out, tuple) else (out,)))
    except Exception as exc:  # a raising call is part of the behaviour digested
        d.add(type(exc).__name__, str(exc))


def _leaf_grad(loss, z_s, *args) -> np.ndarray:
    from normkd.numcore import Tape

    tape = Tape()
    leaf = tape.leaf(z_s)
    tape.backward(loss(leaf, *args))
    return leaf.grad


def wrappers(d: Digest) -> int:
    """The paper-named wrappers on the loss grid's row kinds, at every class count:
    per row ``soften``, ``kl_divergence``, ``norm_soften``, ``sample_std``,
    ``temperature_for`` of every digest rule and ``multi_temp_prediction``; per
    matrix ``normkd_loss`` and ``multi_temp_kld``, plain and as a leaf's gradient.
    The two losses get ``t_norm`` or the temperatures and nothing else."""
    from normkd import (kl_divergence, multi_temp_kld, multi_temp_prediction, norm_soften,
                        normkd_loss, sample_std, soften, temperature_for)
    from normkd.logitstats import parse_rule

    rules = [parse_rule(spec) for spec in RULES]
    t_norms = sorted({r.t_norm for r in rules if hasattr(r, "t_norm")})
    temp_sets = [r.temperatures for r in rules if hasattr(r, "temperatures")]

    def normkd_plain(z_s, z_t, t_norm):
        rep = normkd_loss(z_s, z_t, t_norm)
        return rep.total, rep.ce_part, rep.kld_part, rep.per_sample_weight

    def normkd_node(s, z_t, t_norm):
        return normkd_loss(s, z_t, t_norm).node

    d.part("paper wrappers over the row kinds")
    for c, kind in itertools.product(CLASSES, ROW_KINDS):
        rng = np.random.default_rng([WRAPPER_ROWS, c, ROW_KINDS.index(kind), 1])
        z_s, z_t = _logits(rng, WRAPPER_ROWS, c, kind), _logits(rng, WRAPPER_ROWS, c, kind)
        d.add(c, kind)
        for zs, zt in zip(z_s, z_t):
            for t in WRAPPER_TEMPERATURES:
                _call(d, soften, zt, t)
                _call(d, lambda t: kl_divergence(soften(zt, t), soften(zs, t)), t)
            for t_norm in t_norms:
                _call(d, norm_soften, zt, t_norm)
            for corrected in (True, False):
                _call(d, sample_std, zt, corrected)
                for rule in rules:
                    _call(d, temperature_for, rule, zt, corrected)
            for temps in temp_sets:
                _call(d, multi_temp_prediction, zt, temps)
        for t_norm in t_norms:
            _call(d, normkd_plain, z_s, z_t, t_norm)
            _call(d, _leaf_grad, normkd_node, z_s, z_t, t_norm)
        for temps in temp_sets:
            _call(d, multi_temp_kld, z_s, z_t, temps)
            _call(d, _leaf_grad, multi_temp_kld, z_s, z_t, temps)
    return len(CLASSES) * len(ROW_KINDS) * WRAPPER_ROWS


ANALYZE_BLOCK = 16384  # the rows of one analyze block when this part was added
ANALYZE_ROWS = 2 * ANALYZE_BLOCK + 3


SORTED_ROWS = 16387


def _class_sorted_pair():
    """Caches of ``SORTED_ROWS`` rows at C = 100 whose labels are sorted, so each
    class's rows are contiguous and every multiple of 1,024 rows below 16,384
    falls inside a class; class 50 has no rows and class 99 only the final
    three, past the 16,384-row edge."""
    from normkd.logitstats import LogitCache

    rng = np.random.default_rng(29)
    labels = np.sort(rng.integers(0, 99, SORTED_ROWS))
    labels[labels == 50] = 49
    labels[-3:] = 99
    z_t = rng.normal(0.0, 2.0, size=(SORTED_ROWS, 100))
    z_s = z_t + rng.normal(0.0, 1.0, size=z_t.shape)
    z_t[::7], z_s[3::7] = z_t[::7, :1], 0.5  # constant rows
    return [LogitCache(np.arange(SORTED_ROWS), labels, z) for z in (z_t, z_s)]


def analyses(d: Digest) -> int:
    from normkd import Dataset, MlpSpec, cache_teacher_logits, init_mlp
    from normkd.experiment import analyze, write_analysis
    from normkd.logitstats import LogitCache

    rng = np.random.default_rng(23)
    labels = rng.integers(0, 100, ANALYZE_ROWS)
    data = Dataset(rng.normal(0.0, 2.0, size=(ANALYZE_ROWS, 32)), labels, 100)
    nets = [cache_teacher_logits(init_mlp(MlpSpec(w, init_seed=s)), data)
            for s, w in enumerate(BIG_WIDTHS)]
    pairs = {f"{'-'.join(map(str, BIG_WIDTHS[0]))} vs {'-'.join(map(str, BIG_WIDTHS[1]))}": nets}
    for c in (2, 3):
        labels = rng.integers(0, c, ANALYZE_ROWS)
        if c == 3:
            labels[labels == 1] = 0  # a class with no samples
        z_t, z_s = rng.normal(0.0, 2.0, size=(2, ANALYZE_ROWS, c))
        z_t[::5], z_s[2::5] = z_t[::5, :1], z_s[2::5, 1:2]  # constant rows
        ids = np.arange(ANALYZE_ROWS)
        pairs[f"c={c}"] = [LogitCache(ids, labels, z) for z in (z_t, z_s)]
    pairs["class-sorted c=100"] = _class_sorted_pair()
    for name, (teacher, student) in pairs.items():
        d.part(f"analyze {name} n={len(teacher)}")
        result = analyze(teacher, student)
        d.add(result.sample_ids, result.labels, result.raw_matrix, result.norm_matrix)
        for stats in (result.teacher_stats, result.student_stats):
            d.add(*vars(stats).values())
        with tempfile.TemporaryDirectory() as tmp:
            for path in write_analysis(result, tmp):
                d.add(path.name, path.read_bytes())
    return len(pairs)


CACHE_SIZES = (1, 3, 16387)
CACHE_CLASSES = (1, 2, 100)
_F32_MAX = float(np.finfo(np.float32).max)
_F32_LAST = float(np.nextafter(_F32_MAX + 2.0**103, 0.0))  # the largest float64 that rounds to it
CACHE_EDGES = (
    _F32_MAX, -_F32_MAX, _F32_LAST, -_F32_LAST, -0.0,
    2.0**-149, -2.0**-149, 2.0**-127, 2.0**-150, 3 * 2.0**-150, 2.0**-151,  # subnormals and ties
    1.0 + 2.0**-24, 1.0 + 3 * 2.0**-24, -(1.0 + 2.0**-24), 2.0**24 + 1.0,  # round-half ties
)
_HEADER = struct.Struct("<4sIII")


def _read_cache(d: Digest, path: Path, tmp: str) -> None:
    """Add the arrays ``read_logit_cache`` returns, or its error with ``tmp`` masked."""
    from normkd.logitcache import read_logit_cache

    try:
        cache = read_logit_cache(path)
        d.add(cache.sample_ids, cache.labels, cache.logits)
    except Exception as exc:  # a raising read is part of the behaviour digested
        d.add(type(exc).__name__, str(exc).replace(tmp, "<tmp>"))


def cache_files(d: Digest) -> int:
    """NKDL files: the bytes written and read back at every size and class count,
    with float32 edge logits; then every write error and every read error."""
    from normkd.logitcache import write_logit_cache
    from normkd.logitstats import LogitCache

    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        d.part("logit-cache files written and read")
        for n, c in itertools.product((0, *CACHE_SIZES), CACHE_CLASSES):
            path = work / f"{n}x{c}.nkdl"
            if n == 0:  # a header-only file: the writer refuses an empty cache
                path.write_bytes(_HEADER.pack(b"NKDL", 1, 0, c))
            else:
                rng = np.random.default_rng([n, c, 5])
                logits = rng.normal(0.0, 2.0, size=(n, c))
                k = min(len(CACHE_EDGES), logits.size)
                logits.reshape(-1)[:k] = CACHE_EDGES[:k]
                ids = rng.integers(0, 2**32, n)
                ids[0], ids[-1] = 2**32 - 1, 0
                write_logit_cache(path, LogitCache(ids, rng.integers(0, c, n), logits))
            d.add(n, c, path.read_bytes())
            _read_cache(d, path, tmp)
            files += 1

        d.part("logit-cache write errors")
        base = np.random.default_rng(6).normal(0.0, 2.0, size=(5, 3))
        caches = {"empty": LogitCache(np.zeros(0, np.int64), np.zeros(0, np.int64),
                                      np.zeros((0, 3)))}
        for k in (0, 2, 4):
            for sample_id in (-1, 2**32):
                ids = np.arange(5)
                ids[k] = sample_id
                caches[f"sample_id {sample_id} at row {k}"] = LogitCache(ids, np.zeros(5), base)
            for value in (1e39, -1e39, 3.5e38):
                logits = base.copy()
                logits[k, 1] = value
                caches[f"logit {value} at row {k}"] = LogitCache(np.arange(5), np.zeros(5), logits)
        for name, cache in caches.items():
            path = work / "refused.nkdl"
            try:
                write_logit_cache(path, cache)
                d.add(name, "written", path.read_bytes())
            except Exception as exc:  # a refused write is part of the behaviour digested
                d.add(name, type(exc).__name__, str(exc).replace(tmp, "<tmp>"), path.exists())
            files += 1

        d.part("logit-cache read errors")
        header = _HEADER.pack(b"NKDL", 1, 3, 4)
        good = work / "3x4.nkdl"
        write_logit_cache(good, LogitCache(np.arange(3), [0, 1, 3], np.eye(3, 4)))
        body = good.read_bytes()[_HEADER.size:]
        record = 8 + 4 * 4

        def with_record1(label, logit):
            data = bytearray(body)
            struct.pack_into("<I", data, record + 4, label)
            struct.pack_into("<f", data, record + 8 + 4, logit)
            return header + bytes(data)

        contents = {f"header of {k} bytes": header[:k] for k in range(_HEADER.size)}
        contents.update({
            "bad magic": b"NKDX" + header[4:] + body,
            "bad version": _HEADER.pack(b"NKDL", 2, 3, 4) + body,
            "zero classes": _HEADER.pack(b"NKDL", 1, 3, 0),
            "body one byte short": header + body[:-1],
            "body one byte long": header + body + b"\x00",
            "label 4 in record 1": with_record1(4, 0.0),
            "nan in record 1": with_record1(1, float("nan")),
            "inf in record 1": with_record1(1, float("inf")),
            "-inf in record 1": with_record1(1, float("-inf")),
            "(2**32-1) x (2**32-1) claimed": _HEADER.pack(b"NKDL", 1, 2**32 - 1, 2**32 - 1),
        })
        (work / "a directory.nkdl").mkdir()
        d.add("missing")
        _read_cache(d, work / "missing.nkdl", tmp)
        d.add("a directory")
        _read_cache(d, work / "a directory.nkdl", tmp)
        files += 2
        for name, data in contents.items():
            path = work / "case.nkdl"
            path.write_bytes(data)
            d.add(name, data)
            _read_cache(d, path, tmp)
            files += 1
    return files


BLOBS = ((2, 1, 2, 0.5, 7), (3, 2, 5, 1.0, 0), (4, 6, 40, 2.0, 3), (10, 16, 200, 2.0, 42))
BIG_BLOBS = (100, 32, 1250, 2.0, 100)  # perfbench big_cache's make_blobs, drawn but not written
DATASET_EDGES = (-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308)


def dataset_files(d: Digest) -> int:
    """``make_blobs``' two splits at every ``BLOBS`` size and big_cache's, then the
    ``write_dataset`` bytes of every split but big_cache's, of a 0-row dataset and
    of one with edge floats, each read back with ``read_dataset``."""
    from normkd import Dataset, make_blobs
    from normkd.datasets import read_dataset, write_dataset

    d.part("datasets")
    to_write = {}
    for args in (*BLOBS, BIG_BLOBS):
        for split, data in zip(("train", "val"), make_blobs(*args)):
            d.add(args, split, data.features, data.labels, data.labels.dtype.str)
            if args != BIG_BLOBS:
                to_write[f"{args} {split}"] = data
    to_write["0 rows"] = Dataset(np.zeros((0, 3)), np.zeros(0, np.int64), 2)
    edges = np.random.default_rng(31).normal(0.0, 2.0, size=(4, 3))
    edges.reshape(-1)[:len(DATASET_EDGES)] = DATASET_EDGES
    to_write["edge floats"] = Dataset(edges, [0, 2, 1, 0], 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        for name, data in to_write.items():
            write_dataset(path, data)
            back = read_dataset(path)
            d.add(name, path.read_bytes(), back.features, back.labels, back.num_classes)
    return len(to_write)


def grad_checks(d: Digest) -> int:
    from normkd import gradient_check_suite

    def call(**kwargs):
        d.part(f"gradient_check_suite({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})")
        results = gradient_check_suite(**kwargs)
        for name, err in results:
            d.add(name, err.hex())
        return [name for name, _ in results]

    names = call()
    call(instances=7, step=1e-6)
    for name in names:
        call(inject_fault=name, instances=5)
    return 2 + len(names)


GRAD_CHECK_POINTS = 20
GRAD_CHECK_STEPS = (1e-5, 1e-6)


def _public_audit_point(name: str, rng: np.random.Generator):
    """The audit's instance ``name``, drawn from ``rng`` in the audit's order, as a
    function of a taped student through the public loss entry points, and its point."""
    from normkd import MaxVal, Range, combine, distill_loss, kd_loss, multi_temp_kld, normkd_loss

    n = int(rng.integers(2, 5))
    c = int(rng.integers(3, 7))
    shift = 2.0 if name == "maxval" else 0.0
    z_t = rng.normal(shift, 1.5, (n, c))
    z_s = rng.normal(shift, 1.5, (n, c))
    labels = rng.integers(0, c, n)
    if name == "kd":
        t = float(rng.uniform(1.0, 5.0))
        return lambda s: kd_loss(s, z_t, labels, t, alpha=0.3, beta=0.7).node, z_s
    if name == "multi_temp":
        temps = tuple(float(t) for t in rng.uniform(0.5, 6.0, int(rng.integers(1, 4))))
        return lambda s: multi_temp_kld(s, z_t, temps), z_s
    if name == "normkd":
        t_norm = float(rng.uniform(0.5, 3.0))
        return lambda s: normkd_loss(s, z_t, t_norm).node, z_s
    if name in ("maxval", "range"):
        rule = (MaxVal if name == "maxval" else Range)(float(rng.uniform(0.5, 3.0)))
        return lambda s: distill_loss(rule, s, z_t, labels, alpha=0.2, beta=0.8).node, z_s
    t, t_norm = float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.5, 3.0))
    return lambda s: combine([(0.6, normkd_loss(s, z_t, t_norm).node),
                              (0.4, kd_loss(s, z_t, labels, t, alpha=0.0, beta=1.0).node)]), z_s


def grad_check_errors(d: Digest) -> int:
    """``numcore.grad_check``'s errors by ``float.hex``: each public loss at the
    audit's first points per loss and at each step, then primitive compositions."""
    from normkd import grad_check
    from normkd.distill import GRAD_CHECK_LOSSES, GRAD_CHECK_SEED
    from normkd.numcore import (add, log, log_softmax_rows, max_rows, mean_all, min_rows,
                                multiply, std_rows, subtract, sum_all)

    errors = 0
    for name in GRAD_CHECK_LOSSES:
        rng = np.random.default_rng((GRAD_CHECK_SEED, GRAD_CHECK_LOSSES.index(name)))
        points = [_public_audit_point(name, rng) for _ in range(GRAD_CHECK_POINTS)]
        d.part(f"grad_check({name}, first {GRAD_CHECK_POINTS} audit points)")
        for (fn, z_s), step in itertools.product(points, GRAD_CHECK_STEPS):
            d.add(step, grad_check(fn, z_s, step).hex())
            errors += 1
    rng = np.random.default_rng(23)
    x, w, v = rng.normal(size=(5, 4)), rng.normal(size=(4, 5)), rng.normal(size=6)
    compositions = (
        ("sum(log_softmax(x) * w)", lambda t: sum_all(multiply(log_softmax_rows(t), w)), x.T.copy()),
        ("mean(std) + sum(max - min) of x.T", lambda t: add(mean_all(std_rows(t)), sum_all(
            subtract(max_rows(t), min_rows(t)))), x.T),
        ("sum(log(v * v + 1))", lambda t: sum_all(log(add(multiply(t, t), 1.0))), v),
    )
    d.part("grad_check of primitive compositions")
    for label, fn, point in compositions:
        d.add(label, grad_check(fn, point).hex())
        errors += 1
    return errors


DESK_DATA = ["--classes", "10", "--dim", "16", "--per-class", "200", "--separation", "2.0"]
DESK_RECIPE = {
    "train_data": "demo.train.txt",
    "val_data": "demo.val.txt",
    "seeds": "1",
    "student_layers": "16,8,10",
    "epochs": "60",
    "lr_decay_epochs": "42,52",
    "batch_size": "64",
    "learning_rate": "0.05",
    "weight_decay": "0.05",
    "alpha": "0.1",
    "beta": "0.9",
}
TEACHER_KEYS = {"teacher_layers": "16,64,10", "teacher_weight_decay": "0.02"}
CACHED = {"teacher_cache": "teacher/seed1/teacher.train.nkdl"}
DESK_CONFIGS = {
    "teacher": TEACHER_KEYS,
    "none": dict(CACHED, alpha="1.0", beta="0.0"),
    "fixed": dict(CACHED, rule="fixed:4"),
    "multiset": dict(CACHED, rule="multiset:1,2,4", learning_rate="0.01"),
    "normstd": dict(CACHED, rule="normstd:2.0"),
    "maxval": dict(CACHED, rule="maxval:1.0"),
    "range": dict(CACHED, rule="range:1.0"),
    "normstd_uncorrected": dict(CACHED, rule="normstd:2.0", std_corrected="false"),
    "normstd_detached": dict(CACHED, rule="normstd:2.0", detach_student_stat="true"),
    "own_teacher": dict(TEACHER_KEYS, rule="range:1.0", epochs="20", lr_decay_epochs="15"),
}
# each of these fails; its exit code and stderr are the digested behaviour
FAILING_CONFIGS = {
    "val_teacher": dict(rule="normstd:2.0", teacher_cache="teacher/seed1/teacher.val.nkdl"),
    "no_student_layers": dict(student_layers=""),
    "narrow_teacher": dict(teacher_layers="16,5"),
}
FAILING_CALLS = [
    ["eval", "--cache", "bad_label.nkdl"],
    ["analyze", "--teacher-cache", "teacher/seed1/teacher.train.nkdl",
     "--student-cache", "normstd/seed1/student.val.nkdl", "--out-dir", "bad_analysis"],
    ["distill", "--config", "val_teacher.cfg"],
    ["distill", "--config", "no_student_layers.cfg"],
    ["train-teacher", "--config", "narrow_teacher.cfg"],
]


def _write_bad_label(src: Path, dst: Path) -> None:
    """Copy an NKDL cache with record 3's label set to C, one past the last class."""
    data = bytearray(src.read_bytes())
    c = struct.unpack_from("<I", data, 12)[0]
    struct.pack_into("<I", data, 16 + 3 * (8 + 4 * c) + 4, c)
    dst.write_bytes(bytes(data))


def cli_parts(d: Digest) -> int:
    from normkd import cli

    os.environ.pop("NORMKD_SEED", None)  # it would override every config's seeds
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        for name, keys in {**DESK_CONFIGS, **FAILING_CONFIGS}.items():
            keys = dict(DESK_RECIPE, output_dir=name, **keys)
            text = "".join(f"{k} = {v}\n" for k, v in keys.items())
            (work / f"{name}.cfg").write_text(text)
        calls = [
            ["gen-data", *DESK_DATA, "--seed", "1", "--out-prefix", "demo"],
            ["train-teacher", "--config", "teacher.cfg"],
            ["grad-check"],
            ["grad-check", "--instances", "7", "--step", "1e-6"],
            *(["distill", "--config", f"{name}.cfg"] for name in DESK_CONFIGS if name != "teacher"),
            ["eval", "--cache", "normstd/seed1/student.val.nkdl"],
            ["analyze", "--teacher-cache", "teacher/seed1/teacher.val.nkdl",
             "--student-cache", "normstd/seed1/student.val.nkdl", "--out-dir", "analysis"],
        ]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            label = " ".join(argv)
            for stream, text in (("exit", repr(code)), ("stdout", out.getvalue()),
                                 ("stderr", err.getvalue())):
                d.part(f"$ {label} [{stream}]")
                d.add(text.replace(str(work), "<work>"))

        cwd = os.getcwd()
        os.chdir(work)
        try:
            for argv in calls:
                run(argv)
            _write_bad_label(work / "teacher/seed1/teacher.val.nkdl", work / "bad_label.nkdl")
            for argv in FAILING_CALLS:
                run(argv)
        finally:
            os.chdir(cwd)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            d.part(str(path.relative_to(work)))
            d.add(path.read_bytes().replace(str(work).encode(), b"<work>"))
    return len(calls) + len(FAILING_CALLS)


def against(rev: str, cli: bool) -> int:
    """Run the digest on this tree and on ``rev``; 0 if every part matches."""
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, str(Path(__file__).resolve()), "--each"] + (["--cli"] if cli else [])

    def run(src: Path) -> dict[str, str]:
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
        return dict(reversed(line.split("  ", 1)) for line in out.splitlines())

    def lines(src: Path) -> int:  # what `wc -l src/normkd/*.py` totals
        return sum(p.read_bytes().count(b"\n") for p in (src / "normkd").glob("*.py"))

    with tempfile.TemporaryDirectory() as tmp:
        tree = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                              check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(tmp, filter="data")
        theirs, their_lines = run(Path(tmp) / "src"), lines(Path(tmp) / "src")
    ours = run(root / "src")
    differ = sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))
    for n in differ:
        print(f"differs: {n} ({ours.get(n, 'missing')} here, {theirs.get(n, 'missing')} at {rev})")
    print(f"{len(ours) - len(differ)} of {len(ours)} parts identical to {rev}"
          f"{'' if differ else '; digest ' + ours['total']}")
    print(f"src/normkd/*.py: {lines(root / 'src')} lines here, {their_lines} at {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", action="store_true", help="digest the desk CLI sequence")
    parser.add_argument("--each", action="store_true", help="print one digest per part")
    parser.add_argument("--against", metavar="REV", help="compare with the tree of revision REV")
    args = parser.parse_args(argv)
    if args.against:
        try:
            return against(args.against, args.cli)
        except subprocess.CalledProcessError as exc:  # its own stderr has been shown
            command = " ".join(map(str, exc.cmd))
            print(f"error: `{command}` exited {exc.returncode}", file=sys.stderr)
            return 2
    d = Digest()
    if args.cli:
        summary = f"{cli_parts(d)} CLI commands"
    else:
        summary = (f"{loss_grid(d)} loss cases, {trainings(d)} training runs, "
                   f"{big_forwards(d)} large-batch forwards, {wrappers(d)} wrapper rows, "
                   f"{analyses(d)} analyses, {cache_files(d)} cache-file cases, "
                   f"{dataset_files(d)} dataset files, "
                   f"{grad_checks(d)} grad-check calls, "
                   f"{grad_check_errors(d)} grad_check errors")
    if args.each:
        for name, h in d.parts.items():
            print(f"{h.hexdigest()}  {name}")
        print(f"{d.hexdigest()}  total")
    else:
        print(d.hexdigest())
    print(f"{summary}, {len(d.parts)} parts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
