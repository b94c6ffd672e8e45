"""Experiment orchestration: config files, multi-seed runs, metrics, analysis.

Experiment config files are flat ``key = value`` text with ``#`` comments.
Unknown keys are rejected and required keys must be present.  Relative
paths resolve against the config file's directory.  The ``NORMKD_SEED``
environment variable (comma-separated integers) overrides the seed list;
seeds must be distinct.

The recipe keys are the fields of ``trainer.TrainConfig`` (all but
``seed``): ``ExperimentConfig.student`` is parsed from them, and
``ExperimentConfig.teacher`` is the student's recipe with alpha 1, beta
0, no rule and the ``teacher_*`` overrides.  Both are validated when the
config loads, before any dataset is read.

Keys::

    train_data, val_data        dataset file paths               (required)
    student_layers              e.g. 16,8,10                     (required)
    seeds                       e.g. 0,1,2,3,4                   (required)
    output_dir                  run directory                    (required)
    rule                        fixed:4 | multiset:1,2,4 | normstd:2.0 |
                                maxval:1.0 | range:1.0; omit for a
                                plain-CE baseline run
    teacher_layers              e.g. 16,64,10 (train a teacher per seed)
    teacher_cache               reuse an existing cache instead
    epochs=120 batch_size=64 learning_rate=0.05 momentum=0.9
    weight_decay=0.0005 lr_decay_epochs=75,90,105 lr_decay_rate=0.1
    alpha=0.1 beta=0.9
    teacher_epochs / teacher_lr_decay_epochs / teacher_weight_decay
                                (default: same as student; teacher_epochs
                                without teacher_lr_decay_epochs: no decay)
    std_corrected=true          corrected (C-1) vs population std
    detach_student_stat=false   ablation: constant student statistic;
                                it can stall a student at chance (on the
                                README quickstart data, 16-8-10 with
                                normstd:2.0 at lr 0.01: val top-1 0.905
                                live, 0.1 from epoch 1 detached)

The default decay schedule applies only with the default epoch count;
overriding ``epochs`` without ``lr_decay_epochs`` disables decay.

Per-seed outputs land in ``output_dir/seed<k>/``: ``history.csv``
(columns epoch,split,ce,kld,total,top1), ``student.train.nkdl`` /
``student.val.nkdl`` logit caches, and ``teacher.*.nkdl`` when the
teacher is trained here; a seed that fails leaves no ``seed<k>/``, and
a run that fails on its first seed no ``output_dir``.
``output_dir/summary.csv`` (columns seed,rule,params,top1) gets one row
per seed plus an ``aggregate`` row whose top1 field is ``mean±std``
(sample std over seeds).  Students always distill from the serialized
float32 cache values, so rerunning a config reproduces every output
byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datasets import Dataset, read_dataset
from .distill import teacher_side
from .errors import ConfigError, ContractError
from .ioutil import atomic_write_text
from .logitcache import read_logit_cache, write_logit_cache
from .logitstats import (
    LogitCache,
    LogitSummary,
    NormStd,
    _row_stats,
    _summary,
    parse_rule,
    require_cache,
    rule_label,
)
from .trainer import (
    MlpSpec,
    TrainConfig,
    TrainHistory,
    _check_widths,
    cache_teacher_logits,
    evaluate,
    train,
)

SEED_ENV_VAR = "NORMKD_SEED"

_REQUIRED_KEYS = ("train_data", "val_data", "student_layers", "seeds", "output_dir")
# every TrainConfig field but the seed is a key; the teacher_* keys override the student's
_RECIPE_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")
_TEACHER_KEYS = ("teacher_epochs", "teacher_lr_decay_epochs", "teacher_weight_decay")
_OPTIONAL_KEYS = ("teacher_layers", "teacher_cache") + _RECIPE_KEYS + _TEACHER_KEYS


@dataclass(frozen=True)
class ExperimentConfig:
    """Paths, layer widths and seeds, plus the student's and the teacher's
    training recipes; runs give each recipe the seed of the run."""

    train_data: Path
    val_data: Path
    student_layers: tuple[int, ...]
    seeds: tuple[int, ...]
    output_dir: Path
    student: TrainConfig
    teacher: TrainConfig
    teacher_layers: tuple[int, ...] | None = None
    teacher_cache: Path | None = None


def _parse_int_tuple(text: str, key: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}") from exc


def _parse_value(key: str, text: str, default):
    """Convert a recipe value to the type of the TrainConfig default it overrides."""
    if key == "rule":
        return parse_rule(text) if text else None
    if isinstance(default, tuple):
        return _parse_int_tuple(text, key)
    if isinstance(default, bool):
        norm = text.strip().lower()
        if norm in ("true", "1", "yes", "false", "0", "no"):
            return norm in ("true", "1", "yes")
        raise ConfigError(f"{key}: expected true/false, got {text!r}")
    try:
        return type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: bad value {text!r}") from exc


def load_experiment_config(path: Path | str, env=None) -> ExperimentConfig:
    """Parse and validate an experiment config file, both recipes included."""
    path = Path(path)
    env = os.environ if env is None else env
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    base = path.parent

    def _path(key: str) -> Path:
        if not raw[key]:
            raise ConfigError(f"{path}: {key} is empty")
        return (base / raw[key]).resolve() if not Path(raw[key]).is_absolute() else Path(raw[key])

    seeds = _parse_int_tuple(raw["seeds"], "seeds")
    override = env.get(SEED_ENV_VAR, "")
    if override:
        seeds = _parse_int_tuple(override, SEED_ENV_VAR)
    if not seeds:
        raise ConfigError("seed list is empty")
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be nonnegative, got {seeds}")
    if any(s >= 2**64 for s in seeds):
        raise ConfigError(f"seeds must be below 2**64, got {seeds}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")

    recipe = {
        key: _parse_value(key, raw[key], getattr(TrainConfig, key.removeprefix("teacher_")))
        for key in _RECIPE_KEYS + _TEACHER_KEYS
        if key in raw
    }
    teacher = {k.removeprefix("teacher_"): recipe.pop(k) for k in _TEACHER_KEYS if k in recipe}
    # an epoch count without its own decay schedule runs without decay
    for overrides in (recipe, teacher):
        if "epochs" in overrides:
            overrides.setdefault("lr_decay_epochs", ())
    teacher_layers = (
        _parse_int_tuple(raw["teacher_layers"], "teacher_layers")
        if "teacher_layers" in raw
        else None
    )
    teacher_cache = _path("teacher_cache") if "teacher_cache" in raw else None
    if recipe.get("rule") is not None and teacher_layers is None and teacher_cache is None:
        raise ConfigError("rule given but neither teacher_layers nor teacher_cache is set")

    student = TrainConfig(**recipe)
    return ExperimentConfig(
        train_data=_path("train_data"),
        val_data=_path("val_data"),
        student_layers=_parse_int_tuple(raw["student_layers"], "student_layers"),
        seeds=seeds,
        output_dir=_path("output_dir"),
        student=student,
        teacher=replace(student, alpha=1.0, beta=0.0, rule=None, **teacher),
        teacher_layers=teacher_layers,
        teacher_cache=teacher_cache,
    )


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_history_csv(path: Path | str, history: TrainHistory) -> None:
    rows = [
        (r.epoch, r.split, repr(r.ce), repr(r.kld), repr(r.total), repr(r.top1))
        for r in history
    ]
    _write_csv(Path(path), ("epoch", "split", "ce", "kld", "total", "top1"), rows)


@contextlib.contextmanager
def _seed_dir(output_dir: Path, seed: int):
    """Make and yield the directory to write seed ``seed``'s files into: a hidden
    sibling that becomes ``output_dir/seed<k>`` only once the body has written them
    all.  It is made before the body runs, so an ``output_dir`` that cannot hold it
    fails before anything trains.  On failure it is removed, and so are
    ``output_dir`` and its parents if made for it."""
    made = next((d for d in (*reversed(output_dir.parents), output_dir) if not d.exists()), None)
    stage, final = output_dir / f".seed{seed}.partial", output_dir / f"seed{seed}"
    shutil.rmtree(stage, ignore_errors=True)  # what a killed run left
    try:
        stage.mkdir(parents=True)
        yield stage
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    if final.is_dir():  # a rerun into the same directory replaces its files one by one
        for path in sorted(stage.iterdir()):
            os.replace(path, final / path.name)
        stage.rmdir()
    else:
        os.replace(stage, final)


def _train_and_cache(spec: MlpSpec, recipe: TrainConfig, train_ds, teacher, val_ds, seed_dir, role):
    """Train ``spec``'s MLP on ``recipe`` at the spec's init seed, distilling from the ``teacher``
    cache unless it is None, and write its ``<role>.{train,val}.nkdl`` into ``seed_dir``."""
    params, history = train(spec, replace(recipe, seed=spec.init_seed), train_ds, teacher, val_ds)
    for split, data in (("train", train_ds), ("val", val_ds)):
        write_logit_cache(seed_dir / f"{role}.{split}.nkdl", cache_teacher_logits(params, data))
    return params, history


@dataclass(frozen=True)
class ExperimentResult:
    summary_path: Path
    rows: tuple[tuple[str, str, str, str], ...]
    mean_top1: float
    std_top1: float


def _write_summary(cfg: ExperimentConfig, name: str, rows: list) -> ExperimentResult:
    """Append the ``mean±std`` aggregate row to the per-seed rows and write them."""
    top1s = np.array([float(r[3]) for r in rows])
    mean = float(top1s.mean())
    std = float(top1s.std(ddof=1)) if top1s.size > 1 else 0.0
    # every row names the same rule, so the aggregate repeats the first row's
    all_rows = rows + [("aggregate", *rows[0][1:3], f"{mean!r}±{std!r}")]
    summary_path = cfg.output_dir / name
    _write_csv(summary_path, ("seed", "rule", "params", "top1"), all_rows)
    return ExperimentResult(summary_path, tuple(all_rows), mean, std)


def _read_split(path: Path) -> Dataset:
    """A dataset split; one with no rows fails here, before any model trains."""
    data = read_dataset(path)
    if not data.n_samples:
        raise ContractError(f"{path}: dataset is empty")
    return data


def _run_seeds(cfg: ExperimentConfig, layers, recipe: TrainConfig, role, history, summary):
    """Train ``layers`` on ``recipe`` per seed, distilling (if the recipe has a rule) from
    ``teacher_cache`` or a teacher the seed trains first; write caches, histories, summary."""
    train_ds, val_ds = _read_split(cfg.train_data), _read_split(cfg.val_data)
    name, params_label = rule_label(recipe.rule)
    # one cache serves every seed, so it is read (and a bad one fails) once, up front
    cached = cfg.teacher_cache is not None and recipe.rule is not None
    teacher_logits = read_logit_cache(cfg.teacher_cache) if cached else None
    own_teacher = recipe.rule is not None and not cached
    # every model is checked against both splits before the first one trains
    for widths in (layers, cfg.teacher_layers) if own_teacher else (layers,):
        _check_widths(MlpSpec(widths), train_ds)
        try:
            _check_widths(MlpSpec(widths), val_ds)
        except ContractError as exc:
            raise ContractError(f"{cfg.val_data}: {exc}") from None
    rows: list[tuple[str, str, str, str]] = []
    for seed in cfg.seeds:
        with _seed_dir(cfg.output_dir, seed) as seed_dir:
            if own_teacher:
                teacher = MlpSpec(cfg.teacher_layers, init_seed=seed)
                _train_and_cache(teacher, cfg.teacher, train_ds, None, val_ds, seed_dir, "teacher")
                # distill from the serialized float32 values, not the in-memory float64 ones
                teacher_logits = read_logit_cache(seed_dir / "teacher.train.nkdl")
            spec = MlpSpec(layers, init_seed=seed)
            params, hist = _train_and_cache(
                spec, recipe, train_ds, teacher_logits, val_ds, seed_dir, role
            )
            write_history_csv(seed_dir / history, hist)
        rows.append((str(seed), name, params_label, repr(evaluate(params, val_ds))))
    return _write_summary(cfg, summary, rows)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Train (teacher and) student per seed; write caches, histories, summary."""
    return _run_seeds(cfg, cfg.student_layers, cfg.student, "student", "history.csv", "summary.csv")


def run_teacher_training(cfg: ExperimentConfig) -> ExperimentResult:
    """Teacher-only runs: train, cache logits, and summarize val accuracy."""
    if cfg.teacher_layers is None:
        raise ConfigError("teacher training requires teacher_layers")
    return _run_seeds(cfg, cfg.teacher_layers, cfg.teacher, "teacher", "teacher_history.csv",
                      "teacher_summary.csv")


# ---------------------------------------------------------------------------
# Analysis: per-sample statistics and class-difference matrices

# rows per ``analyze`` block (13 MB temporaries at 100 classes): on perfbench big_cache over
# six run-directory name lengths, 2,048 to 16,384 rows kept the later calls' rates, while
# 32,768-row temporaries were mapped anew each block, at about twice the page faults
ANALYZE_BLOCK_ROWS = 16384


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Each cache's ``summarize`` statistics plus the class-averaged
    |student - teacher| prob difference matrices, in raw (T=1) and
    per-sample-normalized variants."""

    sample_ids: np.ndarray
    labels: np.ndarray
    teacher_stats: LogitSummary
    student_stats: LogitSummary
    raw_matrix: np.ndarray
    norm_matrix: np.ndarray


def frobenius(matrix: np.ndarray) -> float:
    return float(np.sqrt((matrix * matrix).sum()))


def _diff_matrix(d: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """|mean of the rows of class c1| of the (N, C) difference ``d``, each class's
    rows reduced in dataset order; a class with no rows keeps a zero row."""
    out = np.zeros((d.shape[1],) * 2)
    for c1 in range(len(out)):
        mask = labels == c1
        if mask.any():
            out[c1] = np.abs(d[mask].mean(axis=0))
    return out


def analyze(teacher: LogitCache, student: LogitCache, t_norm: float = 2.0) -> AnalysisResult:
    """Compare teacher and student caches sample by sample.

    Matrix entry [c1, c2] is |mean over samples of true class c1 of
    (student prob of c2 - teacher prob of c2)|, with probabilities taken
    at T=1 (raw) and at each sample's own normalized temperature (norm),
    max(std(z), 1e-8) * t_norm, where std is the corrected (divide by
    C-1) row std and t_norm must be positive.  Classes with no samples
    keep zero rows.  The statistics are ``summarize``'s, bit for bit: the
    rows go through in blocks of ``ANALYZE_BLOCK_ROWS``, with one T=1
    log-softmax per cache and block, and every value is row by row.
    """
    rule = NormStd(t_norm)
    require_cache(teacher, "analyze teacher")
    require_cache(student, "analyze student")
    if len(teacher) != len(student) or not len(teacher):
        raise ContractError(
            f"cache sizes differ or are empty: {len(teacher)} vs {len(student)}"
        )
    if teacher.num_classes != student.num_classes:
        raise ContractError("caches disagree on class count")
    mismatch = (teacher.sample_ids != student.sample_ids) | (teacher.labels != student.labels)
    if mismatch.any():
        raise ContractError(
            f"caches disagree on sample order at id {teacher.sample_ids[mismatch.argmax()]}"
        )
    # every whole-cache array is made before the first block, so the blocks' temporaries
    # leave one free region behind them, not one cut up by later columns
    raw, norm = np.empty(teacher.logits.shape), np.empty(teacher.logits.shape)
    t_columns, s_columns = ([np.empty(len(teacher)) for _ in range(5)] for _ in range(2))
    for lo in range(0, len(teacher), ANALYZE_BLOCK_ROWS):
        rows = slice(lo, lo + ANALYZE_BLOCK_ROWS)
        z_t, z_s = teacher.logits[rows], student.logits[rows]
        (t_block, p_t), (s_block, p_s) = _row_stats(z_t), _row_stats(z_s)
        for column, values in zip(t_columns + s_columns, t_block + s_block):
            column[rows] = values
        np.subtract(p_s, p_t, out=raw[rows])
        np.subtract(teacher_side(rule, z_s)[1], teacher_side(rule, z_t)[1], out=norm[rows])
    return AnalysisResult(
        sample_ids=teacher.sample_ids,
        labels=teacher.labels,
        teacher_stats=_summary(*t_columns),
        student_stats=_summary(*s_columns),
        raw_matrix=_diff_matrix(raw, teacher.labels),
        norm_matrix=_diff_matrix(norm, teacher.labels),
    )


def write_analysis(result: AnalysisResult, out_dir: Path | str) -> tuple[Path, Path]:
    """Write analyze_summary.csv and analyze_matrix.csv; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "analyze_summary.csv"
    stat_names = ("sigma", "v_max", "v_min", "entropy")
    header = ["sample_id", "label"]
    columns = [result.sample_ids, result.labels]
    for stat in stat_names:
        header += [f"teacher_{stat}", f"student_{stat}"]
        columns += [getattr(result.teacher_stats, stat), getattr(result.student_stats, stat)]
    # each cell is the repr of a Python int or float, which never needs csv quoting,
    # so joined lines are csv.writer's bytes
    lines = map(",".join, zip(*(map(repr, col.tolist()) for col in columns)))
    atomic_write_text(summary_path, "\n".join([",".join(header), *lines]) + "\n")

    matrix_path = out_dir / "analyze_matrix.csv"
    c = result.raw_matrix.shape[0]
    header = ("variant", "true_class") + tuple(f"abs_mean_prob_diff_{j}" for j in range(c))
    rows = []
    for variant, matrix in (("raw", result.raw_matrix), ("normalized", result.norm_matrix)):
        for c1, values in enumerate(matrix.tolist()):
            rows.append((variant, c1, *map(repr, values)))
    _write_csv(matrix_path, header, rows)
    return summary_path, matrix_path
