"""Config parsing, orchestrated runs, analysis, and the gradient audit."""

import csv
import io
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from normkd.datasets import make_blobs, write_dataset
from normkd.distill import (
    GRAD_CHECK_LOSSES,
    GRAD_CHECK_SEED,
    GRAD_CHECK_TOLERANCE,
    combine,
    distill_loss,
    gradient_check_suite,
    kd_loss,
    multi_temp_kld,
    normkd_loss,
    teacher_side,
)
from normkd.errors import ConfigError, ContractError, FileFormatError, NumericError
from normkd.experiment import (
    analyze,
    frobenius,
    load_experiment_config,
    run_experiment,
    run_teacher_training,
    write_analysis,
)
from normkd import distill, experiment
from normkd.logitcache import read_logit_cache, write_logit_cache
from normkd.logitstats import Fixed, LogitCache, MaxVal, NormStd, Range, sample_std, summarize
from normkd.numcore import Tape, log_softmax_values, std_rows
from normkd.trainer import MlpSpec, TrainConfig, cache_teacher_logits, init_mlp, train


BASE_CONFIG = """
# demo experiment
train_data = blobs.train.txt
val_data = blobs.val.txt
teacher_layers = 4,12,3
student_layers = 4,6,3
rule = fixed:4
seeds = 0,1
output_dir = out
epochs = 3
batch_size = 16
"""


def write_demo_inputs(tmp_path, per_class=10):
    train_ds, val_ds = make_blobs(3, 4, per_class, 3.0, seed=9)
    write_dataset(tmp_path / "blobs.train.txt", train_ds)
    write_dataset(tmp_path / "blobs.val.txt", val_ds)
    return train_ds, val_ds


def write_config(tmp_path, text=BASE_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_parses_and_resolves_paths(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path), env={})
        assert cfg.train_data == tmp_path / "blobs.train.txt"
        assert cfg.student.rule == Fixed(4.0)
        assert cfg.seeds == (0, 1)
        assert cfg.student.epochs == 3
        assert cfg.student.lr_decay_epochs == ()
        assert cfg.student.momentum == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            load_experiment_config(path, env={})

    def test_missing_required_rejected(self, tmp_path):
        path = write_config(tmp_path, "train_data = x\n")
        with pytest.raises(ConfigError, match="missing required keys"):
            load_experiment_config(path, env={})

    def test_line_without_equals_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "epochs 4\n")
        message = re.escape(f"{path}:12: expected key=value, got 'epochs 4'")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_experiment_config(path, env={})

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "epochs = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_experiment_config(path, env={})

    def test_non_utf8_config_is_a_config_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(BASE_CONFIG.encode() + b"# \xff\n")
        message = re.escape(f"cannot read config {path}: 'utf-8' codec")
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(path, env={})

    def test_rule_without_teacher_rejected(self, tmp_path):
        text = BASE_CONFIG.replace("teacher_layers = 4,12,3\n", "")
        with pytest.raises(ConfigError, match="teacher"):
            load_experiment_config(write_config(tmp_path, text), env={})

    def test_no_rule_is_plain_ce_baseline(self, tmp_path):
        text = BASE_CONFIG.replace("rule = fixed:4\n", "")
        cfg = load_experiment_config(write_config(tmp_path, text), env={})
        assert cfg.student.rule is None

    def test_seed_env_override(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_experiment_config(path, env={"NORMKD_SEED": "5,6,7"})
        assert cfg.seeds == (5, 6, 7)

    @pytest.mark.parametrize("text,value", [("yes", True), ("0", False), ("No", False)])
    def test_bool_values(self, tmp_path, text, value):
        path = write_config(tmp_path, BASE_CONFIG + f"std_corrected = {text}\n")
        assert load_experiment_config(path, env={}).student.std_corrected is value

    def test_default_schedule_only_with_default_epochs(self, tmp_path):
        text = BASE_CONFIG.replace("epochs = 3\n", "")
        cfg = load_experiment_config(write_config(tmp_path, text), env={})
        assert cfg.student.epochs == 120
        assert cfg.student.lr_decay_epochs == (75, 90, 105)

    @pytest.mark.parametrize(
        "seeds,env", [(str(2**64), {}), ("0,1", {"NORMKD_SEED": f"0,{2**64}"})]
    )
    def test_seed_of_2_to_the_64_rejected(self, tmp_path, seeds, env):
        path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", f"seeds = {seeds}"))
        with pytest.raises(ConfigError, match=r"seeds must be below 2\*\*64"):
            load_experiment_config(path, env=env)

    def test_largest_seed_accepted(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", f"seeds = {2**64 - 1}"))
        assert load_experiment_config(path, env={}).seeds == (2**64 - 1,)

    def test_repeated_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 1,1,2"))
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            load_experiment_config(path, env={})

    def test_repeated_env_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            load_experiment_config(path, env={"NORMKD_SEED": "5,6,5"})

    def test_teacher_recipe_derived_from_student(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path), env={})
        assert cfg.teacher == replace(cfg.student, alpha=1.0, beta=0.0, rule=None)
        text = BASE_CONFIG + "teacher_epochs = 5\nteacher_weight_decay = 0.01\n"
        cfg = load_experiment_config(write_config(tmp_path, text), env={})
        assert cfg.teacher == replace(
            cfg.student, alpha=1.0, beta=0.0, rule=None, epochs=5, weight_decay=0.01
        )
        assert cfg.teacher.lr_decay_epochs == ()

    @pytest.mark.parametrize(
        "extra",
        [
            "weight_decay = nan\nteacher_weight_decay = 0.01\n",
            "teacher_lr_decay_epochs = 9\n",
            "teacher_weight_decay = -1\n",
        ],
    )
    def test_both_recipes_validated_at_load(self, tmp_path, extra):
        # no dataset exists: the recipe fails before anything is read
        path = write_config(tmp_path, BASE_CONFIG + extra)
        with pytest.raises(ConfigError):
            load_experiment_config(path, env={})


class TestRunExperiment:
    def test_outputs_and_aggregate(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path), env={})
        result = run_experiment(cfg)
        assert result.summary_path.exists()
        for seed in (0, 1):
            seed_dir = tmp_path / "out" / f"seed{seed}"
            for name in (
                "history.csv",
                "teacher.train.nkdl",
                "teacher.val.nkdl",
                "student.train.nkdl",
                "student.val.nkdl",
            ):
                assert (seed_dir / name).exists(), name

        with result.summary_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1", "aggregate"]
        per_seed = [float(r["top1"]) for r in rows[:2]]
        mean_str, std_str = rows[2]["top1"].split("±")
        assert float(mean_str) == np.mean(per_seed)
        assert float(std_str) == np.std(per_seed, ddof=1)
        assert rows[0]["rule"] == "fixed"

    def test_rerun_byte_identical(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path), env={})
        run_experiment(cfg)
        first = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in (tmp_path / "out").rglob("*")
            if p.is_file()
        }
        run_experiment(cfg)
        for rel, data in first.items():
            assert (tmp_path / rel).read_bytes() == data, rel

    def test_history_csv_columns(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path), env={})
        run_experiment(cfg)
        with (tmp_path / "out" / "seed0" / "history.csv").open() as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["epoch", "split", "ce", "kld", "total", "top1"]
            rows = list(reader)
        assert len(rows) == 2 * cfg.student.epochs
        assert {r[1] for r in rows} == {"train", "val"}

    def test_plain_ce_baseline_run(self, tmp_path):
        write_demo_inputs(tmp_path)
        text = BASE_CONFIG.replace("rule = fixed:4\n", "")
        cfg = load_experiment_config(write_config(tmp_path, text), env={})
        result = run_experiment(cfg)
        assert result.rows[0][1] == "none"
        assert not (tmp_path / "out" / "seed0" / "teacher.train.nkdl").exists()

    def test_teacher_cache_reused(self, tmp_path):
        train_ds, _ = write_demo_inputs(tmp_path)
        from normkd.trainer import MlpSpec, cache_teacher_logits, init_mlp

        records = cache_teacher_logits(init_mlp(MlpSpec((4, 12, 3), init_seed=0)), train_ds)
        write_logit_cache(tmp_path / "teacher.nkdl", records)
        text = BASE_CONFIG.replace(
            "teacher_layers = 4,12,3", "teacher_cache = teacher.nkdl"
        )
        cfg = load_experiment_config(write_config(tmp_path, text), env={})
        result = run_experiment(cfg)
        assert result.summary_path.exists()
        assert not (tmp_path / "out" / "seed0" / "teacher.train.nkdl").exists()

    def test_teacher_cache_read_once_per_run(self, tmp_path, monkeypatch):
        train_ds, _ = write_demo_inputs(tmp_path)
        teacher = init_mlp(MlpSpec((4, 12, 3), init_seed=0))
        write_logit_cache(tmp_path / "teacher.nkdl", cache_teacher_logits(teacher, train_ds))
        text = BASE_CONFIG.replace("teacher_layers = 4,12,3", "teacher_cache = teacher.nkdl")
        calls = []
        monkeypatch.setattr(
            experiment, "read_logit_cache", lambda path: calls.append(path) or read_logit_cache(path)
        )
        result = run_experiment(load_experiment_config(write_config(tmp_path, text), env={}))
        assert len(result.rows) == 3  # two seeds and the aggregate
        assert calls == [tmp_path / "teacher.nkdl"]

    def test_bad_teacher_cache_fails_before_any_seed_directory(self, tmp_path):
        write_demo_inputs(tmp_path)
        (tmp_path / "teacher.nkdl").write_bytes(b"junk")
        text = BASE_CONFIG.replace("teacher_layers = 4,12,3", "teacher_cache = teacher.nkdl")
        with pytest.raises(FileFormatError, match="truncated header"):
            run_experiment(load_experiment_config(write_config(tmp_path, text), env={}))
        assert not (tmp_path / "out" / "seed0").exists()

    @pytest.mark.parametrize(
        "run,edit,message",
        [
            (run_experiment, ("student_layers = 4,6,3", "student_layers = 5,6,3"),
             "spec input width 5 != dataset features 4"),
            (run_experiment, ("teacher_layers = 4,12,3", "teacher_layers = 4,12,5"),
             "spec class width 5 != dataset classes 3"),
            (run_teacher_training, ("teacher_layers = 4,12,3", "teacher_layers = 4,12,5"),
             "spec class width 5 != dataset classes 3"),
        ],
    )
    def test_every_model_is_checked_against_the_data_before_any_trains(
        self, tmp_path, monkeypatch, run, edit, message
    ):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path, BASE_CONFIG.replace(*edit)), env={})
        monkeypatch.setattr(experiment, "train", lambda *args: pytest.fail("a model trained"))
        with pytest.raises(ContractError, match=re.escape(message)):
            run(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("run", [run_experiment, run_teacher_training])
    @pytest.mark.parametrize(
        "dim,classes,message",
        [(5, 3, "spec input width 4 != dataset features 5"),
         (4, 4, "spec class width 3 != dataset classes 4")],
    )
    def test_val_split_is_checked_before_any_model_trains(
        self, tmp_path, monkeypatch, run, dim, classes, message
    ):
        write_demo_inputs(tmp_path)
        write_dataset(tmp_path / "blobs.val.txt", make_blobs(classes, dim, 10, 3.0, seed=9)[1])
        cfg = load_experiment_config(write_config(tmp_path), env={})
        monkeypatch.setattr(experiment, "train", lambda *args: pytest.fail("a model trained"))
        with pytest.raises(ContractError, match=f"^{re.escape(f'{cfg.val_data}: {message}')}$"):
            run(cfg)
        assert not (tmp_path / "out").exists()

    def test_aggregate_mean_matches_recomputation(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path), env={})
        result = run_experiment(cfg)
        per_seed = [float(r[3]) for r in result.rows[:-1]]
        assert result.mean_top1 == np.mean(per_seed)

    def test_run_teacher_training(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg = load_experiment_config(write_config(tmp_path), env={})
        result = run_teacher_training(cfg)
        assert result.summary_path.name == "teacher_summary.csv"
        assert (tmp_path / "out" / "seed0" / "teacher.train.nkdl").exists()
        assert (tmp_path / "out" / "seed0" / "teacher_history.csv").exists()


STUDENT_FILES = {"history.csv", "student.train.nkdl", "student.val.nkdl"}
TEACHER_FILES = {"teacher.train.nkdl", "teacher.val.nkdl"}


class TestRunFiles:
    """Each run writes exactly its documented files, and a run that trains its
    own teacher writes the caches that ``run_teacher_training`` writes."""

    @pytest.mark.parametrize(
        "edit, run, summary, per_seed",
        [
            (("", ""), run_experiment, "summary.csv", STUDENT_FILES | TEACHER_FILES),
            (("teacher_layers = 4,12,3", "teacher_cache = teacher.nkdl"), run_experiment,
             "summary.csv", STUDENT_FILES),
            (("rule = fixed:4\n", ""), run_experiment, "summary.csv", STUDENT_FILES),
            (("", ""), run_teacher_training, "teacher_summary.csv",
             TEACHER_FILES | {"teacher_history.csv"}),
        ],
    )
    def test_exact_files(self, tmp_path, edit, run, summary, per_seed):
        train_ds, _ = write_demo_inputs(tmp_path)
        teacher = init_mlp(MlpSpec((4, 12, 3), init_seed=0))
        write_logit_cache(tmp_path / "teacher.nkdl", cache_teacher_logits(teacher, train_ds))
        run(load_experiment_config(write_config(tmp_path, BASE_CONFIG.replace(*edit)), env={}))
        out = tmp_path / "out"
        got = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert got == {summary} | {f"seed{k}/{name}" for k in (0, 1) for name in per_seed}

    @pytest.mark.parametrize("extra", ["", "teacher_epochs = 2\nteacher_weight_decay = 0.01\n"])
    def test_distill_teacher_equals_train_teacher(self, tmp_path, extra):
        write_demo_inputs(tmp_path)
        text = BASE_CONFIG + extra
        run_experiment(load_experiment_config(write_config(tmp_path, text), env={}))
        text = text.replace("output_dir = out", "output_dir = teachers")
        run_teacher_training(load_experiment_config(write_config(tmp_path, text), env={}))
        for k in (0, 1):
            for name in sorted(TEACHER_FILES):
                got = (tmp_path / "out" / f"seed{k}" / name).read_bytes()
                assert got == (tmp_path / "teachers" / f"seed{k}" / name).read_bytes(), (k, name)


class TestTeacherRecipe:
    """The teacher_* keys override the student's schedule as documented."""

    STUDENT = "epochs = 6\nlr_decay_epochs = 2,4\n"

    @pytest.mark.parametrize(
        "extra, epochs, decay, weight_decay",
        [
            ("teacher_epochs = 5\n", 5, (), 5e-4),
            ("teacher_epochs = 5\nteacher_lr_decay_epochs = 3\n", 5, (3,), 5e-4),
            ("teacher_weight_decay = 0.01\n", 6, (2, 4), 0.01),
            ("", 6, (2, 4), 5e-4),
        ],
    )
    def test_teacher_cache_matches_hand_built_recipe(
        self, tmp_path, extra, epochs, decay, weight_decay
    ):
        train_ds, val_ds = write_demo_inputs(tmp_path)
        text = BASE_CONFIG.replace("seeds = 0,1", "seeds = 1").replace("epochs = 3\n", "")
        run_teacher_training(
            load_experiment_config(write_config(tmp_path, text + self.STUDENT + extra), env={})
        )
        recipe = TrainConfig(
            epochs=epochs,
            batch_size=16,
            weight_decay=weight_decay,
            lr_decay_epochs=decay,
            alpha=1.0,
            beta=0.0,
            seed=1,
        )
        params, _ = train(MlpSpec((4, 12, 3), init_seed=1), recipe, train_ds, None, val_ds)
        for split, ds in (("train", train_ds), ("val", val_ds)):
            write_logit_cache(tmp_path / f"hand.{split}.nkdl", cache_teacher_logits(params, ds))
            got = (tmp_path / "out" / "seed1" / f"teacher.{split}.nkdl").read_bytes()
            assert got == (tmp_path / f"hand.{split}.nkdl").read_bytes()


def fake_cache(rng, n, c):
    labels = rng.integers(0, c, size=n)
    return LogitCache(np.arange(n), labels, rng.normal(0, 2, size=(n, c)))


def with_logits(cache, logits):
    """A cache of the same samples and labels holding other logits."""
    return LogitCache(cache.sample_ids, cache.labels, logits)


class TestAnalyze:
    def test_identical_caches_zero_matrices(self):
        rng = np.random.default_rng(0)
        cache = fake_cache(rng, 12, 4)
        result = analyze(cache, cache)
        np.testing.assert_array_equal(result.raw_matrix, np.zeros((4, 4)))
        np.testing.assert_array_equal(result.norm_matrix, np.zeros((4, 4)))
        assert frobenius(result.raw_matrix) == 0.0

    def test_matrix_entries_nonnegative(self):
        rng = np.random.default_rng(1)
        teacher = fake_cache(rng, 30, 5)
        student = with_logits(teacher, teacher.logits + rng.normal(0, 0.5, size=(30, 5)))
        result = analyze(teacher, student)
        assert np.all(result.raw_matrix >= 0)
        assert np.all(result.norm_matrix >= 0)
        assert frobenius(result.raw_matrix) > 0

    def test_sigma_column_matches_sample_std(self):
        rng = np.random.default_rng(2)
        teacher = fake_cache(rng, 10, 4)
        student = with_logits(teacher, rng.normal(size=(10, 4)))
        result = analyze(teacher, student)
        for i, z in enumerate(teacher.logits):
            assert result.teacher_stats.sigma[i] == sample_std(z)
        for i, z in enumerate(student.logits):
            assert result.student_stats.sigma[i] == sample_std(z)

    def test_mismatched_caches_rejected(self):
        rng = np.random.default_rng(3)
        teacher = fake_cache(rng, 5, 4)
        student = fake_cache(rng, 6, 4)
        with pytest.raises(ContractError):
            analyze(teacher, student)
        other = fake_cache(rng, 5, 4)
        shuffled = LogitCache(other.sample_ids[::-1], other.labels[::-1], other.logits[::-1])
        with pytest.raises(ContractError):
            analyze(teacher, shuffled)
        with pytest.raises(ContractError, match="^caches disagree on class count$"):
            analyze(teacher, fake_cache(rng, 5, 3))

    @pytest.mark.parametrize("side", ["teacher", "student"])
    def test_overflowing_row_std_is_a_numeric_error_naming_the_row(self, side):
        rng = np.random.default_rng(5)
        finite = fake_cache(rng, 4, 3)
        logits = finite.logits.copy()
        logits[2] = [1e300, -1e300, 0.0]
        caches = [finite, with_logits(finite, logits)]
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^row 2 has a logit std that is not finite: inf$"
        ):
            analyze(*(caches if side == "student" else caches[::-1]))

    def test_write_analysis_files(self, tmp_path):
        rng = np.random.default_rng(4)
        teacher = fake_cache(rng, 8, 3)
        student = with_logits(teacher, rng.normal(size=(8, 3)))
        summary_path, matrix_path = write_analysis(analyze(teacher, student), tmp_path)
        with summary_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert "teacher_sigma" in rows[0]
        with matrix_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        assert {r["variant"] for r in rows} == {"raw", "normalized"}


    @pytest.mark.parametrize("t_norm", [0.0, -1.0, float("nan")])
    def test_non_positive_t_norm_rejected(self, t_norm):
        cache = fake_cache(np.random.default_rng(5), 4, 3)
        with pytest.raises(ContractError, match="t_norm must be strictly positive"):
            analyze(cache, cache, t_norm=t_norm)

    def test_write_analysis_matches_per_value_repr(self, tmp_path):
        # reference rendering: one repr(float(...)) per cell, the format of the CSV contract
        rng = np.random.default_rng(7)
        teacher = fake_cache(rng, 6, 3)
        student = with_logits(teacher, rng.normal(size=(6, 3)))
        result = analyze(teacher, student)
        summary_path, matrix_path = write_analysis(result, tmp_path)
        lines = summary_path.read_text().splitlines()
        for i, line in enumerate(lines[1:]):
            cells = [str(int(result.sample_ids[i])), str(int(result.labels[i]))]
            for stat in ("sigma", "v_max", "v_min", "entropy"):
                cells += [repr(float(getattr(result.teacher_stats, stat)[i])),
                          repr(float(getattr(result.student_stats, stat)[i]))]
            assert line == ",".join(cells)
        rows = matrix_path.read_text().splitlines()[1:]
        assert rows[4] == ",".join(
            ["normalized", "1"] + [repr(float(v)) for v in result.norm_matrix[1]]
        )


def whole_array_analysis(teacher, student, t_norm=2.0):
    """What ``analyze`` computed before it went through row blocks: each side's
    statistics from whole-cache arrays, and each matrix from two whole-cache
    probability arrays subtracted class by class."""

    def stats(z):
        log_p = log_softmax_values(z)
        sigma = std_rows(z)[:, 0]
        entropy = -(np.exp(log_p) * log_p).sum(axis=1)
        counts, edges = np.histogram(sigma, bins=50, range=(sigma.min(), sigma.max()))
        return sigma, z.mean(axis=1), z.max(axis=1), z.min(axis=1), entropy, counts, edges

    def diff_matrix(p_s, p_t, labels):
        out = np.zeros((p_s.shape[1],) * 2)
        for c1 in range(len(out)):
            mask = labels == c1
            if mask.any():
                out[c1] = np.abs((p_s[mask] - p_t[mask]).mean(axis=0))
        return out

    rule, labels, z_t, z_s = NormStd(t_norm), teacher.labels, teacher.logits, student.logits
    raw = diff_matrix(np.exp(log_softmax_values(z_s)), np.exp(log_softmax_values(z_t)), labels)
    norm = diff_matrix(teacher_side(rule, z_s)[1], teacher_side(rule, z_t)[1], labels)
    return stats(z_t), stats(z_s), raw, norm


def summary_arrays(summary):
    return tuple(getattr(summary, f.name) for f in fields(summary))


def degenerate_pair(n, c, seed):
    """Teacher and student caches of ``n`` rows and ``c`` classes with constant
    rows on both sides and, for ``c`` > 2, a class with no samples."""
    rng = np.random.default_rng([n, c, seed])
    labels = rng.integers(0, c, size=n)
    if c > 2:
        labels[labels == c - 1] = 0
    z_t, z_s = rng.normal(0.0, 2.0, size=(n, c)), rng.normal(0.0, 3.0, size=(n, c))
    z_t[::4], z_s[1::3] = z_t[::4, :1], 0.5
    return LogitCache(np.arange(n), labels, z_t), LogitCache(np.arange(n), labels, z_s)


class TestBlockedAnalyze:
    B = experiment.ANALYZE_BLOCK_ROWS

    @pytest.mark.parametrize("c", [2, 3, 100])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_equals_whole_array_formulas_bytes(self, n, c):
        teacher, student = degenerate_pair(n, c, 0)
        result = analyze(teacher, student)
        t_stats, s_stats, raw, norm = whole_array_analysis(teacher, student)
        for got, want in [(summary_arrays(result.teacher_stats), t_stats),
                          (summary_arrays(result.student_stats), s_stats),
                          ((result.raw_matrix, result.norm_matrix), (raw, norm))]:
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # summarize is the whole-array form of the same columns
        assert [a.tobytes() for a in summary_arrays(summarize(teacher))] == [
            a.tobytes() for a in t_stats
        ]
        if c > 2:
            assert not result.raw_matrix[c - 1].any() and not result.norm_matrix[c - 1].any()

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_any_block_size_gives_the_same_bytes(self, tmp_path, monkeypatch, block):
        teacher, student = degenerate_pair(50, 5, 1)
        files = {}
        for rows in (self.B, block):
            monkeypatch.setattr(experiment, "ANALYZE_BLOCK_ROWS", rows)
            paths = write_analysis(analyze(teacher, student, t_norm=1.5), tmp_path / str(rows))
            files[rows] = [p.read_bytes() for p in paths]
        assert files[block] == files[self.B]

    def test_keeps_no_whole_cache_matrix(self):
        # one (N, C) float64 array would be 26 MB here; the blocks' temporaries and the
        # ten float64 result columns stay well below that
        n, c = 32768, 100
        teacher, student = degenerate_pair(n, c, 2)
        tracemalloc.start()
        try:
            analyze(teacher, student)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * teacher.logits.nbytes

    def test_summary_csv_is_the_csv_writer_rendering(self, tmp_path):
        rng = np.random.default_rng(8)
        # magnitudes from 1e-150 to 1e150, exact zeros and negative values
        scale = 10.0 ** rng.integers(-150, 150, size=(40, 1))
        teacher = fake_cache(rng, 40, 4)
        teacher = with_logits(teacher, teacher.logits * scale)
        student = with_logits(teacher, np.where(rng.random((40, 4)) < 0.3, 0.0, -teacher.logits))
        result = analyze(teacher, student)
        summary_path, _ = write_analysis(result, tmp_path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["sample_id", "label"]
        columns = [result.sample_ids, result.labels]
        for stat in ("sigma", "v_max", "v_min", "entropy"):
            header += [f"teacher_{stat}", f"student_{stat}"]
            columns += [getattr(result.teacher_stats, stat), getattr(result.student_stats, stat)]
        writer.writerow(header)
        writer.writerows(zip(*(map(repr, col.tolist()) for col in columns)))
        assert summary_path.read_bytes() == buf.getvalue().encode()


class TestAnalyzeDemoRun:
    def test_normkd_student_matches_normalized_logits_better_than_raw(self):
        """On the bundled desk-scale run, the per-sample-normalized
        difference matrix of a NormKD-trained student is much smaller in
        Frobenius norm than the raw (T=1) one: the student learns the
        teacher's normalized logit shape, not its scale."""
        from normkd.datasets import make_blobs
        from normkd.logitstats import NormStd
        from normkd.trainer import MlpSpec, TrainConfig, cache_teacher_logits, train

        train_ds, val_ds = make_blobs(10, 16, 200, 2.0, seed=42)
        teacher_cfg = TrainConfig(
            epochs=60, lr_decay_epochs=(42, 52), alpha=1.0, beta=0.0,
            weight_decay=2e-2, seed=0,
        )
        t_params, _ = train(MlpSpec((16, 64, 10), init_seed=0), teacher_cfg, train_ds, None)
        cache = cache_teacher_logits(t_params, train_ds)
        student_cfg = TrainConfig(
            epochs=60, lr_decay_epochs=(42, 52), alpha=0.1, beta=0.9,
            weight_decay=5e-2, rule=NormStd(2.0), seed=0,
        )
        s_params, _ = train(MlpSpec((16, 8, 10), init_seed=0), student_cfg, train_ds, cache)
        result = analyze(
            cache_teacher_logits(t_params, val_ds), cache_teacher_logits(s_params, val_ds)
        )
        assert frobenius(result.norm_matrix) < frobenius(result.raw_matrix)


def _public_instance(name, rng):
    """The audit's instance ``name``, drawn from ``rng`` in ``_loss_instance``'s
    order, as a function of the student through the public loss entry points."""
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
        k = int(rng.integers(1, 4))
        temps = tuple(float(t) for t in rng.uniform(0.5, 6.0, k))
        return lambda s: multi_temp_kld(s, z_t, temps), z_s
    if name == "normkd":
        t_norm = float(rng.uniform(0.5, 3.0))
        return lambda s: normkd_loss(s, z_t, t_norm).node, z_s
    if name in ("maxval", "range"):
        rule = (MaxVal if name == "maxval" else Range)(float(rng.uniform(0.5, 3.0)))
        return lambda s: distill_loss(rule, s, z_t, labels, alpha=0.2, beta=0.8).node, z_s
    t = float(rng.uniform(1.0, 5.0))
    t_norm = float(rng.uniform(0.5, 3.0))
    return lambda s: combine(
        [
            (0.6, normkd_loss(s, z_t, t_norm).node),
            (0.4, kd_loss(s, z_t, labels, t, alpha=0.0, beta=1.0).node),
        ]
    ), z_s


def _taped_bytes(fn, z):
    tape = Tape()
    leaf = tape.leaf(z)
    out = fn(leaf)
    tape.backward(out)
    return out.data.tobytes(), leaf.grad.tobytes()


@pytest.mark.parametrize("name", GRAD_CHECK_LOSSES)
def test_audit_instances_equal_the_public_losses(name):
    """Each audit instance builds its teacher sides once.  Its terms' weighted
    totals have the value bytes of the public entry point it stands for, taped,
    and its replayed parts, summed in the tape's order, that taped leaf gradient."""
    stream = (GRAD_CHECK_SEED, GRAD_CHECK_LOSSES.index(name))
    audit_rng, public_rng = np.random.default_rng(stream), np.random.default_rng(stream)
    for _ in range(100):
        z_s, labels, terms = distill._loss_instance(name, audit_rng)
        public, z_public = _public_instance(name, public_rng)
        assert z_s.tobytes() == z_public.tobytes()
        value = sum(w * distill._stack_totals(rule, z_s[None], side, labels, a, b)
                    for w, rule, side, a, b in terms)
        grad = distill._tape_sum([part for w, rule, side, a, b in reversed(terms) for part in
                                  distill._logit_parts(rule, z_s, side, labels, a * w, b * w,
                                                       True, False)])
        assert (value[0].tobytes(), grad.tobytes()) == _taped_bytes(public, z_s)


class TestGradientCheckSuite:
    def test_one_row_per_loss_and_all_pass(self):
        results = gradient_check_suite(instances=5)
        assert [name for name, _ in results] == list(GRAD_CHECK_LOSSES)
        for name, err in results:
            assert err <= GRAD_CHECK_TOLERANCE, (name, err)

    @pytest.mark.parametrize("name", GRAD_CHECK_LOSSES)
    def test_injected_fault_detected(self, name):
        results = dict(gradient_check_suite(instances=2, inject_fault=name))
        assert results.pop(name) >= 0.5
        for other, err in results.items():
            assert err <= GRAD_CHECK_TOLERANCE, (other, err)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigError):
            gradient_check_suite(instances=1, inject_fault="nope")

    @pytest.mark.parametrize("instances", [0, -3])
    def test_no_instances_rejected(self, instances):
        with pytest.raises(ConfigError, match="instances must be at least 1"):
            gradient_check_suite(instances=instances)

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ConfigError, match="step must be finite and positive"):
            gradient_check_suite(instances=1, step=step)
