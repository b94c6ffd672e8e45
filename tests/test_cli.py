"""CLI subcommands, output determinism, and coded exit statuses."""

import csv
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normkd import experiment
from normkd.cli import main
from normkd.datasets import read_dataset
from normkd.logitcache import read_logit_cache, write_logit_cache
from normkd.logitstats import LogitCache


def gen_data(tmp_path, **overrides):
    args = {
        "classes": 3,
        "dim": 4,
        "per-class": 10,
        "separation": 3.0,
        "seed": 1,
        "out-prefix": str(tmp_path / "blobs"),
    }
    args.update(overrides)
    argv = ["gen-data"]
    for key, value in args.items():
        argv += [f"--{key}", str(value)]
    return main(argv)


class TestGenData:
    def test_writes_pair(self, tmp_path, capsys):
        assert gen_data(tmp_path) == 0
        train_ds = read_dataset(tmp_path / "blobs.train.txt")
        val_ds = read_dataset(tmp_path / "blobs.val.txt")
        assert train_ds.n_samples == 24
        assert val_ds.n_samples == 6
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        gen_data(tmp_path, **{"out-prefix": str(tmp_path / "a")})
        gen_data(tmp_path, **{"out-prefix": str(tmp_path / "b")})
        assert (tmp_path / "a.train.txt").read_bytes() == (tmp_path / "b.train.txt").read_bytes()
        assert (tmp_path / "a.val.txt").read_bytes() == (tmp_path / "b.val.txt").read_bytes()

    def test_contract_violation_exits_4(self, tmp_path, capsys):
        assert gen_data(tmp_path, classes=1) == 4
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_4_and_writes_nothing(self, tmp_path, capsys):
        assert gen_data(tmp_path, seed=-1) == 4
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_impossible_geometry_exits_2(self, tmp_path, capsys):
        assert gen_data(tmp_path, separation=1e308) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_write_names_the_requested_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        errs = []
        for _ in range(2):
            assert gen_data(tmp_path, **{"out-prefix": "nodir/x"}) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0] == "error: [Errno 2] No such file or directory: 'nodir/x.train.txt'\n"

    def test_failed_rename_names_the_file_and_leaves_no_temporary(self, tmp_path, capsys):
        (tmp_path / "isdir" / "x.train.txt").mkdir(parents=True)
        assert gen_data(tmp_path, **{"out-prefix": str(tmp_path / "isdir" / "x")}) == 3
        target = tmp_path / "isdir" / "x.train.txt"
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
        assert [p.name for p in (tmp_path / "isdir").iterdir()] == ["x.train.txt"]


def rows(logits, labels):
    """A LogitCache of the given rows and labels, with ids 0..N-1."""
    return LogitCache(np.arange(len(labels)), np.array(labels), np.array(logits, dtype=float))


def write_config(tmp_path, extra="", drop=()):
    lines = [
        "train_data = blobs.train.txt",
        "val_data = blobs.val.txt",
        "teacher_layers = 4,12,3",
        "student_layers = 4,6,3",
        "rule = normstd:2.0",
        "seeds = 0,1",
        "output_dir = out",
        "epochs = 2",
        "batch_size = 16",
    ]
    lines = [ln for ln in lines if not any(ln.startswith(d) for d in drop)]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n" + extra)
    return path


OVERFLOW = ": record 0 has logits outside the float32 range"


class TestDistillCommand:
    def test_end_to_end(self, tmp_path, capsys):
        gen_data(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["distill", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "seed=aggregate" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["distill", "--config", str(cfg)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        gen_data(tmp_path)
        cfg = write_config(tmp_path, extra="mystery = 1\n")
        assert main(["distill", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "line", ["weight_decay = nan", "alpha = nan", "beta = inf", "lr_decay_rate = inf"]
    )
    def test_non_finite_recipe_exits_2_before_training(self, tmp_path, capsys, line):
        gen_data(tmp_path)
        cfg = write_config(tmp_path, extra=line + "\n")
        assert main(["distill", "--config", str(cfg)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "seed0").exists()

    @pytest.mark.parametrize(
        "line,message",
        [
            (f"seeds = {2**64}", f"seeds must be below 2**64, got ({2**64},)"),
            ("rule = fixed:inf", "bad temperature rule 'fixed:inf': temperature must be finite"),
            ("seeds = 0,-1", "seeds must be nonnegative, got (0, -1)"),
            ("seeds =", "seed list is empty"),
            ("seeds = 1,x", "seeds: expected comma-separated integers, got '1,x'"),
            ("std_corrected = maybe", "std_corrected: expected true/false, got 'maybe'"),
            ("learning_rate = fast", "learning_rate: bad value 'fast'"),
        ],
    )
    def test_bad_config_value_exits_2_and_writes_nothing(self, tmp_path, capsys, line, message):
        gen_data(tmp_path)
        cfg = write_config(tmp_path, extra=line + "\n", drop=(line.split()[0],))
        before = sorted(tmp_path.rglob("*"))
        assert main(["distill", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("classes", "teacher cache record 0 has 5 classes, dataset has 3"),
            ("reordered", "teacher cache record 0 (sample_id=23, label="),
        ],
    )
    def test_teacher_cache_that_does_not_fit_the_data_exits_4(self, tmp_path, capsys, kind,
                                                               message):
        gen_data(tmp_path)
        labels = read_dataset(tmp_path / "blobs.train.txt").labels
        ids = np.arange(labels.size)
        cache = (LogitCache(ids, labels, np.zeros((labels.size, 5))) if kind == "classes"
                 else LogitCache(ids[::-1], labels[::-1], np.zeros((labels.size, 3))))
        write_logit_cache(tmp_path / "teacher.nkdl", cache)
        cfg = write_config(
            tmp_path, extra="teacher_cache = teacher.nkdl\n", drop=("teacher_layers",)
        )
        assert main(["distill", "--config", str(cfg)]) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_that_is_a_file_exits_3(self, tmp_path, capsys):
        gen_data(tmp_path)
        (tmp_path / "out").write_bytes(b"kept")
        cfg, stage = write_config(tmp_path), tmp_path / "out" / ".seed0.partial"
        assert main(["distill", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: [Errno 20] Not a directory: '{stage}'\n"
        assert (tmp_path / "out").read_bytes() == b"kept"

    @pytest.mark.parametrize("command", ["distill", "train-teacher"])
    def test_output_dir_that_is_a_file_is_refused_before_any_model_trains(
        self, tmp_path, capsys, monkeypatch, command
    ):
        gen_data(tmp_path)
        (tmp_path / "out").write_bytes(b"kept")
        monkeypatch.setattr(experiment, "train", lambda *args: pytest.fail("a model trained"))
        assert main([command, "--config", str(write_config(tmp_path))]) == 3
        stage = tmp_path / "out" / ".seed0.partial"
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{stage}'\n"
        assert (tmp_path / "out").read_bytes() == b"kept"

    def test_cache_shape_mismatch_exits_4(self, tmp_path):
        gen_data(tmp_path)
        write_logit_cache(tmp_path / "teacher.nkdl", rows(np.zeros((3, 5)), [0, 0, 0]))
        cfg = write_config(
            tmp_path, extra="teacher_cache = teacher.nkdl\n", drop=("teacher_layers",)
        )
        assert main(["distill", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize("key", ["train_data", "val_data", "output_dir", "teacher_cache"])
    def test_empty_path_exits_2_and_writes_nothing(self, tmp_path, capsys, key):
        gen_data(tmp_path)
        cfg = write_config(tmp_path, extra=f"{key} =\n", drop=(key,))
        before = sorted(tmp_path.rglob("*"))
        assert main(["distill", "--config", str(cfg)]) == 2
        assert f"{key} is empty" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "command,line,code,message",
        [
            ("distill", "student_layers =", 2, "need at least [input, classes] widths, got ()"),
            ("train-teacher", "teacher_layers = 4,5", 4, "spec class width 5 != dataset classes 3"),
            # a refused cache names its file: the model and the seed
            ("distill", "learning_rate = 1e30", 4,
             "/out/.seed0.partial/teacher.train.nkdl" + OVERFLOW),
            ("train-teacher", "learning_rate = 1e30", 4,
             "/out/.seed0.partial/teacher.train.nkdl" + OVERFLOW),
            # the teacher's caches are written, then the student's fail their checks
            ("distill", "learning_rate = 1e30\nteacher_epochs = 0", 4,
             "/out/.seed0.partial/student.train.nkdl" + OVERFLOW),
            ("distill", "output_dir = runs/a/out\nlearning_rate = 1e30\nteacher_epochs = 0", 4,
             "/runs/a/out/.seed0.partial/student.train.nkdl" + OVERFLOW),
        ],
    )
    def test_failed_run_leaves_no_output_dir(self, tmp_path, capsys, command, line, code, message):
        gen_data(tmp_path)
        cfg = write_config(tmp_path, extra=line + "\n", drop=(line.split()[0],))
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(cfg)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("command", ["distill", "train-teacher"])
    def test_empty_split_exits_4_before_training(self, tmp_path, capsys, command, split):
        gen_data(tmp_path)
        (tmp_path / f"blobs.{split}.txt").write_text("3 4 0\n")
        cfg = write_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert f"error: {tmp_path / f'blobs.{split}.txt'}: dataset is empty" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["distill", "train-teacher"])
    def test_non_utf8_config_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        gen_data(tmp_path)
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("command", ["distill", "train-teacher"])
    def test_non_utf8_dataset_exits_3_and_writes_nothing(self, tmp_path, capsys, command, split):
        gen_data(tmp_path)
        data = tmp_path / f"blobs.{split}.txt"
        data.write_bytes(data.read_bytes().replace(b"\n", b" \xff\n", 1))
        cfg = write_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read dataset {data}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_bad_dataset_header_exits_3(self, tmp_path, capsys):
        gen_data(tmp_path)
        (tmp_path / "blobs.train.txt").write_text("3 -1 2\n0,1.0\n1,2.0\n")
        cfg = write_config(tmp_path)
        assert main(["distill", "--config", str(cfg)]) == 3
        assert "header '3 -1 2' needs C >= 1, D >= 1, N >= 0" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        gen_data(tmp_path)
        cfg = write_config(tmp_path)
        monkeypatch.setenv("NORMKD_SEED", "3")
        assert main(["distill", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out
        assert "seed=0" not in out


class TestTrainTeacherCommand:
    def test_writes_caches_and_summary(self, tmp_path, capsys):
        gen_data(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train-teacher", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "teacher_summary.csv").exists()
        records = read_logit_cache(tmp_path / "out" / "seed0" / "teacher.train.nkdl")
        assert len(records) == 24

    def test_no_teacher_layers_exits_2_and_writes_nothing(self, tmp_path, capsys):
        gen_data(tmp_path)
        cfg = write_config(tmp_path, drop=("rule", "teacher_layers"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["train-teacher", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: teacher training requires teacher_layers\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_bad_student_recipe_exits_2_before_training(self, tmp_path, capsys):
        # the student recipe is validated at load even though no student trains
        gen_data(tmp_path)
        cfg = write_config(tmp_path, extra="weight_decay = nan\nteacher_weight_decay = 0.01\n")
        assert main(["train-teacher", "--config", str(cfg)]) == 2
        assert "weight_decay must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvalCommand:
    def test_accuracy_from_cache(self, tmp_path, capsys):
        write_logit_cache(tmp_path / "c.nkdl", rows([[3.0, 0.0], [2.0, 1.0]], [0, 1]))
        assert main(["eval", "--cache", str(tmp_path / "c.nkdl")]) == 0
        assert "top1=0.5 (1/2)" in capsys.readouterr().out

    def test_exact_ties_count_the_first_index(self, tmp_path, capsys):
        # every row has a tied maximum; the first tied class is the prediction
        logits = [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [-3.0, 5.0, 5.0], [2.0, 2.0, 2.0]]
        write_logit_cache(tmp_path / "ties.nkdl", rows(logits, [0, 2, 1, 2]))
        assert main(["eval", "--cache", str(tmp_path / "ties.nkdl")]) == 0
        assert "top1=0.5 (2/4)" in capsys.readouterr().out

    def test_bad_cache_exits_3(self, tmp_path, capsys):
        (tmp_path / "junk.nkdl").write_bytes(b"not a cache")
        assert main(["eval", "--cache", str(tmp_path / "junk.nkdl")]) == 3

    @pytest.mark.parametrize(
        "content,code,message",
        [
            (struct.pack("<4sIII", b"NKDL", 1, 0, 3), 4, "{}: cache has no records"),
            (struct.pack("<4sIII", b"NKDL", 1, 0, 0), 3, "{}: class count must be positive, got 0"),
            (struct.pack("<4sIII", b"NKDL", 1, 0, 2**32 - 1), 3,
             "{}: class count 4294967295 is too large"),
            (None, 3, "cannot read cache {}: [Errno 2] No such file or directory"),
        ],
        ids=["no_records", "no_classes", "too_many_classes", "missing"],
    )
    def test_unusable_cache_exits_coded(self, tmp_path, capsys, content, code, message):
        path = tmp_path / "c.nkdl"
        if content is not None:
            path.write_bytes(content)
        assert main(["eval", "--cache", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message.format(path)}")
        assert not captured.out


class TestAnalyzeCommand:
    def test_runs_on_distill_outputs(self, tmp_path, capsys):
        gen_data(tmp_path)
        cfg = write_config(tmp_path)
        main(["distill", "--config", str(cfg)])
        code = main(
            [
                "analyze",
                "--teacher-cache", str(tmp_path / "out" / "seed0" / "teacher.val.nkdl"),
                "--student-cache", str(tmp_path / "out" / "seed0" / "student.val.nkdl"),
                "--out-dir", str(tmp_path / "analysis"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frobenius raw=" in out
        assert (tmp_path / "analysis" / "analyze_summary.csv").exists()
        with (tmp_path / "analysis" / "analyze_matrix.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["variant"] for r in rows} == {"raw", "normalized"}

    def test_mismatched_caches_exit_4(self, tmp_path):
        write_logit_cache(tmp_path / "a.nkdl", rows(np.zeros((1, 3)), [0]))
        write_logit_cache(tmp_path / "b.nkdl", rows(np.zeros((1, 3)), [1]))
        assert (
            main(
                [
                    "analyze",
                    "--teacher-cache", str(tmp_path / "a.nkdl"),
                    "--student-cache", str(tmp_path / "b.nkdl"),
                    "--out-dir", str(tmp_path / "x"),
                ]
            )
            == 4
        )


    @pytest.mark.parametrize("t_norm", ["0", "-1"])
    def test_non_positive_t_norm_exits_4(self, tmp_path, capsys, t_norm):
        write_logit_cache(tmp_path / "a.nkdl", rows([[1.0, 0.0, 2.0]], [0]))
        argv = [
            "analyze",
            "--teacher-cache", str(tmp_path / "a.nkdl"),
            "--student-cache", str(tmp_path / "a.nkdl"),
            "--out-dir", str(tmp_path / "x"),
            "--t-norm", t_norm,
        ]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "t_norm must be strictly positive" in captured.err
        assert "frobenius" not in captured.out
        assert not (tmp_path / "x").exists()


    def test_infinite_t_norm_exits_4(self, tmp_path, capsys):
        write_logit_cache(tmp_path / "a.nkdl", rows([[1.0, 0.0, 2.0]], [0]))
        argv = [
            "analyze",
            "--teacher-cache", str(tmp_path / "a.nkdl"),
            "--student-cache", str(tmp_path / "a.nkdl"),
            "--out-dir", str(tmp_path / "x"),
            "--t-norm", "inf",
        ]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: t_norm must be finite, got inf\n"
        assert not captured.out
        assert not (tmp_path / "x").exists()


class TestGradCheckCommand:
    def test_passes_and_lists_every_loss(self, capsys):
        assert main(["grad-check", "--instances", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 6
        assert all("ok" in line for line in out)

    def test_injected_fault_exits_nonzero(self, capsys):
        assert main(["grad-check", "--instances", "2", "--inject-fault", "kd"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_a_config_error(self, capsys, instances):
        assert main(["grad-check", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "instances must be at least 1" in captured.err
        assert "ok" not in captured.out

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_bad_step_is_a_config_error(self, capsys, step):
        assert main(["grad-check", "--instances", "1", "--step", step]) == 2
        captured = capsys.readouterr()
        assert "step must be finite and positive" in captured.err
        assert "ok" not in captured.out


@pytest.mark.parametrize("fault,code", [([], 0), (["--inject-fault", "kd"], 1)])
def test_python_dash_m_runs_the_cli(fault, code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "normkd", "grad-check", "--instances", "2", *fault],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert all(line.endswith(" ok") for line in lines) == (code == 0)
