"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` (timed, and
repeated by the driver), runs one timed pass in ``run_pass``, and checks
that pass in ``check`` (untimed), which returns the durations of the
pass's timed calls.  ``stages`` maps each end-to-end rate to its name in
the issue, the units of work in one round of its calls, and those calls;
the rate is the work of every round in the run over their total time.

Calls into normkd go through the module objects given at construction,
looked up at call time, so the tracer's wrappers see them.  ``step``
names each call the benchmark makes: the tracer turns it into a root
span, and the harness may time its reference loop before it, so each
call is timed inside its ``step`` block.

* ``desk``: the README CLI sequence through ``normkd.cli.main``.  It is
  bound by per-node Python overhead on the tape (64x10 batches).
* ``wide_loss``: ``distill_loss`` called directly on (1024, 100) and
  (16384, 100) batches, value-only and taped with backward.  It is bound
  by array traffic; at N = 16384 the tape outgrows the last-level cache.
* ``big_cache``: 100k x 100 logit caches written, read by ``eval`` and
  analysed by ``analyze``.  No training, no tape.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles



class Checks:
    """Counts checked operations and keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {detail}" if detail else name)


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run ``normkd.cli.main(argv)`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _csv_rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _rows_of_text_dataset(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return int(fh.readline().split()[2])


_EVAL_LINE = re.compile(r"top1=\S+ \((\d+)/(\d+)\)")
_FROB_LINE = re.compile(r"frobenius (raw|normalized)=(\S+)")


def _check_eval(checks: Checks, name: str, stdout: str, hits: int, rows: int) -> None:
    found = _EVAL_LINE.search(stdout)
    got = (int(found.group(1)), int(found.group(2))) if found else None
    checks.record(f"{name} top-1 equals an independent argmax", got == (hits, rows),
                  f"cli printed {got}, oracle {(hits, rows)}")


def _check_analyze(checks: Checks, name: str, stdout: str, expected: tuple[float, float]) -> None:
    got = {kind: float(value) for kind, value in _FROB_LINE.findall(stdout)}
    for kind, ref in zip(("raw", "normalized"), expected):
        err = oracles.rel_err(got[kind], ref) if kind in got else math.inf
        checks.record(f"{name} frobenius {kind}", err <= oracles.VALUE_RTOL,
                      f"cli {got.get(kind)} vs oracle {ref!r}")


# ---------------------------------------------------------------------------
# desk


DESK_DATA = ("--classes", "10", "--dim", "16", "--per-class", "200", "--separation", "2.0")
DESK_RECIPE = {
    "student_layers": "16,8,10",
    "epochs": "60",
    "lr_decay_epochs": "42,52",
    "batch_size": "64",
    "learning_rate": "0.05",
    "weight_decay": "0.05",
    "alpha": "0.1",
    "beta": "0.9",
}
DESK_TEACHER = {"teacher_layers": "16,64,10", "teacher_weight_decay": "0.02"}
# Acceptance criteria 6 and 7.  multiset runs at learning rate 0.01 as in
# criterion 7; at the README's 0.05 it collapses to chance, a known defect
# this workload does not cover (see README.md).
DESK_ARMS = (
    ("none", {"alpha": "1.0", "beta": "0.0"}),
    ("fixed", {"rule": "fixed:4"}),
    ("multiset", {"rule": "multiset:1,2,4", "learning_rate": "0.01"}),
    ("normstd", {"rule": "normstd:2.0"}),
    ("maxval", {"rule": "maxval:1.0"}),
    ("range", {"rule": "range:1.0"}),
)
# the arms whose temperature is set per sample (the paper's method)
PER_SAMPLE_ARMS = ("normstd", "maxval", "range")
# far above the 0.10 chance rate; every arm scores 0.90-0.97 on this data
DESK_MIN_TOP1 = 0.5
# grad-check's default instance count per loss
GRADCHECK_INSTANCES = 100
GRADCHECK_CALLS = ("grad-check.1", "grad-check.2")


class Desk:
    name = "desk"

    def __init__(self, nk, seed: int, workdir: Path):
        self.nk, self.seed, self.workdir = nk, seed, workdir
        self.first_digest: dict[str, str] | None = None

    def setup(self) -> None:
        """Write and parse the seven experiment configs of one pass."""
        seed_dir = f"seed{self.seed}"
        common = dict(DESK_RECIPE, train_data="demo.train.txt", val_data="demo.val.txt",
                      seeds=str(self.seed))
        configs = {"teacher": dict(common, output_dir="teacher", **DESK_TEACHER)}
        for arm, overrides in DESK_ARMS:
            configs[arm] = dict(common, output_dir=arm,
                                teacher_cache=f"teacher/{seed_dir}/teacher.train.nkdl", **overrides)
        self.configs = {
            name: "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in configs.items()
        }
        probe = self.workdir / "setup"
        shutil.rmtree(probe, ignore_errors=True)
        probe.mkdir(parents=True)
        for name, text in self.configs.items():
            (probe / f"{name}.cfg").write_text(text)
            self.nk.experiment.load_experiment_config(probe / f"{name}.cfg", env={})

    def prepare_checks(self) -> None:
        pass

    def run_pass(self, index: int, step) -> dict:
        pass_dir = self.workdir / f"pass{index}"
        pass_dir.mkdir(parents=True)
        for name, text in self.configs.items():
            (pass_dir / f"{name}.cfg").write_text(text)
        seed_dir = f"seed{self.seed}"
        cli = self.nk.cli
        calls = [
            ("gen-data", ["gen-data", *DESK_DATA, "--seed", str(self.seed),
                          "--out-prefix", str(pass_dir / "demo")]),
            ("train-teacher", ["train-teacher", "--config", str(pass_dir / "teacher.cfg")]),
            # grad-check runs early and last, so each pass has two samples of it
            ("grad-check.1", ["grad-check"]),
            *((f"distill.{arm}", ["distill", "--config", str(pass_dir / f"{arm}.cfg")])
              for arm, _ in DESK_ARMS),
            ("eval", ["eval", "--cache", str(pass_dir / f"normstd/{seed_dir}/student.val.nkdl")]),
            ("analyze", ["analyze",
                         "--teacher-cache", str(pass_dir / f"teacher/{seed_dir}/teacher.val.nkdl"),
                         "--student-cache", str(pass_dir / f"normstd/{seed_dir}/student.val.nkdl"),
                         "--out-dir", str(pass_dir / "analysis")]),
            ("grad-check.2", ["grad-check"]),
        ]
        results = {}
        for name, argv in calls:
            with step(name):
                t0 = perf_counter()
                code, out, err = call_cli(cli, argv)
                results[name] = (code, out, err, perf_counter() - t0)
        return {"dir": pass_dir, "calls": results}

    def check(self, result: dict, checks: Checks) -> dict[str, list[float]]:
        """Check one pass; return the durations of its timed calls."""
        pass_dir, calls = result["dir"], result["calls"]
        seed_dir = f"seed{self.seed}"
        for name, (code, _, err, _) in calls.items():
            checks.record(f"desk {name} exits 0", code == 0, err.strip()[-300:])
        histories = {"teacher": pass_dir / "teacher" / seed_dir / "teacher_history.csv"}
        summaries = {"teacher": pass_dir / "teacher" / "teacher_summary.csv"}
        for arm, _ in DESK_ARMS:
            histories[arm] = pass_dir / arm / seed_dir / "history.csv"
            summaries[arm] = pass_dir / arm / "summary.csv"
        for arm, path in histories.items():
            finite = path.is_file() and all(
                math.isfinite(float(row[k]))
                for row in _csv_rows(path) for k in ("ce", "kld", "total")
            )
            checks.record(f"desk {arm} history losses finite", finite)
        for arm, path in summaries.items():
            rows = _csv_rows(path) if path.is_file() else []
            top1 = float(rows[0]["top1"]) if rows else math.nan
            checks.record(f"desk {arm} val top-1 >= {DESK_MIN_TOP1}", top1 >= DESK_MIN_TOP1,
                          f"top1={top1}")

        student = pass_dir / "normstd" / seed_dir / "student.val.nkdl"
        teacher = pass_dir / "teacher" / seed_dir / "teacher.val.nkdl"
        if student.is_file() and teacher.is_file():
            _check_eval(checks, "desk eval", calls["eval"][1],
                        *oracles.argmax_hits(student.read_bytes()))
            _check_analyze(checks, "desk analyze", calls["analyze"][1],
                           oracles.analyze_frobenius(teacher.read_bytes(), student.read_bytes()))
        else:
            checks.record("desk caches written", False)
        for name in GRADCHECK_CALLS:
            grad_lines = calls[name][1].splitlines()
            checks.record(f"desk {name} clean", bool(grad_lines)
                          and all(line.endswith(" ok") for line in grad_lines))

        digest = tree_digest(pass_dir)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            checks.record("desk pass byte-identical to the first", digest == self.first_digest)

        train_rows = _rows_of_text_dataset(pass_dir / "demo.train.txt")
        shutil.rmtree(pass_dir)
        steps = int(DESK_RECIPE["epochs"]) * math.ceil(train_rows / int(DESK_RECIPE["batch_size"]))
        self.stages = {
            "stage1_per_s": ("student_steps_per_s", len(DESK_ARMS) * steps,
                             [f"distill.{arm}" for arm, _ in DESK_ARMS]),
            "stage2_per_s": ("teacher_steps_per_s", steps, ["train-teacher"]),
            "stage3_per_s": ("gradcheck_instances_per_s",
                             len(GRADCHECK_CALLS) * len(grad_lines) * GRADCHECK_INSTANCES,
                             list(GRADCHECK_CALLS)),
            "stage4_per_s": ("per_sample_steps_per_s", len(PER_SAMPLE_ARMS) * steps,
                             [f"distill.{arm}" for arm in PER_SAMPLE_ARMS]),
        }
        return {name: [call[3]] for name, call in calls.items()}


# ---------------------------------------------------------------------------
# wide_loss


WIDE_RULES = (
    ("fixed", "fixed:4", 4.0),
    ("multiset", "multiset:1,2,4", (1.0, 2.0, 4.0)),
    ("normstd", "normstd:2.0", 2.0),
    ("maxval", "maxval:1.0", 1.0),
    ("range", "range:1.0", 1.0),
)
WIDE_SIZES = (1024, 16384)
WIDE_CLASSES = 100
# rows per rule and size in one pass: the small batch is called 16 times
WIDE_ROWS = 16384
# per-row logit scales span a decade, so per-sample temperatures vary
WIDE_SCALES = (0.5, 5.0)
WIDE_ALPHA, WIDE_BETA = 0.1, 0.9
FD_STEP = 1e-6


class WideLoss:
    name = "wide_loss"

    def __init__(self, nk, seed: int, workdir: Path):
        self.nk, self.seed = nk, seed
        self.tape_mb: dict[tuple[str, int], float] = {}
        rules = [name for name, _, _ in WIDE_RULES]
        small, large = WIDE_SIZES
        self.stages = {}
        for slot, issue_name, n, kinds in (
            ("stage1_per_s", "value_rows_per_s_1k", small, ("value",)),
            ("stage2_per_s", "bwd_rows_per_s_1k", small, ("build", "backward")),
            ("stage3_per_s", "value_rows_per_s_16k", large, ("value",)),
            ("stage4_per_s", "bwd_rows_per_s_16k", large, ("build", "backward")),
        ):
            calls = [f"{kind}.{rule}.n{n}" for rule in rules for kind in kinds]
            self.stages[slot] = (issue_name, len(rules) * n, calls)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        lo, hi = np.log10(WIDE_SCALES[0]), np.log10(WIDE_SCALES[1])
        self.inputs = {}
        for n in WIDE_SIZES:
            z_t = rng.standard_normal((n, WIDE_CLASSES)) * 10.0 ** rng.uniform(lo, hi, (n, 1))
            z_s = rng.standard_normal((n, WIDE_CLASSES)) * 10.0 ** rng.uniform(lo, hi, (n, 1))
            labels = rng.integers(0, WIDE_CLASSES, n)
            direction = oracles.smooth_direction(z_s, rng.standard_normal((n, WIDE_CLASSES)), FD_STEP)
            self.inputs[n] = (z_s, z_t, labels, direction)
        self.rules = {name: self.nk.logitstats.parse_rule(spec) for name, spec, _ in WIDE_RULES}

    def prepare_checks(self) -> None:
        """Oracle values and directional derivatives for every (rule, size)."""
        self.expected = {}
        for n, (z_s, z_t, labels, direction) in self.inputs.items():
            for name, _, scale in WIDE_RULES:
                def loss(z, name=name, scale=scale):
                    return oracles.distill_value(name, scale, z, z_t, labels, WIDE_ALPHA, WIDE_BETA)
                self.expected[name, n] = (loss(z_s), oracles.directional_fd(loss, z_s, direction, FD_STEP))

    def run_pass(self, index: int, step) -> dict:
        distill, numcore = self.nk.distill, self.nk.numcore
        calls = []
        for n, (z_s, z_t, labels, direction) in self.inputs.items():
            for name, _, _ in WIDE_RULES:
                rule = self.rules[name]
                for repeat in range(WIDE_ROWS // n):
                    call = {"rule": name, "n": n}
                    with step(f"value.{name}.n{n}"):
                        t0 = perf_counter()
                        call["value"] = distill.distill_loss(
                            rule, z_s, z_t, labels, WIDE_ALPHA, WIDE_BETA).total
                        call["value_s"] = perf_counter() - t0
                    with step(f"build.{name}.n{n}"):
                        t0 = perf_counter()
                        tape = numcore.Tape()
                        leaf = tape.leaf(z_s)
                        node = distill.distill_loss(rule, leaf, z_t, labels, WIDE_ALPHA, WIDE_BETA).node
                        call["build_s"] = perf_counter() - t0
                    with step(f"backward.{name}.n{n}"):
                        t0 = perf_counter()
                        tape.backward(node)
                        call["backward_s"] = perf_counter() - t0
                    call["built"] = float(node.data)
                    if repeat == 0:
                        call["tape_mb"] = sum(t.data.nbytes for t in tape.nodes) / 1e6
                        call["grad_dot"] = float((leaf.grad * direction).sum())
                    calls.append(call)
                    del tape, leaf, node
        return {"calls": calls}

    def check(self, result: dict, checks: Checks) -> dict[str, list[float]]:
        durations: dict[str, list[float]] = {}
        for call in result["calls"]:
            name, n = call["rule"], call["n"]
            ref, ref_dot = self.expected[name, n]
            for kind in ("value", "built"):
                err = oracles.rel_err(call[kind], ref)
                checks.record(f"wide_loss {name} n{n} {kind} matches the formula",
                              err <= oracles.VALUE_RTOL, f"{call[kind]!r} vs {ref!r}")
            if "grad_dot" in call:
                err = oracles.rel_err(call["grad_dot"], ref_dot)
                checks.record(f"wide_loss {name} n{n} gradient matches a central difference",
                              err <= oracles.GRAD_RTOL, f"rel err {err:.3e}")
                self.tape_mb[name, n] = call["tape_mb"]
            for kind in ("value", "build", "backward"):
                durations.setdefault(f"{kind}.{name}.n{n}", []).append(call[f"{kind}_s"])
        return durations


# ---------------------------------------------------------------------------
# big_cache


BIG_BLOBS = (100, 32, 1250, 2.0)  # classes, dim, per class, separation: 100k train rows
BIG_TEACHER = (32, 64, 100)
BIG_STUDENT = (32, 16, 100)


class BigCache:
    name = "big_cache"

    def __init__(self, nk, seed: int, workdir: Path):
        self.nk, self.seed, self.workdir = nk, seed, workdir
        self.first_digest: dict[str, str] | None = None
        self.expected: dict[str, object] = {}

    def setup(self) -> None:
        nk = self.nk
        self.train_ds, _ = nk.datasets.make_blobs(*BIG_BLOBS, self.seed)
        self.params = {
            "teacher": nk.trainer.init_mlp(nk.trainer.MlpSpec(BIG_TEACHER, init_seed=self.seed)),
            "student": nk.trainer.init_mlp(nk.trainer.MlpSpec(BIG_STUDENT, init_seed=self.seed + 1)),
        }

    def prepare_checks(self) -> None:
        pass

    def run_pass(self, index: int, step) -> dict:
        nk = self.nk
        pass_dir = self.workdir / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        paths = {role: pass_dir / f"{role}.nkdl" for role in ("teacher", "student")}
        seconds: dict[str, list[float]] = {}
        outputs: dict[str, list[tuple[int, str, str]]] = {}

        def timed(name, fn):
            with step(name):
                t0 = perf_counter()
                out = fn()
                seconds.setdefault(name, []).append(perf_counter() - t0)
            return out

        def write_cache(role):
            records = nk.trainer.cache_teacher_logits(self.params[role], self.train_ds)
            nk.logitcache.write_logit_cache(paths[role], records)

        def roundtrip(role):
            records = nk.logitcache.read_logit_cache(paths[role])
            nk.logitcache.write_logit_cache(pass_dir / f"roundtrip.{role}.nkdl", records)

        def evaluate():
            for role, path in paths.items():
                outputs.setdefault(f"eval.{role}", []).append(
                    timed(f"eval.{role}", lambda: call_cli(nk.cli, ["eval", "--cache", str(path)])))

        for role in paths:
            timed(f"cache.{role}", lambda: write_cache(role))
        # the eval rounds are spread over the pass, between the other steps
        evaluate()
        timed("roundtrip.teacher", lambda: roundtrip("teacher"))
        evaluate()
        outputs["analyze"] = [timed("analyze", lambda: call_cli(nk.cli, [
            "analyze", "--teacher-cache", str(paths["teacher"]),
            "--student-cache", str(paths["student"]), "--out-dir", str(pass_dir / "analysis"),
        ]))]
        evaluate()
        timed("roundtrip.student", lambda: roundtrip("student"))
        return {"dir": pass_dir, "paths": paths, "outputs": outputs, "call_s": seconds}

    def check(self, result: dict, checks: Checks) -> dict[str, list[float]]:
        pass_dir, paths, outputs = result["dir"], result["paths"], result["outputs"]
        for name, runs in outputs.items():
            for code, _, err in runs:
                checks.record(f"big_cache {name} exits 0", code == 0, err.strip()[-300:])
        data = {role: path.read_bytes() for role, path in paths.items()}
        digest = {role: hashlib.sha256(blob).hexdigest() for role, blob in data.items()}
        if self.first_digest is None:
            self.first_digest = digest
            self.expected = {role: oracles.argmax_hits(blob) for role, blob in data.items()}
            self.expected["analyze"] = oracles.analyze_frobenius(data["teacher"], data["student"])
        else:
            checks.record("big_cache caches byte-identical to the first pass",
                          digest == self.first_digest)
        for role in paths:
            for _, stdout, _ in outputs[f"eval.{role}"]:
                _check_eval(checks, f"big_cache eval {role}", stdout, *self.expected[role])
            checks.record(f"big_cache {role} write-read-write byte-identical",
                          (pass_dir / f"roundtrip.{role}.nkdl").read_bytes() == data[role])
        _check_analyze(checks, "big_cache analyze", outputs["analyze"][0][1],
                       self.expected["analyze"])

        rows = self.expected["teacher"][1]
        self.stages = {
            "stage1_per_s": ("cache_write_rows_per_s", 2 * rows, ["cache.teacher", "cache.student"]),
            "stage2_per_s": ("eval_rows_per_s", 2 * rows, ["eval.teacher", "eval.student"]),
            "stage3_per_s": ("analyze_rows_per_s", rows, ["analyze"]),
            "stage4_per_s": ("roundtrip_rows_per_s", 2 * rows,
                             ["roundtrip.teacher", "roundtrip.student"]),
        }
        return result["call_s"]


WORKLOADS = {cls.name: cls for cls in (Desk, WideLoss, BigCache)}
