"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete (without ``-s`` pytest shows them for failing tests only).
The desk-scale experiments pin every seed, so each verdict is a
deterministic constant of the codebase.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

import mpmath as mp

from normkd.datasets import make_blobs, write_dataset
from normkd.distill import (
    GRAD_CHECK_TOLERANCE,
    gradient_check_suite,
    kd_loss,
    kl_divergence,
    multi_temp_kld,
    multi_temp_prediction,
    norm_soften,
    soften,
)
from normkd.errors import FileFormatError, NormKDError
from normkd.experiment import load_experiment_config, run_experiment
from normkd.logitcache import read_logit_cache, write_logit_cache
from normkd.logitstats import Fixed, MaxVal, MultiSet, NormStd, Range, sample_std, temperature_for
from normkd.trainer import MlpSpec, TrainConfig, train
from oracles import (
    kl_mp,
    multi_temp_prediction_mp,
    norm_soften_mp,
    softmax_mp,
    std_mp,
)

DEMO_CLASSES = 10
DEMO_DIM = 16
DEMO_PER_CLASS = 200
DEMO_SEPARATION = 2.0
DEMO_DATA_SEED = 42
DEMO_SEEDS = "0,1,2,3,4"

DEMO_RECIPE = {
    "train_data": "demo.train.txt",
    "val_data": "demo.val.txt",
    "teacher_layers": "16,64,10",
    "student_layers": "16,8,10",
    "seeds": DEMO_SEEDS,
    "epochs": "60",
    "lr_decay_epochs": "42,52",
    "batch_size": "64",
    "learning_rate": "0.05",
    "weight_decay": "0.05",
    "teacher_weight_decay": "0.02",
    "alpha": "0.1",
    "beta": "0.9",
}


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def rel_err(got, expected) -> float:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-12)))


def write_demo_dataset(tmp_path: Path) -> None:
    train_ds, val_ds = make_blobs(
        DEMO_CLASSES, DEMO_DIM, DEMO_PER_CLASS, DEMO_SEPARATION, seed=DEMO_DATA_SEED
    )
    write_dataset(tmp_path / "demo.train.txt", train_ds)
    write_dataset(tmp_path / "demo.val.txt", val_ds)


def demo_config(tmp_path: Path, name: str, **overrides):
    keys = dict(DEMO_RECIPE)
    keys.update({k: v for k, v in overrides.items() if v is not None})
    keys = {k: v for k, v in keys.items() if v != ""}
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return load_experiment_config(path, env={})


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 8))
        z = rng.normal(0.0, 3.0, size=c)
        t = float(rng.uniform(0.3, 8.0))
        t_norm = float(rng.uniform(0.5, 4.0))
        temps = tuple(float(x) for x in rng.uniform(0.4, 8.0, size=rng.integers(1, 4)))

        worst = max(worst, rel_err(soften(z, t), [float(p) for p in softmax_mp(z, t)]))
        worst = max(
            worst,
            rel_err(norm_soften(z, t_norm), [float(p) for p in norm_soften_mp(z, t_norm)]),
        )
        worst = max(worst, rel_err(sample_std(z), float(std_mp(z))))
        worst = max(
            worst,
            rel_err(
                multi_temp_prediction(z, temps),
                [float(p) for p in multi_temp_prediction_mp(z, temps)],
            ),
        )
        p = soften(z, t)
        q = soften(rng.normal(0.0, 3.0, size=c), t)
        worst = max(worst, rel_err(kl_divergence(p, q), float(kl_mp(p, q))))
    elapsed = time.monotonic() - t0
    report(
        1,
        "soften/norm_soften/kl_divergence/sample_std/multi_temp_prediction match the "
        "50-digit brute-force evaluator on 1000 random inputs each (rel err <= 1e-10)",
        worst <= 1e-10 and elapsed < 10.0,
        f"max_rel_err={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mean_shift_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 10))
        z = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 4.0), size=c)
        sigma = max(sample_std(z), 1e-8) * float(rng.uniform(0.5, 3.0))
        diff = np.max(np.abs(soften(z - z.mean(), sigma) - soften(z, sigma)))
        worst = max(worst, float(diff))
    elapsed = time.monotonic() - t0
    report(
        2,
        "softening mean-centered logits equals softening raw logits at the same "
        "per-sample scale, elementwise within 1e-12 on 1000 random vectors",
        worst <= 1e-12 and elapsed < 5.0,
        f"max_abs_diff={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_gradient_suite():
    t0 = time.monotonic()
    results = gradient_check_suite(instances=100, step=1e-5)
    elapsed = time.monotonic() - t0
    worst = max(err for _, err in results)
    detail = ", ".join(f"{name}={err:.1e}" for name, err in results)
    report(
        3,
        "every loss (kd, multi-temp, normkd with live student sigma, maxval, range, "
        "combine) passes central finite differences at step 1e-5 within 1e-4 "
        "over 100 instances each",
        worst <= GRAD_CHECK_TOLERANCE and elapsed < 60.0,
        f"{detail}, {elapsed:.1f}s",
    )


def test_criterion_4_invariance_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    ok = True
    checks = []

    # positive-scale invariance of norm_soften
    worst_scale = 0.0
    for _ in range(300):
        z = rng.normal(0, 2, size=6)
        if sample_std(z) < 0.5:
            continue
        a = float(rng.uniform(0.5, 20.0))
        worst_scale = max(
            worst_scale, float(np.max(np.abs(norm_soften(a * z, 2.0) - norm_soften(z, 2.0))))
        )
    ok &= worst_scale <= 1e-12
    checks.append(f"scale_inv={worst_scale:.1e}")

    # argmax preservation under every positive temperature rule
    rules = (Fixed(3.0), MultiSet((1.0, 2.0, 4.0)), NormStd(2.0), MaxVal(1.0), Range(1.0))
    argmax_ok = True
    for _ in range(300):
        z = rng.normal(0, 2, size=7)
        if np.unique(z).size < 7:
            continue
        for rule in rules:
            if isinstance(rule, MultiSet):
                p = multi_temp_prediction(z, rule.temperatures)
            else:
                p = soften(z, float(temperature_for(rule, z)))
            argmax_ok &= int(np.argmax(p)) == int(np.argmax(z))
    ok &= argmax_ok
    checks.append(f"argmax={'ok' if argmax_ok else 'BROKEN'}")

    # simplex normalization and KL nonnegativity
    simplex_ok, kl_ok = True, True
    for _ in range(300):
        z = rng.normal(0, 3, size=6)
        p = soften(z, float(rng.uniform(0.5, 8)))
        q = norm_soften(rng.normal(0, 3, size=6), 2.0)
        simplex_ok &= abs(p.sum() - 1.0) <= 1e-12 and np.all(p > 0)
        simplex_ok &= abs(q.sum() - 1.0) <= 1e-12 and np.all(q > 0)
        kl_ok &= kl_divergence(p, q) >= 0.0
    ok &= simplex_ok and kl_ok
    checks.append(f"simplex={'ok' if simplex_ok else 'BROKEN'}")
    checks.append(f"kl>=0={'ok' if kl_ok else 'BROKEN'}")

    # monotone softening toward uniform over T in {1, 2, 4, 8, 64}
    mono_ok = True
    temps = (1.0, 2.0, 4.0, 8.0, 64.0)
    for _ in range(200):
        z = rng.normal(0, 2, size=6)
        if np.unique(z).size < 6:
            continue
        maxes = [float(soften(z, t).max()) for t in temps]
        gaps = [float(np.max(np.abs(soften(z, t) - 1.0 / 6))) for t in temps]
        mono_ok &= all(a > b for a, b in zip(maxes, maxes[1:]))
        mono_ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
    ok &= mono_ok
    checks.append(f"monotone={'ok' if mono_ok else 'BROKEN'}")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(
        4,
        "scale invariance, argmax preservation, simplex normalization, KL "
        "nonnegativity, and monotone softening toward uniform all hold",
        bool(ok),
        ", ".join(checks) + f", {elapsed:.1f}s",
    )


def test_criterion_5_reduction_identities(tmp_path):
    t0 = time.monotonic()

    # MultiSet({T}) loss equals the Fixed(T) KLD part bit for bit
    rng = np.random.default_rng(105)
    bit_ok = True
    for _ in range(50):
        n, c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        z_s = rng.normal(0, 2, size=(n, c))
        z_t = rng.normal(0, 2, size=(n, c))
        t = float(rng.uniform(0.5, 8))
        fixed_kld = kd_loss(
            z_s, z_t, np.zeros(n, dtype=int), t, alpha=0.0, beta=1.0
        ).kld_part
        bit_ok &= multi_temp_kld(z_s, z_t, (t,)) == fixed_kld

    # beta = 0 training is bitwise plain-CE training, 5 epochs, demo data
    train_ds, val_ds = make_blobs(
        DEMO_CLASSES, DEMO_DIM, DEMO_PER_CLASS, DEMO_SEPARATION, seed=DEMO_DATA_SEED
    )
    spec = MlpSpec((16, 8, 10), init_seed=0)
    teacher_spec = MlpSpec((16, 64, 10), init_seed=0)
    from normkd.trainer import cache_teacher_logits, init_mlp

    cache = cache_teacher_logits(init_mlp(teacher_spec), train_ds)
    train_ok = True
    for rule in (Fixed(4.0), NormStd(2.0)):
        kd_cfg = TrainConfig(
            epochs=5, lr_decay_epochs=(), alpha=0.1, beta=0.0, rule=rule, seed=0
        )
        ce_cfg = TrainConfig(epochs=5, lr_decay_epochs=(), alpha=0.1, beta=0.0, seed=0)
        p_kd, h_kd = train(spec, kd_cfg, train_ds, cache, val_ds)
        p_ce, h_ce = train(spec, ce_cfg, train_ds, None, val_ds)
        for (w1, b1), (w2, b2) in zip(p_kd, p_ce):
            train_ok &= np.array_equal(w1, w2) and np.array_equal(b1, b2)
        train_ok &= h_kd == h_ce

    elapsed = time.monotonic() - t0
    report(
        5,
        "MultiSet({T}) equals Fixed(T) KLD bit-compatibly; beta=0 training is "
        "bit-identical to plain-CE training over 5 epochs on the demo dataset",
        bit_ok and train_ok and elapsed < 60.0,
        f"bitwise={'ok' if bit_ok else 'BROKEN'}, training={'ok' if train_ok else 'BROKEN'}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_directional_distillation(tmp_path):
    t0 = time.monotonic()
    write_demo_dataset(tmp_path)
    results = {}
    # the no-distillation baseline trains on full cross entropy (alpha=1)
    for name, overrides in (
        ("baseline", dict(output_dir="run_baseline", alpha="1.0", beta="0.0",
                          teacher_layers="", teacher_weight_decay="")),
        ("fixed", dict(rule="fixed:4", output_dir="run_fixed")),
        ("normstd", dict(rule="normstd:2.0", output_dir="run_normstd")),
    ):
        results[name] = run_experiment(demo_config(tmp_path, name, **overrides))
    base, fixed, norm = (results[k].mean_top1 for k in ("baseline", "fixed", "normstd"))
    ok_a = fixed >= base
    ok_b = norm >= fixed - 0.005
    elapsed = time.monotonic() - t0
    report(
        6,
        "desk-scale directional experiment: Fixed(4) KD >= no-distillation baseline "
        "and NormStd >= Fixed(4) - 0.5pp over 5 seeds "
        "(strict improvement reported, not asserted)",
        ok_a and ok_b and elapsed < 15 * 60,
        f"baseline={base:.4f}, fixed={fixed:.4f} ({(fixed - base) * 100:+.2f}pp), "
        f"normstd={norm:.4f} ({(norm - fixed) * 100:+.2f}pp vs fixed), {elapsed:.0f}s",
    )


def test_criterion_7_multi_temperature_table(tmp_path):
    t0 = time.monotonic()
    write_demo_dataset(tmp_path)
    rules = (
        ("multiset:1", "mt1"),
        ("multiset:1,2,4", "mt124"),
        ("multiset:1,2,3,4,5,6,7,8", "mt1to8"),
    )
    aggregates = []
    # the T_mul^2 compensation (up to 64 for {1..8}) inflates the loss
    # scale, so the multi-temperature family gets a smaller step size
    for rule, name in rules:
        cfg = demo_config(
            tmp_path, name, rule=rule, output_dir=f"run_{name}", learning_rate="0.01"
        )
        result = run_experiment(cfg)
        aggregates.append((rule, result.mean_top1, result.std_top1, result.summary_path))

    table_path = tmp_path / "multi_temp_comparison.csv"
    with table_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("rule", "mean_top1", "std_top1"))
        for rule, mean, std, _ in aggregates:
            writer.writerow((rule, repr(mean), repr(std)))
    print("multi-temperature comparison (reported, not asserted):")
    baseline = aggregates[0][1]
    for rule, mean, std, _ in aggregates:
        print(f"  {rule:24s} top1={mean:.4f}±{std:.4f}  delta={(mean - baseline) * 100:+.2f}pp")

    # determinism: rerunning the first rule reproduces its CSVs byte for byte
    first_cfg = demo_config(
        tmp_path, "mt1_rerun", rule="multiset:1", output_dir="run_mt1_rerun",
        learning_rate="0.01",
    )
    rerun = run_experiment(first_cfg)
    original_dir = tmp_path / "run_mt1"
    rerun_dir = tmp_path / "run_mt1_rerun"
    identical = (
        (original_dir / "summary.csv").read_bytes() == (rerun_dir / "summary.csv").read_bytes()
    )
    for seed_dir in sorted(original_dir.glob("seed*")):
        twin = rerun_dir / seed_dir.name
        for f in sorted(seed_dir.iterdir()):
            identical &= f.read_bytes() == (twin / f.name).read_bytes()
    elapsed = time.monotonic() - t0
    report(
        7,
        "multi-temperature comparison table generated for {1}, {1,2,4}, {1..8} and "
        "rerun outputs are byte-identical",
        table_path.exists() and identical and elapsed < 20 * 60,
        f"rows={len(aggregates)}, deterministic={'yes' if identical else 'NO'}, {elapsed:.0f}s",
    )


def test_criterion_8_determinism_and_formats(tmp_path):
    t0 = time.monotonic()
    train_ds, val_ds = make_blobs(3, 4, 10, 3.0, seed=9)
    write_dataset(tmp_path / "demo.train.txt", train_ds)
    write_dataset(tmp_path / "demo.val.txt", val_ds)
    recipe = """
train_data = demo.train.txt
val_data = demo.val.txt
teacher_layers = 4,12,3
student_layers = 4,6,3
rule = normstd:2.0
seeds = 0,1
epochs = 3
batch_size = 16
"""
    runs = []
    for name in ("det_a", "det_b"):
        path = tmp_path / f"{name}.cfg"
        path.write_text(recipe + f"output_dir = {name}\n")
        runs.append(run_experiment(load_experiment_config(path, env={})))
    identical = True
    for rel in [p.relative_to(tmp_path / "det_a") for p in (tmp_path / "det_a").rglob("*") if p.is_file()]:
        identical &= (tmp_path / "det_a" / rel).read_bytes() == (tmp_path / "det_b" / rel).read_bytes()

    # lossless cache round-trip
    cache_path = tmp_path / "det_a" / "seed0" / "student.val.nkdl"
    records = read_logit_cache(cache_path)
    rewritten = tmp_path / "rewrite.nkdl"
    write_logit_cache(rewritten, records)
    roundtrip = rewritten.read_bytes() == cache_path.read_bytes()

    # malformed files produce coded errors, never crashes
    coded = True
    bad = tmp_path / "bad.nkdl"
    bad.write_bytes(b"WRONGMAGIC" + b"\x00" * 20)
    try:
        read_logit_cache(bad)
        coded = False
    except FileFormatError:
        pass
    except Exception:
        coded = False
    truncated = tmp_path / "trunc.nkdl"
    truncated.write_bytes(cache_path.read_bytes()[:-3])
    try:
        read_logit_cache(truncated)
        coded = False
    except FileFormatError:
        pass
    except Exception:
        coded = False
    bad_ds = tmp_path / "bad.train.txt"
    bad_ds.write_text("not a dataset at all")
    try:
        from normkd.datasets import read_dataset

        read_dataset(bad_ds)
        coded = False
    except NormKDError as exc:
        coded &= exc.exit_code == 3

    elapsed = time.monotonic() - t0
    report(
        8,
        "identical config+seed reproduce byte-identical CSVs and caches; caches "
        "round-trip losslessly; malformed files raise coded errors",
        identical and roundtrip and coded and elapsed < 30.0,
        f"identical={'yes' if identical else 'NO'}, roundtrip={'yes' if roundtrip else 'NO'}, "
        f"coded_errors={'yes' if coded else 'NO'}, {elapsed:.1f}s",
    )
