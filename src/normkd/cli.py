"""Command-line interface.

Subcommands: gen-data, train-teacher, distill, eval, analyze, grad-check.
All flags are long-form.  Failures exit with coded statuses: 2 for
config problems, 3 for file/IO problems, 4 for contract violations.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .datasets import make_blobs, write_dataset
from .distill import GRAD_CHECK_LOSSES, GRAD_CHECK_TOLERANCE, gradient_check_suite
from .errors import ContractError, NormKDError
from .experiment import (
    analyze,
    frobenius,
    load_experiment_config,
    run_experiment,
    run_teacher_training,
    write_analysis,
)
from .logitcache import read_logit_cache


def _cmd_gen_data(args) -> int:
    train_ds, val_ds = make_blobs(
        args.classes, args.dim, args.per_class, args.separation, args.seed
    )
    train_path = f"{args.out_prefix}.train.txt"
    val_path = f"{args.out_prefix}.val.txt"
    write_dataset(train_path, train_ds)
    write_dataset(val_path, val_ds)
    print(f"wrote {train_path} ({train_ds.n_samples} rows)")
    print(f"wrote {val_path} ({val_ds.n_samples} rows)")
    return 0


def _cmd_train_teacher(args) -> int:
    result = run_teacher_training(load_experiment_config(args.config))
    for seed, _, _, top1 in result.rows:
        print(f"seed={seed} val_top1={top1}")
    print(f"wrote {result.summary_path}")
    return 0


def _cmd_distill(args) -> int:
    result = run_experiment(load_experiment_config(args.config))
    for seed, rule, params, top1 in result.rows:
        print(f"seed={seed} rule={rule}:{params} val_top1={top1}")
    print(f"wrote {result.summary_path}")
    return 0


def _cmd_eval(args) -> int:
    cache = read_logit_cache(args.cache)
    if not len(cache):
        raise ContractError(f"{args.cache}: cache has no records")
    # argmax ties resolve to the lowest class index
    hits = int(np.count_nonzero(cache.logits.argmax(axis=1) == cache.labels))
    print(f"top1={hits / len(cache)!r} ({hits}/{len(cache)})")
    return 0


def _cmd_analyze(args) -> int:
    result = analyze(
        read_logit_cache(args.teacher_cache),
        read_logit_cache(args.student_cache),
        t_norm=args.t_norm,
    )
    summary_path, matrix_path = write_analysis(result, args.out_dir)
    print(f"wrote {summary_path}")
    print(f"wrote {matrix_path}")
    print(f"frobenius raw={frobenius(result.raw_matrix)!r}")
    print(f"frobenius normalized={frobenius(result.norm_matrix)!r}")
    return 0


def _cmd_grad_check(args) -> int:
    results = gradient_check_suite(
        instances=args.instances, step=args.step, inject_fault=args.inject_fault
    )
    failed = False
    for name, err in results:
        ok = err <= GRAD_CHECK_TOLERANCE
        failed |= not ok
        print(f"{name:12s} max_rel_err={err:.3e} {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normkd",
        description="Knowledge distillation with per-sample normalized temperatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a Gaussian-blob train/val dataset pair")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--separation", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-teacher", help="train teachers and cache their logits")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train_teacher)

    p = sub.add_parser("distill", help="run the configured distillation experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("eval", help="top-1 accuracy of a logit cache against its labels")
    p.add_argument("--cache", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="per-sample stats and class-difference matrices")
    p.add_argument("--teacher-cache", required=True)
    p.add_argument("--student-cache", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--t-norm", type=float, default=2.0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("grad-check", help="finite-difference audit of every loss")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument(
        "--inject-fault",
        choices=GRAD_CHECK_LOSSES,
        default=None,
        help="flip one loss's analytic gradient to self-test the audit",
    )
    p.set_defaults(func=_cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NormKDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
