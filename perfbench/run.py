"""normkd benchmark: one workload, one process.

Run from the root of a normkd checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``.  The run sets up several
times, then runs timed passes for about ``--seconds`` seconds and checks
every pass against independent references.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before
it, and ``.perfbench/results/``, hold a full report with the run
environment.  README.md in this directory describes every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the nine layers (tracing.LAYERS), imported here before anything but numpy
NORMKD_MODULES = (
    "numcore", "distill", "trainer", "logitcache", "logitstats",
    "datasets", "experiment", "cli", "ioutil",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "wide_loss", "big_cache"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "normkd" / "__init__.py").is_file():
        print(f"error: no normkd sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # pin BLAS before numpy loads it, and keep the seed list of the configs
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("NORMKD_SEED", None)

    import numpy as np

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    modules = {name: importlib.import_module(f"normkd.{name}") for name in NORMKD_MODULES}
    import_s = perf_counter() - t0
    if Path(modules["cli"].__file__).resolve().parent != SRC / "normkd":
        print(f"error: imported normkd from {modules['cli'].__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    wanted = {section: [m["name"] for m in spec[section]] for section in ("end_to_end", "per_layer")}
    if (sorted(wanted["end_to_end"]) != sorted(harness.END_TO_END)
            or sorted(wanted["per_layer"]) != sorted(harness.per_layer_names())):
        print("error: BENCHMARK.json metrics differ from the ones this code produces",
              file=sys.stderr)
        return 2

    workdir = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = STATE / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        report = harness.run(args, argparse.Namespace(**modules), workdir, results, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    values = report[section]
    report["environment"] = environment(np, args.seed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print("report " + json.dumps(report, sort_keys=True))
    checks = report["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in wanted[section]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
