"""Alternating parent/change pairs of perfbench runs, written as one BENCH file.

    python scripts/ab_bench.py --parent REV --change REV --pairs 10 \
        --workloads desk wide_loss big_cache --out BENCH_<pr>.json

Run it from a normkd checkout.  Each run gets a new directory, a
``git archive`` export of its side's revision, removed after the run.  Pair
i runs parent first when i is even and change first when it is odd, both
sides with seed 100 + i and with export directories whose names are
8 + i characters long: big_cache's heap mode follows the name length, so
the pairs sample it, the same for both sides.  Each run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
T being ``BENCHMARK.json``'s ``run_seconds``, with its export as the working directory; the child's minor page faults
(``ru_minflt``), peak RSS (``ru_maxrss``) and CPU times come from
``os.wait4``, and its result is the last line of its standard output.

The output holds every run (its result line, fault count and directory),
then per workload each side's fault counts, pair by pair and as a median
and quartiles (the count names a run's heap mode), and per end-to-end
metric the medians and quartiles of both sides, the parent's IQR, in how
many pairs the change was better, and how much worse its median is than
the parent's against ``BENCHMARK.json``'s bound.  A metric is marked
``unresolved`` when the parent's IQR is wider than the bound times the
parent's median, unless every change run beats every parent run: its
runs spread too widely for the medians to say it moved.  It also records the
checks failed per side, both revisions' shas, numpy, ``nproc``, glibc and
the transparent-hugepage setting.  The file is
rewritten after every run, so a stopped measurement keeps what it ran.
The metrics come from this checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE).stdout


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
        "kernel": os.uname().release,
        "transparent_hugepage": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "thp_defrag": _read("/sys/kernel/mm/transparent_hugepage/defrag"),
    }


def run_once(tree: bytes, base: Path, name: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a new export of ``tree`` at ``base / name``."""
    export = base / name
    export.mkdir()
    try:
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(export, filter="data")
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        t0 = perf_counter()
        with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
            child = subprocess.Popen(argv, cwd=export, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            lines, stderr = out.read().splitlines(), err.read()
    finally:
        shutil.rmtree(export, ignore_errors=True)
    run = {"rc": child.returncode, "elapsed_s": round(perf_counter() - t0, 1),
           "minflt": usage.ru_minflt, "maxrss_kb": usage.ru_maxrss,
           "utime": round(usage.ru_utime, 2), "stime": round(usage.ru_stime, 2),
           "directory_name_length": len(name)}
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["result"] = None
        run["stderr_tail"] = stderr[-2000:]
    return run


def _quartiles(values: list) -> list:
    """The first and third quartiles, inclusive; both are the value of a single run."""
    if len(values) == 1:
        return [values[0], values[0]]
    return statistics.quantiles(values, n=4, method="inclusive")[::2]


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: medians, quartiles, wins, the bound check
    and whether the parent's spread leaves the metric unresolved."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not pairs:
            continue
        out = summary[workload] = {"pairs": len(pairs)}
        for side in ("parent", "change"):
            results = [p[side]["result"] for p in pairs]
            out[f"{side}_checks_failed"] = (f"{sum(r['failed'] for r in results)} of "
                                            f"{sum(r['attempted'] for r in results)}")
            minflt = out[f"{side}_minflt"] = [p[side]["minflt"] for p in pairs]
            out[f"{side}_minflt_median"] = statistics.median(minflt)
            out[f"{side}_minflt_quartiles"] = _quartiles(minflt)
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                      for side in ("parent", "change")}
            median = {side: statistics.median(v) for side, v in values.items()}
            quartiles = {side: _quartiles(v) for side, v in values.items()}
            ratio = median["change"] / median["parent"] if median["parent"] else float("nan")
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            worse_by = ratio - 1.0 if lower else 1.0 - ratio
            iqr = quartiles["parent"][1] - quartiles["parent"][0]
            if lower:
                separated = max(values["change"]) < min(values["parent"])
            else:
                separated = min(values["change"]) > max(values["parent"])
            out[name] = {
                "parent_median": median["parent"], "change_median": median["change"],
                "change_over_parent": round(ratio, 4),
                "parent_quartiles": quartiles["parent"], "change_quartiles": quartiles["change"],
                "parent_iqr": iqr, "change_wins": f"{wins} of {len(pairs)}",
                "worse_by": round(worse_by, 4), "bound": metric["bound"],
                "within_bound": worse_by <= metric["bound"],
                "unresolved": iqr > metric["bound"] * abs(median["parent"]) and not separated,
            }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--change", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, required=True, help="the BENCH json to write")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    revs = {side: _git("rev-parse", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    trees = {side: _git("archive", "--format=tar", sha) for side, sha in revs.items()}
    report = {
        "benchmark": f"perfbench/run.py --workload <w> --seed <seed> --seconds {seconds:g} "
                     "--trace 0",
        "parent": revs["parent"], "change": revs["change"],
        "pairs": f"{args.pairs} per workload; pair i runs seed 100 + i, parent first "
                 "when i is even, in new git archive exports named with 8 + i characters",
        "environment": environment(), "summary": {}, "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="ab_bench.") as tmp:
        for workload in args.workloads:
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in sides:
                    name = side[0] + "x" * (7 + i)
                    run = run_once(trees[side], Path(tmp), name, workload, 100 + i, seconds)
                    run = {"workload": workload, "pair": i, "side": side, "seed": 100 + i, **run}
                    report["runs"].append(run)
                    report["summary"] = summarize(report["runs"], spec)
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
                    result = run["result"] or {}
                    print(f"{workload} pair {i} {side}: rc {run['rc']}, "
                          f"correct {result.get('correct')}, minflt {run['minflt']}, "
                          f"{run['elapsed_s']} s", file=sys.stderr, flush=True)
    bad = [r for r in report["runs"] if r["rc"] or not (r["result"] or {}).get("correct")]
    print(f"{len(report['runs'])} runs, {len(bad)} failed or incorrect; wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
