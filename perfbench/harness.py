"""The pass loop and the metrics of one benchmark run.

Imported by run.py after it has pinned the BLAS thread count, because
importing this module loads numpy.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

SETUP_REPEATS = 5
# one probe of the reference loop takes this long at the reference speed
REFERENCE_PROBE_S = 0.005
# each workload maps the four stage rates to its own calls (workloads.py)
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb",
              "stage1_per_s", "stage2_per_s", "stage3_per_s", "stage4_per_s")


class Speedometer:
    """Times a fixed reference loop before each of the workload's calls.

    A shared host can run this process at speeds about 1.6x apart, for
    stretches of seconds to minutes.  The loop mixes small numpy
    operations, Python dict work and one larger array operation, as the
    workloads do, and does not use normkd.  The probes just before and
    just after a call measure the host's speed around it; its duration is
    scaled by them to the speed at which one probe takes
    REFERENCE_PROBE_S, so that the end-to-end figures compare program
    versions rather than host states.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((64, 10))
        self._weight = rng.standard_normal((10, 10))
        self._large = rng.standard_normal((256, 100))
        self.samples: list[float] = []
        self.steps: list[str | None] = []
        self.spent = 0.0

    def _loop(self) -> None:
        for _ in range(150):
            h = np.maximum(self._small @ self._weight, 0.0)
            e = np.exp(h - h.max(axis=1, keepdims=True))
            (e / e.sum(axis=1, keepdims=True)).sum()
        _ = {i: (i, float(i)) for i in range(1500)}
        np.exp(self._large).sum()

    def probe(self, step: str | None = None) -> None:
        start = perf_counter()
        self._loop()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.steps.append(step)
        self.spent += elapsed

    def wrap(self, step):
        """``step``, preceded by a probe."""

        def probed(name: str):
            self.probe(name)
            return step(name)

        return probed


def scale_calls(call_s: dict[str, list[float]], steps: list, probes: list[float]):
    """Each call's duration at the reference speed, from the probes taken
    before it and after it (the pass ends with a closing probe)."""
    seen: dict[str, int] = defaultdict(int)
    scaled: dict[str, list[float]] = {}
    for k, name in enumerate(steps[:-1]):
        duration = call_s[name][seen[name]]
        seen[name] += 1
        factor = REFERENCE_PROBE_S / (0.5 * (probes[k] + probes[k + 1]))
        scaled.setdefault(name, []).append(duration * factor)
    return scaled


def percentile_tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples above it,
    and the sample there.  With too few samples for that percentile to
    lie above the median (20 or fewer), the maximum, as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100
    return ordered[-11], (100 * (n - 10)) // n


def per_layer_names() -> list[str]:
    """Every per-layer metric the benchmark can produce, in a fixed order."""
    names = [f"{layer}.self_s" for layer in tracing.LAYERS]
    names += ["trace.overhead_s", "trace.spans"]
    names += [f"numcore.nodes_per_step.{arm}" for arm in ("teacher", *dict(workloads.DESK_ARMS))]
    names += list(tracing.FUNCTION_METRICS)
    names += ["logitcache.bytes", "ioutil.bytes_written"]
    for rule, _, _ in workloads.WIDE_RULES:
        for n in workloads.WIDE_SIZES:
            names.append(f"numcore.tape_mb.{rule}.n{n}")
            names.append(f"distill.calls.{rule}.n{n}")
            for metric in ("distill.value_ms", "distill.build_ms", "numcore.backward_ms"):
                names += [f"{metric}.{rule}.n{n}.p50", f"{metric}.{rule}.n{n}.tail"]
    return names


def run(args, nk, workdir: Path, results: Path, import_s: float) -> dict:
    """Set up, run and check passes; spans of a traced run go to ``results``."""
    workload = workloads.WORKLOADS[args.workload](nk, args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)
    workload.prepare_checks()

    checks = workloads.Checks()
    speed = Speedometer()
    tracer = tracing.Tracer(vars(nk)) if args.trace else None
    passes: list[dict] = []
    span_ranges: list[tuple[int, int]] = []
    measured = 0.0
    # A run makes at least two passes.  A traced run starts with an
    # untraced warm-up pass, which pays the first-touch costs, then
    # alternates traced and untraced passes.
    min_passes = 3 if args.trace else 2
    while len(passes) < min_passes or measured + 0.5 * measured / len(passes) < args.seconds:
        if tracer is None:
            kind = "plain"
        else:
            kind = "warmup" if not passes else ("traced" if len(passes) % 2 else "plain")
        lo = len(tracer) if tracer else 0
        probes, spent = len(speed.samples), speed.spent
        step = speed.wrap(tracer.step if kind == "traced" else tracing.null_step)
        with tracer.installed() if kind == "traced" else nullcontext():
            t0 = perf_counter()
            result = workload.run_pass(len(passes), step)
            wall = perf_counter() - t0 - (speed.spent - spent)
        speed.probe()
        if not passes:
            # later passes add heap fragmentation, which grows with their number
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        measured += wall
        record = {"kind": kind, "wall_s": wall, "probe_s": speed.samples[probes:],
                  "steps": speed.steps[probes:]}
        if kind == "traced":
            span_ranges.append((lo, len(tracer)))
            record["layers"] = tracer.report(lo, len(tracer))
            record["tape_sizes"] = {k: sorted(v) for k, v in tracer.tape_sizes.items()}
        record["call_s"] = workload.check(result, checks)
        passes.append(record)

    plain = [p for p in passes if p["kind"] == "plain"]
    call_s: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    for p in plain:
        for name, durations in p["call_s"].items():
            call_s[name].extend(durations)
        for name, durations in scale_calls(p["call_s"], p["steps"], p["probe_s"]).items():
            scaled[name].extend(durations)

    def rates(durations):
        return {slot: len(durations[calls[0]]) * work / sum(sum(durations[c]) for c in calls)
                for slot, (_, work, calls) in workload.stages.items()}

    raw = {"wall_s": statistics.median(p["wall_s"] for p in plain), **rates(call_s)}
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": statistics.median(
            p["wall_s"] * REFERENCE_PROBE_S / statistics.mean(p["probe_s"]) for p in plain),
        "peak_rss_mb": peak_rss_mb,
        **rates(scaled),
    }
    issue_names = {issue: end_to_end[slot] for slot, (issue, _, _) in workload.stages.items()}
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "passes": [{k: v for k, v in p.items() if k != "call_s"} for p in passes],
        "call_s": call_s,
        "setup_s": {"import_s": import_s, "repeats": setup_times},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failed_ratio": checks.failed / max(1, checks.attempted),
                   "failures": checks.messages},
        "end_to_end": end_to_end,
        "issue_metrics": issue_names,
        "unscaled": raw,
    }
    if tracer is not None:
        report["per_layer"], report["per_call"] = per_layer(passes, call_s, workload)
        spans_path = results / f"{args.workload}-spans.npz"
        tracer.save(spans_path, span_ranges)
        report["spans_file"] = spans_path.name
    return report


def per_layer(passes: list[dict], call_s: dict, workload) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced passes, counts, per-call
    timings from the untraced passes after the warm-up, and the tracing
    overhead."""
    traced = [p for p in passes if p["kind"] == "traced"]
    plain = [p for p in passes if p["kind"] == "plain"]
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(p["layers"][key] for p in traced)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    sizes = traced[0]["tape_sizes"]
    arms = {"teacher": "train-teacher", **{arm: f"distill.{arm}" for arm, _ in workloads.DESK_ARMS}}
    for arm, step in arms.items():
        out[f"numcore.nodes_per_step.{arm}"] = max(sizes.get(step, [0]))
    per_call = {}
    tape_mb = getattr(workload, "tape_mb", {})
    for rule, _, _ in workloads.WIDE_RULES:
        for n in workloads.WIDE_SIZES:
            out[f"numcore.tape_mb.{rule}.n{n}"] = tape_mb.get((rule, n), 0.0)
            out[f"distill.calls.{rule}.n{n}"] = len(call_s.get(f"value.{rule}.n{n}", []))
            for metric, kind in (("distill.value_ms", "value"), ("distill.build_ms", "build"),
                                 ("numcore.backward_ms", "backward")):
                key = f"{metric}.{rule}.n{n}"
                samples = [1e3 * s for s in call_s.get(f"{kind}.{rule}.n{n}", [])]
                if not samples:
                    out[f"{key}.p50"] = out[f"{key}.tail"] = 0.0
                    continue
                tail, pct = percentile_tail(samples)
                out[f"{key}.p50"], out[f"{key}.tail"] = statistics.median(samples), tail
                per_call[key] = {"p50": out[f"{key}.p50"], "tail": tail,
                                 "tail_percentile": pct, "samples": len(samples)}
    return out, per_call
