"""In-memory span tracer for the traced run.

The tracer changes no file of normkd.  For the length of one traced pass
it replaces, in each module's namespace, every public function name with
a wrapper that records a span, so a call is seen under the name the
calling module uses: ``normkd.trainer.distill_loss`` is the distill
layer's function as the trainer calls it.  ``Tape.leaf`` and
``Tape.backward`` are wrapped on the class.  The benchmark's own calls
into normkd run inside a step span, whose index every span records, so
spans of one step share an identifier.

Spans live in flat arrays (name, parent, step, start, end) and are saved
with numpy when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

LAYERS = (
    "numcore", "distill", "trainer", "logitcache", "logitstats",
    "datasets", "experiment", "cli", "ioutil",
)
# private names wrapped too, because a per-layer metric is defined on them
PRIVATE_NAMES = {"trainer": ("_split_record",)}
METHODS = {"numcore": {"Tape": ("leaf", "backward")}}
BENCH_LAYER = "bench"

# metric -> (kind, callee pattern, parent callee pattern, step pattern).
# kind "total" sums span durations, "self" sums self times and "count"
# counts spans.  Callees are "<layer>.<function>" keys, matched with
# fnmatch; None matches anything.
FUNCTION_METRICS = {
    "numcore.backward_s": ("total", "numcore.Tape.backward", None, None),
    "distill.loss_s": ("total", "distill.*", "trainer.train", None),
    "trainer.forward_s": ("total", "trainer.forward", "trainer.train", None),
    "trainer.eval_s": ("total", "trainer._split_record", None, None),
    "trainer.update_s": ("self", "trainer.train", None, None),
    "trainer.cache_logits_s": ("total", "trainer.cache_teacher_logits", None, None),
    "logitcache.write_s": ("total", "logitcache.write_logit_cache", None, None),
    "logitcache.read_s": ("total", "logitcache.read_logit_cache", None, None),
    "logitstats.summarize_s": ("total", "logitstats.summarize", None, None),
    "experiment.analyze_s": ("self", "experiment.analyze", None, None),
    "experiment.write_analysis_s": ("self", "experiment.write_analysis", None, None),
    "experiment.run_self_s": ("self", "experiment.run_*", None, None),
    "cli.eval_self_s": ("self", "cli.*", None, "eval*"),
    "datasets.make_blobs_s": ("total", "datasets.make_blobs", None, None),
    "datasets.write_s": ("total", "datasets.write_dataset", None, None),
    "datasets.read_s": ("total", "datasets.read_dataset", None, None),
    "ioutil.write_s": ("total", "ioutil.atomic_write_bytes", None, None),
    "trainer.steps": ("count", "numcore.Tape.backward", "trainer.train", None),
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, modules: dict):
        self._modules = modules
        self.names: list[str] = []
        self.funcs: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.steps: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.step_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._step = -1
        self._saved: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.tape_sizes: dict[str, set[int]] = defaultdict(set)

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str, func: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.funcs.append(func)
            self.layers.append(layer)
        return self._ids[name]

    def _wrap(self, fn, name_id: int, hook):
        perf = time.perf_counter
        ids, parents, steps = self.name_id, self.parent, self.step_id
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            steps.append(tracer._step)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()

        return wrapper

    def _hook(self, func: str, binding: str):
        if func == "numcore.Tape.backward":
            def count_nodes(args, kwargs):
                step = self.steps[self._step] if self._step >= 0 else ""
                self.tape_sizes[step].add(len(args[0].nodes))
            return count_nodes
        if func == "ioutil.atomic_write_bytes":
            def count_bytes(args, kwargs):
                size = len(args[1] if len(args) > 1 else kwargs["data"])
                self.counters["ioutil.bytes_written"] += size
                if binding == "logitcache":
                    self.counters["logitcache.bytes"] += size
            return count_bytes
        return None

    @contextmanager
    def step(self, name: str):
        """Root span around one call the benchmark makes into normkd."""
        self.steps.append(name)
        self._step = len(self.steps) - 1
        index = len(self.start)
        self.name_id.append(self._intern(f"bench.{name}", f"bench.{name}", BENCH_LAYER))
        self.parent.append(-1)
        self.step_id.append(self._step)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
            self._step = -1

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, func: str, layer: str, binding: str):
        original = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, original))
        wrapper = self._wrap(original, self._intern(name, func, layer), self._hook(func, binding))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name in LAYERS:
            module = self._modules[mod_name]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") and attr not in PRIVATE_NAMES.get(mod_name, ()):
                    continue
                if not inspect.isfunction(obj) or not obj.__module__.startswith("normkd."):
                    continue
                owner = obj.__module__.rsplit(".", 1)[1]
                if owner in LAYERS:
                    self._patch(module, attr, f"normkd.{mod_name}.{attr}",
                                f"{owner}.{obj.__name__}", owner, mod_name)
            for cls_name, methods in METHODS.get(mod_name, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    key = f"{mod_name}.{cls_name}.{meth}"
                    self._patch(cls, meth, f"normkd.{key}", key, mod_name, mod_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        """Trace the body: wrappers in place, counters reset."""
        self.counters.clear()
        self.tape_sizes.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def report(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer self times, function metrics and counts for spans [lo, hi)."""
        ids = np.array(self.name_id, dtype=np.int64)[lo:hi]
        parent = np.array(self.parent, dtype=np.int64)[lo:hi] - lo
        steps = np.array(self.step_id, dtype=np.int64)[lo:hi]
        dur = np.array(self.end)[lo:hi] - np.array(self.start)[lo:hi]
        inner = parent >= 0
        self_time = dur - np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        # index len(self.funcs) stands for "no parent"; step -1 for "no step"
        parent_ids = np.where(inner, ids[np.maximum(parent, 0)], len(self.funcs))
        layer_of = np.array(self.layers)[ids]

        out = {f"{layer}.self_s": float(self_time[layer_of == layer].sum()) for layer in LAYERS}
        for metric, (kind, callee, caller, step) in FUNCTION_METRICS.items():
            mask = _matches(self.funcs, callee)[ids]
            if caller is not None:
                mask &= _matches(self.funcs, caller)[parent_ids]
            if step is not None:
                mask &= _matches(self.steps, step)[steps]
            if kind == "count":
                out[metric] = int(mask.sum())
            else:
                out[metric] = float((dur if kind == "total" else self_time)[mask].sum())
        for counter in ("logitcache.bytes", "ioutil.bytes_written"):
            out[counter] = int(self.counters[counter])
        out["trace.spans"] = int(hi - lo)
        return out

    def save(self, path, passes: list[tuple[int, int]]) -> None:
        np.savez(
            path,
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            step_id=np.array(self.step_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            names=np.array(self.names),
            funcs=np.array(self.funcs),
            layers=np.array(self.layers),
            steps=np.array(self.steps),
            passes=np.array(passes, dtype=np.int64).reshape(-1, 2),
        )


def _matches(keys: list[str], pattern: str) -> np.ndarray:
    """fnmatch of each key, plus a trailing False for the sentinel index."""
    return np.array([fnmatch.fnmatchcase(k, pattern) for k in keys] + [False], dtype=bool)


def null_step(name: str):
    """Stand-in for Tracer.step in untraced passes."""
    return nullcontext()
