"""In-memory span tracer that wraps repro's public functions from outside.

The program is not edited: :meth:`Tracer.install` replaces each target
(a module-level function or a class attribute) with a wrapper that
records a span, and :meth:`Tracer.restore` puts every original back.
A function imported by name elsewhere (``from repro.exec.batching
import plan_batches``) is replaced in every loaded ``repro`` module
that holds it, so call sites see the wrapper whichever name they use.

Spans nest on one stack per process. A span's *self* time is its
duration minus the durations of the spans directly inside it, so over
one process the self times of all spans add up to the root span's
duration; :attr:`TraceSummary.unattributed_s` is the root's own self
time (work done outside any wrapped layer).

Pool workers forked while the tracer is installed inherit the wrappers.
Their spans are written to ``flush_dir/<pid>.jsonl`` each time a worker
entry point returns, and :func:`read_worker_flushes` merges them back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Worker entry points whose return flushes a forked worker's spans.
WORKER_ENTRIES = (
    ("repro.exec.jobs", "execute_job_traced"),
    ("repro.exec.jobs", "execute_shard_traced"),
    ("repro.exec.batching", "execute_batch_traced"),
)

ENGINE_CLASSES = (
    ("vector", "repro.sim.engines.vector", "VectorEngine"),
    ("replay", "repro.sim.engines.replay", "SparseReplayEngine"),
    ("stream", "repro.sim.engines.stream", "StreamEngine"),
    ("loop", "repro.sim.engines.loop", "PerAccessEngine"),
)


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0

    def add(self, other: "LayerStat") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s


@dataclass
class TraceSummary:
    """Per-span-name totals and counters of one or more processes."""

    layers: Dict[str, LayerStat] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    root_s: float = 0.0
    unattributed_s: float = 0.0

    def merge(self, other: "TraceSummary") -> None:
        for name, stat in other.layers.items():
            self.layers.setdefault(name, LayerStat()).add(stat)
        self.counters.update(other.counters)

    def layer(self, name: str) -> LayerStat:
        return self.layers.get(name, LayerStat())

    def to_json(self) -> dict:
        return {
            "layers": {name: [s.calls, s.self_s, s.total_s]
                       for name, s in self.layers.items()},
            "counters": dict(self.counters),
            "root_s": self.root_s,
            "unattributed_s": self.unattributed_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TraceSummary":
        return cls(
            layers={name: LayerStat(*v) for name, v in data["layers"].items()},
            counters=Counter(data["counters"]),
            root_s=data["root_s"],
            unattributed_s=data["unattributed_s"],
        )


class Tracer:
    """Records spans around wrapped repro functions; see module docstring."""

    ROOT = "bench.run"

    def __init__(self, flush_dir: Optional[str] = None):
        self.flush_dir = flush_dir
        self.pid = os.getpid()
        #: Finished spans: (name, start, end, depth).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        #: Distinct job digests submitted to executors (main process).
        self.unique_keys: set = set()
        self._stack: List[Tuple[str, float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._thread = threading.get_ident()
        self._installed = False
        self._fork_hook = False
        self._fork_marks: Dict[str, int] = {}

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append((name, time.perf_counter()))

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start = self._stack.pop()
        self.spans.append((name, start, end, len(self._stack)))

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def active(self, name: str) -> bool:
        """True when a span called ``name`` is open on the stack."""
        return any(frame[0] == name for frame in self._stack)

    def summary(self) -> TraceSummary:
        """Self/total time per span name, plus this process's counters."""
        out = TraceSummary(counters=Counter(self.counters))
        # Spans close innermost-first, so a span's children are the
        # spans one level deeper that closed since its siblings did.
        pending: Dict[int, float] = {}
        for name, start, end, depth in self.spans:
            duration = end - start
            child_s = pending.pop(depth + 1, 0.0)
            pending[depth] = pending.get(depth, 0.0) + duration
            stat = out.layers.setdefault(name, LayerStat())
            stat.calls += 1
            stat.self_s += duration - child_s
            stat.total_s += duration
            if depth == 0 and name == self.ROOT:
                out.root_s += duration
                out.unattributed_s += duration - child_s
        return out

    # -- wrapping ------------------------------------------------------

    def _wrap(self, original: Callable, name: str,
              pre: Optional[Callable] = None,
              post: Optional[Callable] = None,
              flush: bool = False) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
                if flush and os.getpid() != tracer.pid:
                    tracer._flush_worker()
            if post is not None:
                post(state, args, result)
            return result

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str,
                       **hooks) -> None:
        """Wrap ``module.attr`` and every repro alias bound to it."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    def patch_method(self, module_name: str, cls_name: str, attr: str,
                     name: str, **hooks) -> None:
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, **hooks))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._installed = False

    # -- forked workers ------------------------------------------------

    def _after_fork(self) -> None:
        if not self._installed:
            return
        self._stack = []
        self.spans = []
        self.counters.clear()  # in place: the install hooks hold it
        self._thread = threading.get_ident()
        self._fork_marks = _process_marks()

    def _flush_worker(self) -> None:
        marks = _process_marks()
        for key, value in marks.items():
            self.counters[key] += value - self._fork_marks.get(key, 0)
        self._fork_marks = marks
        record = self.summary().to_json()
        self.spans = []
        self.counters.clear()
        if self.flush_dir is None:
            return
        path = Path(self.flush_dir) / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    # -- install -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        _import_layers()
        count = self.counters

        def executor_post(state, args, result):
            executor = args[0]
            keys = list(args[1])
            count["exec.executor.keys_submitted"] += len(keys)
            self.unique_keys.update(key.digest() for key in keys)
            stats = executor.stats
            count["exec.executed"] += stats.executed
            count["exec.cached"] += stats.cached
            count["exec.batches"] += stats.batches
            count["exec.retried"] += (stats.retried + stats.transient_retries
                                      + stats.timeouts + stats.pool_breaks)

        def store_get_post(state, args, result):
            if result is not None:
                count["exec.store.get.hits"] += 1

        def trace_stats(args, kwargs):
            stats = args[0].stats
            return (stats.hits, stats.misses, stats.bytes_read)

        def trace_get_post(state, args, result):
            stats = args[0].stats
            count["workloads.trace_cache.hits"] += stats.hits - state[0]
            count["workloads.trace_cache.misses"] += stats.misses - state[1]
            count["workloads.trace_cache.bytes_read"] += (
                stats.bytes_read - state[2])

        def direct_build(args, kwargs):
            if os.getpid() == self.pid and not self.active("exec.executor"):
                count["experiments.direct_builds"] += 1

        def resolved_post(state, args, result):
            count[f"sim.engines.resolved.{result.name}"] += 1

        self.patch_method("repro.exec.executor", "Executor", "run",
                          "exec.executor", post=executor_post)
        for attr in ("plan_batches", "publish_trace"):
            self.patch_function("repro.exec.batching", attr,
                                f"exec.batching.{attr}")
        self.patch_method("repro.exec.store", "ResultStore", "get",
                          "exec.store.get", post=store_get_post)
        self.patch_method("repro.exec.store", "ResultStore", "put",
                          "exec.store.put")
        self.patch_function("repro.verify.digest", "payload_digest",
                            "verify.payload_digest")
        self.patch_method("repro.workloads.synthetic", "SyntheticWorkload",
                          "generate", "workloads.synth")
        self.patch_function("repro.workloads.mixes", "build_mix_trace",
                            "workloads.synth")
        self.patch_method("repro.workloads.trace_cache", "TraceCache", "get",
                          "workloads.trace_cache.get", pre=trace_stats,
                          post=trace_get_post)
        self.patch_method("repro.workloads.trace_cache", "TraceCache", "put",
                          "workloads.trace_cache.put")
        self.patch_function("repro.sim.system", "build_dram_cache",
                            "cache.build")
        self.patch_function("repro.core.accord", "make_design",
                            "cache.make_design", pre=direct_build)
        self.patch_method("repro.cache.storage", "TagStore", "prefill_junk",
                          "cache.prefill_junk")
        self.patch_function("repro.sim.engines", "resolve_engine",
                            "sim.engines.resolve", post=resolved_post)
        for engine, module_name, cls_name in ENGINE_CLASSES:
            def drive_post(state, args, result, engine=engine):
                stream = args[2]
                count[f"sim.engines.{engine}.accesses"] += len(
                    getattr(stream, "trace", stream))
            self.patch_method(module_name, cls_name, "drive",
                              f"sim.engines.{engine}.drive", post=drive_post)
        self.patch_function("repro.sim.engines.multi", "drive_fused",
                            "sim.engines.multi.drive_fused")
        self.patch_method("repro.sim.timing_model", "IntervalTimingModel",
                          "evaluate", "sim.timing_model.evaluate")
        self.patch_function("repro.sim.frontend", "run_frontend",
                            "sim.frontend.run_frontend")
        self.patch_function("repro.sim.shard", "run_sharded",
                            "sim.shard.run_sharded")
        for module_name, attr in WORKER_ENTRIES:
            self.patch_function(module_name, attr, "exec.worker.task",
                                flush=True)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        self._fork_marks = _process_marks()
        self._installed = True

    def finish(self) -> TraceSummary:
        """Restore the originals and summarize this process's spans.

        Process-local counters (vector plan builds, fused passes) are
        taken as deltas since :meth:`install`.
        """
        marks = _process_marks()
        for key, value in marks.items():
            self.counters[key] += value - self._fork_marks.get(key, 0)
        self.restore()
        summary = self.summary()
        summary.counters["exec.executor.keys_unique"] = len(self.unique_keys)
        return summary


def _import_layers() -> None:
    import importlib

    for module_name in (
        "repro.exec.executor", "repro.exec.batching", "repro.exec.store",
        "repro.exec.jobs", "repro.verify.digest", "repro.workloads.synthetic",
        "repro.workloads.mixes", "repro.workloads.trace_cache",
        "repro.sim.system", "repro.core.accord", "repro.cache.storage",
        "repro.sim.engines", "repro.sim.engines.multi",
        "repro.sim.timing_model", "repro.sim.frontend", "repro.sim.shard",
        "repro.sim.runner", "repro.experiments.common",
    ) + tuple(module for _e, module, _c in ENGINE_CLASSES):
        importlib.import_module(module_name)


def _process_marks() -> Dict[str, int]:
    """Monotonic per-process counters the program itself keeps."""
    from repro.sim.engines.multi import fused_pass_count
    from repro.sim.engines.vector import plan_build_count

    passes, configs = fused_pass_count()
    return {
        "sim.engines.vector.plan_builds": plan_build_count(),
        "sim.engines.multi.fused_passes": passes,
        "sim.engines.multi.fused_configs": configs,
    }


def read_worker_flushes(flush_dir: str) -> TraceSummary:
    """Merge every worker's flushed spans and counters."""
    out = TraceSummary()
    for path in sorted(Path(flush_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                out.merge(TraceSummary.from_json(json.loads(line)))
    return out
