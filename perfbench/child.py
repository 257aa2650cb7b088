"""One benchmark iteration in a fresh interpreter.

``python3 perfbench/child.py SPEC.json`` prepares the iteration's
private directories and inputs (the set-up), runs the timed section
once, and writes ``result.json`` next to the spec. A fresh process per
iteration means no in-process memo (trace factories, engine plans) from
an earlier iteration leaks into a cold run. :mod:`run` launches it with
``src`` on ``PYTHONPATH`` and ``REPRO_RESULTS_DIR``/``REPRO_TRACE_DIR``
pointing at the spec's private directories.

Spec keys: ``workload`` (paper-cold, paper-warm, sweep-j2), ``seed``,
``work`` (private directory), ``launch`` (``time.monotonic()`` just
before the process was started, so set-up includes interpreter start),
``snapshot`` (directory copied into ``work`` during set-up, for
paper-warm), ``jobs``, ``engine``, ``tiny`` (smoke-test sizes),
``trace`` (install the tracer), ``setup_only`` (stop after set-up,
for extra set-up samples), ``check_fraction`` (share of jobs
re-run on the stream engine after timing; 0 skips it).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

PAPER_ARGS = ["--quick"]
TINY_PAPER_ARGS = ["--quick", "--accesses", "3000"]
SWEEP_WORKLOADS = ("soplex", "libq", "mcf", "sphinx")
SWEEP_ACCESSES = 200_000
SWEEP_WARMUP = 0.5
TINY_SWEEP_ACCESSES = 4000


class RssSampler(threading.Thread):
    """Peak RSS of this process plus the peaks of its child processes.

    This process's own peak comes from ``getrusage``; each child's
    ``VmHWM`` (its own high-water mark) is polled from ``/proc`` while
    it lives, so a pool worker's peak is kept after it exits.
    """

    def __init__(self, interval: float = 0.05):
        super().__init__(daemon=True)
        self.interval = interval
        self.peaks_kb = {}
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        for pid in _child_pids():
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            if kb > self.peaks_kb.get(pid, 0):
                                self.peaks_kb[pid] = kb
                            break
            except (OSError, ValueError):
                continue  # exited between listing and reading

    def stop(self) -> float:
        """Stop polling; total peak in MB."""
        self.sample()
        self._stop_event.set()
        self.join()
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + sum(self.peaks_kb.values())) / 1024.0


def _child_pids():
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend((task / "children").read_text().split())
        except OSError:
            continue
    return pids


# -- workloads ---------------------------------------------------------------


def paper_modules():
    from repro.experiments import EXPERIMENT_MODULES

    return [
        (name, importlib.import_module(f"repro.experiments.{name}"))
        for name in EXPERIMENT_MODULES
    ]


def paper_argv(spec) -> list:
    argv = list(TINY_PAPER_ARGS if spec.get("tiny") else PAPER_ARGS)
    argv += ["--seed", str(spec["seed"]), "--jobs", str(spec.get("jobs", 1))]
    if spec.get("engine", "auto") != "auto":
        argv += ["--engine", spec["engine"]]
    return argv


def run_paper(modules, argv, tracer=None):
    """Call every experiment's ``main`` in order; per-experiment outcome.

    An experiment that raises (``ReproError`` or anything else, an
    argparse exit included) is recorded as failed and the sequence goes
    on, so one broken experiment cannot hide the others' timings.
    """
    outputs = {}
    for name, module in modules:
        buffer = io.StringIO()
        span = (tracer.span(f"experiments.{name}") if tracer is not None
                else contextlib.nullcontext())
        error = None
        try:
            with span, contextlib.redirect_stdout(buffer):
                module.main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted
            error = f"{type(exc).__name__}: {exc}"
        outputs[name] = {
            "sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
            "error": error,
        }
    return outputs


def sweep_keys(seed: int, tiny: bool = False, engine: str = "auto"):
    """The sweep-j2 job matrix: 32 designs x 4 workloads."""
    from repro.exec import JobKey
    from repro.sim.bench import BENCH_DESIGNS, sweep_designs

    accesses = TINY_SWEEP_ACCESSES if tiny else SWEEP_ACCESSES
    return [
        JobKey(design=design, workload=workload, num_accesses=accesses,
               warmup=SWEEP_WARMUP, seed=seed, engine=engine)
        for workload in SWEEP_WORKLOADS
        for design in BENCH_DESIGNS + sweep_designs()
    ]


def job_label(key) -> str:
    return f"{key.workload}/{key.design.display_name}"


def synthesize_traces(keys) -> None:
    """Generate each distinct trace into the on-disk trace cache."""
    from repro.params.system import scaled_system
    from repro.sim.runner import TraceFactory

    seen = set()
    for key in keys:
        group = (key.workload, key.scale, key.num_accesses, key.seed,
                 key.footprint_scale)
        if group in seen:
            continue
        seen.add(group)
        TraceFactory(scaled_system(ways=1, scale=key.scale), key.num_accesses,
                     key.seed, footprint_scale=key.footprint_scale
                     ).trace_for(key.workload)


def store_accesses(store_root: Path) -> int:
    """Simulated accesses summed over the result store's entries."""
    total = 0
    for entry in store_root.glob("??/*.json"):
        with open(entry, encoding="utf-8") as handle:
            total += json.load(handle)["key"]["num_accesses"]
    return total


# -- checks ------------------------------------------------------------------


def audit_paper_store(store_root: Path, fraction: float) -> dict:
    """Re-run a content-sampled share of stored jobs on the stream engine."""
    from repro.verify.audit import audit_store

    report = audit_store(store_root, recompute_fraction=fraction,
                         engine="stream", quarantine=False)
    return {"checked": report.recomputed, "mismatches": report.mismatches}


def shadow_sweep(keys, digests, fraction: float) -> dict:
    """Re-run a content-sampled share of sweep jobs on the stream engine.

    The share is a fixed count (at least one job), picked by a hash of
    each job's digest, so every seed gets the same amount of checking.
    """
    from repro.verify.digest import result_digest
    from repro.verify.shadow import reference_result

    count = max(1, round(len(keys) * fraction))
    sample = sorted(keys, key=lambda key: hashlib.sha256(
        f"perfbench-check:{key.digest()}".encode()).digest())[:count]
    mismatches = 0
    for key in sample:
        reference = result_digest(reference_result(key, engine="stream"))
        if digests.get(job_label(key)) != reference:
            mismatches += 1
    return {"checked": len(sample), "mismatches": mismatches}


# -- one iteration -----------------------------------------------------------


def prepare_dirs(spec) -> Path:
    work = Path(spec["work"])
    snapshot = spec.get("snapshot")
    for sub in ("store", "traces"):
        if snapshot:
            shutil.copytree(Path(snapshot) / sub, work / sub)
        else:
            (work / sub).mkdir(parents=True, exist_ok=True)
    return work


def run_iteration(spec) -> dict:
    work = prepare_dirs(spec)
    workload = spec["workload"]
    seed = spec["seed"]
    tiny = bool(spec.get("tiny"))
    paper = workload.startswith("paper")
    if paper:
        modules = paper_modules()
        argv = paper_argv(spec)
    else:
        from repro.exec import Executor

        keys = sweep_keys(seed, tiny, spec.get("engine", "auto"))
        synthesize_traces(keys)
        executor = Executor(jobs=spec.get("jobs", 2),
                            batch=spec.get("engine", "auto") == "auto")
    setup_s = time.monotonic() - spec["launch"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        flush_dir = work / "spans"
        flush_dir.mkdir()
        tracer = Tracer(flush_dir=str(flush_dir))
        tracer.install()

    sampler = RssSampler()
    sampler.start()
    out = {"setup_s": setup_s, "error": None}
    root = (tracer.span(tracer.ROOT) if tracer is not None
            else contextlib.nullcontext())
    start = time.perf_counter()
    with root:
        if paper:
            outputs = run_paper(modules, argv, tracer)
        else:
            try:
                results = executor.run(keys)
            except Exception as exc:  # noqa: BLE001 - counted as failures
                results = {}
                out["error"] = f"{type(exc).__name__}: {exc}"
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = sampler.stop()

    if tracer is not None:
        from tracer import read_worker_flushes

        main = tracer.finish()
        workers = read_worker_flushes(str(work / "spans"))
        out["trace"] = {"main": main.to_json(), "workers": workers.to_json()}
    check = float(spec.get("check_fraction", 0.0))
    if paper:
        out["outputs"] = outputs
        store = work / "store"
        out["accesses"] = store_accesses(store)
        if check > 0:
            out["check"] = audit_paper_store(store, check)
    else:
        from repro.verify.digest import result_digest

        digests = {job_label(key): result_digest(results[key])
                   for key in keys if key in results}
        out["outputs"] = digests
        out["accesses"] = sum(
            key.num_accesses for key in keys if key in results)
        out["exec_stats"] = dict(vars(executor.stats))
        if check > 0 and digests:
            out["check"] = shadow_sweep(keys, digests, check)
    return out


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    result = run_iteration(spec)
    tmp = spec_file.with_name("result.json.tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, spec_file.with_name("result.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
