"""End-to-end and per-layer benchmark of the ACCORD reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 7 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one is there):

``paper-cold``
    ``main(["--quick", "--seed", S])`` of every experiment module, in
    order, at ``-j 1``, with an empty result store and trace cache.
``paper-warm``
    The same sequence against a store and trace cache filled during
    set-up (one ``-j 2`` fill per run, copied into each iteration).
``sweep-j2``
    One ``Executor(jobs=2, batch=True)`` call with no store over the 16
    ``BENCH_DESIGNS`` plus the 16-point ``sweep_designs()`` PIP grid on
    soplex, libq, mcf and sphinx (128 jobs at 200k accesses), traces
    synthesized into the trace cache during set-up.

Every iteration runs in a fresh interpreter (:mod:`child`) with private
store and trace-cache directories under ``.perfbench_work/`` in the
checkout, which is removed at the end. Iterations repeat until their
timed sections add up to ``--seconds`` (at least one); each metric is
the median over iterations. ``--trace 1`` instead runs one untraced and one
traced iteration (plus a traced ``-j 1`` pass on ``sweep-j2`` for the
parallel efficiency) and reports the per-layer metrics.

Outputs are checked on every run: each experiment's rendered table
(sha256) and each sweep job's payload digest are compared with the
stream-engine references in ``reference.json`` when the seed has one.
For other seeds, iterations must agree with each other (paper-warm with
its cold fill), and a content-sampled share of jobs is re-run on the
stream engine after timing. A mismatch, an exception or a missing
result is a failed operation (an experiment on ``paper-*``, a job on
``sweep-j2``, a re-run job in the sampled check).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import TraceSummary, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("paper-cold", "paper-warm", "sweep-j2")
DEFAULT_SEED = 7
#: Share of jobs re-run on the stream engine when a seed has no reference.
CHECK_FRACTION = {"paper": 0.05, "sweep": 0.03}
#: Set-up samples per untraced run (extra set-up-only processes if the
#: timed iterations alone give fewer).
MIN_SETUP_SAMPLES = 3
#: A child that outlives this is killed and its iteration counted failed.
CHILD_TIMEOUT_S = 150.0

#: Environment knobs that would point a run at shared state or inject
#: faults; removed from the inherited environment.
SCRUBBED_ENV = ("REPRO_FAULT_PLAN", "REPRO_ENGINE_DENY", "REPRO_TRACE_CACHE",
                "REPRO_RESULTS_DIR", "REPRO_TRACE_DIR")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_accesses_per_s", "1/s"),
)

PAPER_EXPERIMENTS = (
    "fig1_associativity", "table1_lookup_cost", "table2_predictor_storage",
    "table4_workloads", "fig6_cyclic", "table5_pip", "fig7_accuracy",
    "table6_hitrate", "fig10_speedup_2way", "table7_sws_hitrate",
    "fig13_sws_speedup", "fig12_all_workloads", "table8_cache_size",
    "table9_storage", "table10_predictors", "fig14_predictor_speedup",
    "fig15_energy", "ablations",
)
ENGINES = ("vector", "replay", "stream", "loop")


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [(f"experiments.{m}.wall_s", "s", "lower")
            for m in PAPER_EXPERIMENTS]
    rows += [
        ("experiments.direct_builds", "count", "lower"),
        ("exec.executor.calls", "count", "lower"),
        ("exec.executor.keys_submitted", "count", "lower"),
        ("exec.executor.keys_unique", "count", "lower"),
        ("exec.executor.self_s", "s", "lower"),
        ("exec.dedup_ratio", "ratio", "higher"),
        ("exec.executed", "count", "lower"),
        ("exec.cached", "count", "higher"),
        ("exec.batches", "count", "higher"),
        ("exec.retried", "count", "lower"),
        ("exec.batching.plan_batches.self_s", "s", "lower"),
        ("exec.batching.publish_trace.self_s", "s", "lower"),
        ("exec.worker.busy_s", "s", "lower"),
        ("exec.parallel_efficiency", "ratio", "higher"),
        ("exec.store.get.calls", "count", "lower"),
        ("exec.store.get.self_s", "s", "lower"),
        ("exec.store.get.hits", "count", "higher"),
        ("exec.store.put.calls", "count", "lower"),
        ("exec.store.put.self_s", "s", "lower"),
        ("verify.payload_digest.calls", "count", "lower"),
        ("verify.payload_digest.self_s", "s", "lower"),
        ("workloads.synth.calls", "count", "lower"),
        ("workloads.synth.self_s", "s", "lower"),
        ("workloads.trace_cache.hits", "count", "higher"),
        ("workloads.trace_cache.misses", "count", "lower"),
        ("workloads.trace_cache.bytes_read", "B", "lower"),
        ("workloads.trace_cache.get.self_s", "s", "lower"),
        ("workloads.trace_cache.put.self_s", "s", "lower"),
        ("cache.build.calls", "count", "lower"),
        ("cache.build.self_s", "s", "lower"),
        ("cache.prefill_junk.calls", "count", "lower"),
        ("cache.prefill_junk.self_s", "s", "lower"),
    ]
    rows += [(f"sim.engines.resolved.{e}", "count", "higher")
             for e in ENGINES]
    for engine in ENGINES:
        rows += [(f"sim.engines.{engine}.drive_s", "s", "lower"),
                 (f"sim.engines.{engine}.accesses_per_s", "1/s", "higher")]
    rows += [
        ("sim.engines.vector.plan_builds", "count", "lower"),
        ("sim.engines.multi.fused_passes", "count", "higher"),
        ("sim.engines.multi.drive_fused.self_s", "s", "lower"),
        ("sim.engines.fused_ratio", "ratio", "higher"),
        ("sim.timing_model.evaluate.calls", "count", "lower"),
        ("sim.timing_model.evaluate.self_s", "s", "lower"),
        ("sim.frontend.run_frontend.self_s", "s", "lower"),
        ("sim.shard.run_sharded.calls", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


# -- child processes ---------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(spec: dict, work: Path) -> dict:
    """Run one iteration in a fresh interpreter; its result dict."""
    work.mkdir(parents=True)
    spec = dict(spec, work=str(work))
    env = child_env()
    env["REPRO_RESULTS_DIR"] = str(work / "store")
    env["REPRO_TRACE_DIR"] = str(work / "traces")
    # The executor's claim markers and other temp files stay in the run.
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    spec_path = work / "spec.json"
    log_path = work / "child.log"
    spec["launch"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=str(ROOT), env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The whole session: the iteration's pool workers too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
    result_path = work / "result.json"
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        return {"error": f"iteration process failed ({code}): {tail}"}
    return json.loads(result_path.read_text())


# -- output checks -----------------------------------------------------------


class Outcome:
    """Attempted/failed operation counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def judge(self, result: dict, expected, kind: str, what: str):
        """Count one iteration's operations; returns the expectation.

        Each experiment (``paper``) or job (``sweep``) named by the
        expectation or produced by the iteration is one operation. It
        fails when it raised, is missing, or differs from the
        expectation. With no expectation yet (a seed without reference
        digests), the first iteration that produced outputs becomes it.
        """
        if result.get("error"):
            self.notes.append(f"{what}: {result['error'].strip()[-300:]}")
        got = result_outputs(kind, result)
        for name, value in got.items():
            if value is None:
                error = result["outputs"][name]["error"]
                self.notes.append(f"{what}: {name}: {error[:300]}")
        if expected is None and any(v is not None for v in got.values()):
            expected = {k: v for k, v in got.items() if v is not None}
        names = set(expected or ()) | set(got)
        if not names:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{what}: no outputs")
            return expected
        bad = sorted(n for n in names if got.get(n) is None
                     or (n in expected and expected[n] != got[n]))
        self.attempted += len(names)
        self.failed += len(bad)
        if bad:
            self.notes.append(f"{what}: {len(bad)} wrong or missing, "
                              f"e.g. {bad[:3]}")
        return expected

    def add_check(self, check) -> None:
        """Count a sampled stream-engine re-run (one operation per job)."""
        if check:
            self.attempted += check["checked"]
            self.failed += check["mismatches"]
            if check["mismatches"]:
                self.notes.append(
                    f"stream re-run: {check['mismatches']} of "
                    f"{check['checked']} sampled jobs differ")


def result_outputs(kind: str, result: dict) -> dict:
    """Experiment -> table sha256 (None if it raised), or job -> digest."""
    outputs = result.get("outputs", {})
    if kind == "paper":
        return {name: (out["sha256"] if out["error"] is None else None)
                for name, out in outputs.items()}
    return dict(outputs)


# -- metrics -----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, untraced_wall: float,
                  parallel_job_s: float = 0.0) -> dict:
    """Per-layer metrics from one traced iteration's summaries."""
    main = TraceSummary.from_json(trace["main"])
    merged = TraceSummary.from_json(trace["main"])
    merged.merge(TraceSummary.from_json(trace["workers"]))
    counters = merged.counters

    def calls(name):
        return merged.layer(name).calls

    def self_s(name):
        return merged.layer(name).self_s

    def total_s(name):
        return merged.layer(name).total_s

    def ratio(num, den):
        return num / den if den else 0.0

    count = counters.get
    m = {f"experiments.{x}.wall_s": total_s(f"experiments.{x}")
         for x in PAPER_EXPERIMENTS}
    m["experiments.direct_builds"] = count("experiments.direct_builds", 0)
    m["exec.executor.calls"] = calls("exec.executor")
    m["exec.executor.keys_submitted"] = count(
        "exec.executor.keys_submitted", 0)
    m["exec.executor.keys_unique"] = count("exec.executor.keys_unique", 0)
    m["exec.executor.self_s"] = self_s("exec.executor")
    m["exec.dedup_ratio"] = ratio(m["exec.executor.keys_unique"],
                                  m["exec.executor.keys_submitted"])
    for name in ("executed", "cached", "batches", "retried"):
        m[f"exec.{name}"] = count(f"exec.{name}", 0)
    for name in ("plan_batches", "publish_trace"):
        m[f"exec.batching.{name}.self_s"] = self_s(f"exec.batching.{name}")
    m["exec.worker.busy_s"] = total_s("exec.worker.task")
    m["exec.parallel_efficiency"] = ratio(parallel_job_s, 2 * untraced_wall)
    for op in ("get", "put"):
        m[f"exec.store.{op}.calls"] = calls(f"exec.store.{op}")
        m[f"exec.store.{op}.self_s"] = self_s(f"exec.store.{op}")
    m["exec.store.get.hits"] = count("exec.store.get.hits", 0)
    m["verify.payload_digest.calls"] = calls("verify.payload_digest")
    m["verify.payload_digest.self_s"] = self_s("verify.payload_digest")
    m["workloads.synth.calls"] = calls("workloads.synth")
    m["workloads.synth.self_s"] = self_s("workloads.synth")
    for name in ("hits", "misses", "bytes_read"):
        m[f"workloads.trace_cache.{name}"] = count(
            f"workloads.trace_cache.{name}", 0)
    for op in ("get", "put"):
        m[f"workloads.trace_cache.{op}.self_s"] = self_s(
            f"workloads.trace_cache.{op}")
    for name in ("build", "prefill_junk"):
        m[f"cache.{name}.calls"] = calls(f"cache.{name}")
        m[f"cache.{name}.self_s"] = self_s(f"cache.{name}")
    for engine in ENGINES:
        m[f"sim.engines.resolved.{engine}"] = count(
            f"sim.engines.resolved.{engine}", 0)
    for engine in ENGINES:
        span = f"sim.engines.{engine}.drive"
        m[f"sim.engines.{engine}.drive_s"] = self_s(span)
        m[f"sim.engines.{engine}.accesses_per_s"] = ratio(
            count(f"sim.engines.{engine}.accesses", 0), total_s(span))
    m["sim.engines.vector.plan_builds"] = count(
        "sim.engines.vector.plan_builds", 0)
    m["sim.engines.multi.fused_passes"] = count(
        "sim.engines.multi.fused_passes", 0)
    m["sim.engines.multi.drive_fused.self_s"] = self_s(
        "sim.engines.multi.drive_fused")
    m["sim.engines.fused_ratio"] = ratio(
        count("sim.engines.multi.fused_configs", 0), m["exec.executed"])
    m["sim.timing_model.evaluate.calls"] = calls("sim.timing_model.evaluate")
    m["sim.timing_model.evaluate.self_s"] = self_s(
        "sim.timing_model.evaluate")
    m["sim.frontend.run_frontend.self_s"] = self_s("sim.frontend.run_frontend")
    m["sim.shard.run_sharded.calls"] = calls("sim.shard.run_sharded")
    m["trace.wall_s"] = main.root_s
    m["trace.unattributed_s"] = main.unattributed_s
    m["trace.overhead_frac"] = ratio(main.root_s - untraced_wall,
                                     untraced_wall)
    return m


def attribution_residual(trace: dict) -> float:
    """Main-process layer self times + unattributed, minus traced wall."""
    main = TraceSummary.from_json(trace["main"])
    layer_self = sum(stat.self_s for name, stat in main.layers.items()
                     if name != Tracer.ROOT)
    return layer_self + main.unattributed_s - main.root_s


# -- one benchmark run -------------------------------------------------------


def load_reference(seed: int, workload: str, tiny: bool):
    if tiny or not REFERENCE_FILE.exists():
        return None
    seeds = json.loads(REFERENCE_FILE.read_text()).get("seeds", {})
    entry = seeds.get(str(seed))
    if entry is None:
        return None
    return entry["paper"] if workload.startswith("paper") else entry["sweep"]


def benchmark(workload: str, trace: int, args, scratch: Path) -> dict:
    """Run ``workload`` (traced or not) and check its outputs."""
    scratch.mkdir()
    kind = "paper" if workload.startswith("paper") else "sweep"
    reference = load_reference(args.seed, workload, args.tiny)
    check = 0.0 if reference is not None else CHECK_FRACTION[kind]
    base = {"workload": workload, "seed": args.seed, "tiny": args.tiny,
            "jobs": 2 if kind == "sweep" else 1}
    outcome = Outcome()
    counter = itertools.count()

    def child(**extra):
        work = scratch / f"it{next(counter)}"
        result = run_child(dict(base, **extra), work)
        shutil.rmtree(work, ignore_errors=True)
        return result

    expected = reference
    if workload == "paper-warm":
        fill_dir = scratch / "fill"
        fill = run_child(dict(base, workload="paper-cold", jobs=2,
                              check_fraction=check), fill_dir)
        outcome.add_check(fill.get("check"))
        expected = outcome.judge(fill, expected, kind, "store fill")
        base["snapshot"] = str(fill_dir)
        check = 0.0  # the fill's store was checked; iterations only read it
    results = []
    traced = []
    if trace:
        results.append(child(check_fraction=check))
        traced.append(child(trace=True))
        if kind == "sweep":
            traced.append(child(trace=True, jobs=1))
    else:
        spent = 0.0
        while True:
            result = child(check_fraction=check if not results else 0.0)
            results.append(result)
            spent += result.get("wall_s", 0.0)
            if "wall_s" not in result or spent >= args.seconds:
                break
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    if not trace:
        while len(setups) < MIN_SETUP_SAMPLES and setups:
            extra = child(setup_only=True)
            if "setup_s" not in extra:
                break
            setups.append(extra["setup_s"])

    for index, result in enumerate(results + traced):
        outcome.add_check(result.get("check"))
        expected = outcome.judge(result, expected, kind, f"iteration {index}")

    good = [r for r in results if "wall_s" in r]
    metrics = {}
    extra = {"iterations": len(results), "walls": [r["wall_s"] for r in good]}
    if good:
        untraced_wall = median([r["wall_s"] for r in good])
        if trace:
            if all("trace" in r for r in traced):
                parallel_job_s = 0.0
                if kind == "sweep":
                    parallel_job_s = TraceSummary.from_json(
                        traced[1]["trace"]["main"]).layer(
                            "exec.executor").total_s
                metrics = layer_metrics(traced[0]["trace"], untraced_wall,
                                        parallel_job_s)
                extra["attribution_residual_s"] = attribution_residual(
                    traced[0]["trace"])
        else:
            metrics = {
                "wall_s": untraced_wall,
                "setup_s": median(setups),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
                "sim_accesses_per_s": median(
                    [r["accesses"] / r["wall_s"] for r in good]),
            }
            extra["setups"] = setups
            extra["exec_stats"] = [r.get("exec_stats") for r in good
                                   if r.get("exec_stats")]
    return {"outcome": outcome, "metrics": metrics, "extra": extra,
            "reference": reference is not None}


# -- reference digests -------------------------------------------------------


def make_reference(seed: int, scratch: Path) -> dict:
    """Stream-engine table hashes and job digests for ``seed``."""
    paper = run_child({"workload": "paper-cold", "seed": seed, "jobs": 2,
                       "engine": "stream"}, scratch / "ref-paper")
    sweep = run_child({"workload": "sweep-j2", "seed": seed, "jobs": 2,
                       "engine": "stream"}, scratch / "ref-sweep")
    for result in (paper, sweep):
        if result.get("error"):
            raise SystemExit(f"reference run failed: {result['error']}")
    failed = [n for n, out in paper["outputs"].items() if out["error"]]
    if failed:
        raise SystemExit(f"reference experiments failed: {failed}")
    return {"paper": result_outputs("paper", paper), "sweep": sweep["outputs"]}


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="paper-cold",
                        help="'all' runs every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default 7, the repo default)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (no reference check)")
    parser.add_argument("--make-reference", action="store_true",
                        help="compute the seed's stream-engine reference "
                             "digests into reference.json and exit")
    parser.add_argument("--record", action="store_true",
                        help="store this run's metrics in reference.json "
                             "beside the seed's reference digests")
    return parser.parse_args(argv)


def update_reference(seed: int, update) -> None:
    data = (json.loads(REFERENCE_FILE.read_text())
            if REFERENCE_FILE.exists() else {"seeds": {}})
    update(data["seeds"].setdefault(str(seed), {}))
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")


def print_report(workload: str, trace: int, args, report: dict) -> dict:
    """Print one run's metric table; return its result-line dict."""
    outcome = report["outcome"]
    metrics = report["metrics"]
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _b in per_layer_names())
    wanted = ([n for n, _u, _b in per_layer_names()] if trace
              else [n for n, _u in END_TO_END])
    env = environment()
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload={workload} seed={args.seed} trace={trace} "
          f"reference={'yes' if report['reference'] else 'no'} "
          f"iterations={report['extra']['iterations']}")
    for name in wanted:
        if name in metrics:
            print(f"{name:44s} {metrics[name]:>16.6g} {units[name]}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'failed_ratio':44s} {ratio:>16.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    if "attribution_residual_s" in report["extra"]:
        print(f"# self times + unattributed - traced wall = "
              f"{report['extra']['attribution_residual_s']:.3e} s")
    for note in outcome.notes:
        print(f"# FAILED: {note}")
    print(f"# detail: {json.dumps(report['extra'], sort_keys=True)}")
    if args.record and not trace and not args.tiny:
        update_reference(args.seed, lambda entry: entry.setdefault(
            "measured", {}).update({workload: dict(
                {k: round(v, 6) for k, v in metrics.items()},
                failed_ratio=ratio, env=env)}))
    complete = all(name in metrics for name in wanted)
    return {
        "correct": outcome.failed == 0 and complete,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted if name in metrics},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    lines = {}
    try:
        if args.make_reference:
            ref = make_reference(args.seed, scratch)
            update_reference(args.seed, lambda entry: entry.update(ref))
            print(f"reference for seed {args.seed}: {len(ref['paper'])} "
                  f"tables, {len(ref['sweep'])} jobs")
            return 0
        for workload, trace in runs:
            report = benchmark(workload, trace, args,
                               scratch / f"{workload}-{trace}")
            lines[workload, trace] = print_report(workload, trace, args,
                                                  report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it

    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{name}": value
                        for (w, _t), l in lines.items()
                        for name, value in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
