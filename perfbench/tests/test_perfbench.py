"""Self-tests of the benchmark: tracer contract and tiny smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _tiny_keys(n_designs=3):
    from repro.exec import JobKey
    from repro.sim.bench import BENCH_DESIGNS

    return [JobKey(design=design, workload="soplex", num_accesses=2000,
                   warmup=0.5, seed=3)
            for design in BENCH_DESIGNS[:n_designs]]


@pytest.fixture
def private_dirs(tmp_path, monkeypatch):
    for name in bench.SCRUBBED_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    return tmp_path


def test_restore_puts_every_original_back(private_dirs):
    import repro.exec.batching as batching
    import repro.exec.executor as executor
    import repro.sim.system as system
    from repro.exec.store import ResultStore

    originals = {
        "run": executor.Executor.__dict__["run"],
        "get": ResultStore.__dict__["get"],
        "plan_batches": batching.plan_batches,
        "executor_alias": executor.plan_batches,
        "build": system.build_dram_cache,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert executor.Executor.__dict__["run"] is not originals["run"]
        assert executor.plan_batches is not originals["executor_alias"]
        assert batching.plan_batches is executor.plan_batches
    finally:
        tracer.finish()
    assert executor.Executor.__dict__["run"] is originals["run"]
    assert ResultStore.__dict__["get"] is originals["get"]
    assert batching.plan_batches is originals["plan_batches"]
    assert executor.plan_batches is originals["executor_alias"]
    assert system.build_dram_cache is originals["build"]


def test_self_times_and_unattributed_sum_to_wall(private_dirs):
    from repro.exec import Executor, ResultStore

    keys = _tiny_keys()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(Tracer.ROOT):
            Executor(jobs=1, store=ResultStore()).run(keys + keys[:1])
    finally:
        summary = tracer.finish()
    self_total = sum(stat.self_s for stat in summary.layers.values())
    assert self_total == pytest.approx(summary.root_s, abs=1e-9)
    root = summary.layers[Tracer.ROOT]
    assert root.self_s == pytest.approx(summary.unattributed_s, abs=1e-12)
    assert summary.counters["exec.executor.keys_submitted"] == 4
    assert summary.counters["exec.executor.keys_unique"] == 3
    assert summary.counters["exec.executed"] == 3
    assert summary.layers["exec.store.put"].calls == 3
    assert summary.layers["workloads.synth"].calls >= 1


def _run_bench(*args, cwd=ROOT, timeout=300):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)
    return proc


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = _run_bench("--workload", workload, "--seed", "5", "--seconds",
                      "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {name for name, _u in bench.END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_tiny_traced_sweep_reports_every_layer():
    proc = _run_bench("--workload", "sweep-j2", "--seed", "5", "--seconds",
                      "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    names = [name for name, _u, _b in bench.per_layer_names()]
    assert list(line["metrics"]) == names
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    # Worker-side spans came back through the flush files.
    assert metrics["sim.engines.multi.fused_passes"] > 0
    assert metrics["exec.worker.busy_s"] > 0
    assert metrics["exec.executed"] == 128
    assert metrics["exec.store.get.calls"] == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == bench.per_layer_names()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work*"))
    proc = _run_bench("--workload", "paper-cold", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path,
                      timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
