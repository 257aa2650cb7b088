"""End-to-end chaos tests: seeded fault plans against real sweeps.

Every test drives a genuine designs x workloads batch through the
executor while an injected :class:`FaultPlan` crashes, hangs, and
corrupts things, then asserts the final results are *bit-identical* to
a fault-free serial baseline — the property the whole resilience stack
exists to protect.

Each test embeds its own ``dir=`` ledger path in the plan spec: the
ledger shares fault budgets across worker processes, and the unique
spec string defeats the per-spec plan cache between tests.
"""

import pytest

from repro.core.accord import AccordDesign
from repro.exec import (
    BackoffPolicy,
    Executor,
    JobKey,
    ResultStore,
    SweepJournal,
)
from repro.exec.faults import FAULT_PLAN_ENV

ACCESSES = 3000

DESIGNS = (
    AccordDesign(kind="direct", ways=1),
    AccordDesign(kind="accord", ways=2),
)
WORKLOADS = ("soplex", "libq", "mcf", "sphinx")


def all_keys():
    return [
        JobKey(design=d, workload=w, num_accesses=ACCESSES, warmup=0.3, seed=7)
        for d in DESIGNS
        for w in WORKLOADS
    ]


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial reference results, computed once."""
    results = Executor(jobs=1).run(all_keys())
    return {key: result.to_dict() for key, result in results.items()}


def fast_backoff():
    return BackoffPolicy(base=0.01, max_delay=0.05)


@pytest.fixture
def isolated_traces(tmp_path, monkeypatch):
    """Chaos runs corrupt trace-cache entries; keep them off the shared
    per-session trace directory. The in-process trace memo is cleared
    too, else runs after the baseline never touch the disk cache (and
    forked workers would inherit the warm memo)."""
    from repro.exec import jobs as jobs_module

    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    jobs_module._FACTORY_CACHE.clear()
    yield tmp_path
    jobs_module._FACTORY_CACHE.clear()


class TestChaos:
    def test_mixed_faults_bit_identical(
        self, isolated_traces, monkeypatch, baseline
    ):
        tmp = isolated_traces
        ledger = tmp / "ledger"
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            f"seed=13;dir={ledger};crash=2;os_error=2;disk_full=1;"
            "corrupt_store=1;truncate_trace=1",
        )
        ex = Executor(
            jobs=2, store=ResultStore(tmp / "results"), retries=6,
            backoff=fast_backoff(),
        )
        resolved = ex.run(all_keys())
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline
        fired = {slot.name.rsplit(".", 1)[0] for slot in ledger.iterdir()}
        assert len(fired) >= 4  # the chaos actually happened
        assert "crash" in fired

    def test_hung_worker_killed_and_rescheduled(
        self, isolated_traces, monkeypatch, baseline
    ):
        tmp = isolated_traces
        monkeypatch.setenv(
            FAULT_PLAN_ENV, f"hang=1;hang_secs=60;dir={tmp / 'ledger'}"
        )
        ex = Executor(
            jobs=2, store=ResultStore(tmp / "results"), retries=3,
            timeout=2.0, poll_interval=0.1, backoff=fast_backoff(),
        )
        resolved = ex.run(all_keys())
        assert ex.stats.timeouts >= 1  # the watchdog fired, not the hang
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline

    def test_crash_charges_only_dead_workers_jobs(
        self, isolated_traces, monkeypatch, baseline
    ):
        tmp = isolated_traces
        monkeypatch.setenv(FAULT_PLAN_ENV, f"crash=1;dir={tmp / 'ledger'}")
        ex = Executor(
            jobs=2, store=ResultStore(tmp / "results"), retries=3,
            backoff=fast_backoff(),
        )
        resolved = ex.run(all_keys())
        assert ex.stats.pool_breaks == 1
        # Only the dead worker's in-flight jobs are charged a retry —
        # never the whole 8-job batch.
        assert 1 <= ex.stats.retried <= 2
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline

    def test_pool_broken_during_submit_recovers(self, monkeypatch, baseline):
        """A pool that breaks before the last job is submitted is
        recovered like one that breaks while draining."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        submit = ProcessPoolExecutor.submit
        calls = []

        def breaking_submit(pool, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died before submit")
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
        ex = Executor(jobs=2, backoff=fast_backoff())
        resolved = ex.run(all_keys())
        assert ex.stats.pool_breaks == 1
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline

    def test_corrupted_store_entry_quarantined_and_rerun(
        self, isolated_traces, monkeypatch, baseline
    ):
        tmp = isolated_traces
        monkeypatch.setenv(
            FAULT_PLAN_ENV, f"corrupt_store=1;dir={tmp / 'ledger'}"
        )
        Executor(jobs=1, store=ResultStore(tmp / "results")).run(all_keys())
        monkeypatch.delenv(FAULT_PLAN_ENV)

        warm_store = ResultStore(tmp / "results")
        ex = Executor(jobs=1, store=warm_store)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resolved = ex.run(all_keys())
        assert ex.stats.executed == 1  # only the corrupted entry re-ran
        assert ex.stats.cached == len(all_keys()) - 1
        assert warm_store.stats.quarantined == 1
        qdir = tmp / "results" / "quarantine"
        assert any(qdir.glob("*.why"))
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline

    def test_truncated_trace_quarantined_and_regenerated(
        self, isolated_traces, monkeypatch, baseline
    ):
        from repro.exec import jobs as jobs_module

        tmp = isolated_traces
        monkeypatch.setenv(
            FAULT_PLAN_ENV, f"truncate_trace=1;dir={tmp / 'ledger'}"
        )
        Executor(jobs=1, store=ResultStore(tmp / "r1")).run(all_keys())
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert (tmp / "ledger" / "truncate_trace.0").exists()

        # A fresh process would re-read the (truncated) on-disk trace;
        # clearing the in-process trace memo stands in for that here.
        jobs_module._FACTORY_CACHE.clear()
        ex = Executor(jobs=1, store=ResultStore(tmp / "r2"))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resolved = ex.run(all_keys())
        assert any((tmp / "traces" / "quarantine").glob("*.why"))
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline


class TestResume:
    def test_resume_finishes_partial_sweep(
        self, isolated_traces, baseline
    ):
        tmp = isolated_traces
        keys = all_keys()
        path = tmp / "sweep.journal.jsonl"
        first = SweepJournal(path)
        first.begin(keys)
        # No store: the journal is the only record, as after a crash on
        # a machine whose store was lost.
        interrupted = Executor(jobs=1, journal=first)
        interrupted.run(keys[:3])  # "killed" 3 jobs in

        second = SweepJournal(path)
        assert second.load() == 3
        ex = Executor(jobs=1, journal=second)
        resolved = ex.run(keys)
        assert ex.stats.resumed == 3
        assert ex.stats.executed == len(keys) - 3
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline

    def test_journal_lookup_survives_process_restart(
        self, isolated_traces, baseline
    ):
        tmp = isolated_traces
        keys = all_keys()
        path = tmp / "sweep.journal.jsonl"
        journal = SweepJournal(path)
        journal.begin(keys)
        Executor(jobs=2, journal=journal, backoff=fast_backoff()).run(keys)

        reloaded = SweepJournal(path)
        assert reloaded.load() == len(keys)
        ex = Executor(jobs=1, journal=reloaded)
        resolved = ex.run(keys)
        assert ex.stats.resumed == len(keys)
        assert ex.stats.executed == 0
        assert {k: r.to_dict() for k, r in resolved.items()} == baseline
