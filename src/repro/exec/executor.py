"""Parallel sweep executor with memoization, retries, and a watchdog.

Jobs are independent (design, workload) simulations named by
:class:`JobKey`. The executor serves warm keys from a
:class:`ResultStore` (and, when resuming, from a
:class:`~repro.exec.resilience.SweepJournal`), fans the cold ones out
over a ``ProcessPoolExecutor`` (or runs them inline for ``jobs=1``),
and reports progress through an optional callback.

With ``shards > 1``, each cold job whose design the vector kernel can
plan (:func:`repro.exec.jobs.plan_shards`) is additionally split into
set-range :class:`~repro.exec.jobs.ShardTask` items that share the
same pool — intra-run parallelism, so even a single long simulation
spreads over the cores — and the shard outcomes merge into a result
bit-identical to the serial run (:func:`repro.sim.shard.merge_outcomes`).
Completed shards are journaled individually, so ``--resume`` restarts
a half-finished job from its surviving shards. Serial-only designs run
whole, with a one-time fallback warning.

Failure handling distinguishes three classes:

* **Deterministic simulation errors** (:class:`~repro.errors.ReproError`
  subclasses other than :class:`~repro.errors.TransientError`) are
  never retried — they would fail identically — and propagate.
* **Transient failures** (:class:`~repro.errors.TransientError`,
  ``OSError``) are retried up to ``retries`` times with exponential
  backoff and deterministic jitter (:class:`BackoffPolicy`).
* **Dead or stuck workers**: a crashed worker breaks the pool; a
  wall-clock watchdog (``timeout``) kills workers whose job overran.
  Worker-side claim markers (:func:`execute_job_traced`) let the
  executor attribute the break to the specific in-flight jobs of the
  dead worker, so only those are charged a retry — the rest of the
  batch is simply resubmitted. If the pool keeps breaking, execution
  degrades gracefully to serial in the main process.

Results are bit-identical to a fault-free serial run: every job
rebuilds its trace from the seeded generator, so neither scheduling,
retries, nor process boundaries can perturb the outcome.

With ``verify_fraction > 0`` a deterministic sample of executed jobs
is additionally *shadow-verified*: each sampled result is compared (by
:func:`~repro.verify.digest.result_digest`) against a re-execution on
the trusted ``verify_engine``. A mismatch quarantines both payloads,
trips the offending engine's circuit breaker
(:mod:`repro.verify.breaker`), and heals in place by recording the
reference result — the sweep still completes, bit-identically.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import (
    ConfigError,
    ExecutionError,
    ReproError,
    TransientError,
    VerificationError,
)
from repro.exec.batching import (
    DEFAULT_BATCH_SIZE,
    BatchTask,
    TraceRef,
    execute_batch,
    execute_batch_traced,
    plan_batches,
    publish_trace,
    trace_key_for,
)
from repro.exec.jobs import (
    JobKey,
    ShardTask,
    _trace_factory,
    execute_job,
    execute_job_sharded,
    execute_job_traced,
    execute_shard,
    execute_shard_traced,
    plan_shards,
)
from repro.exec.resilience import (
    BackoffPolicy,
    SweepJournal,
    claim_done,
    clear_claim,
    read_claim,
)
from repro.exec.store import ResultStore
from repro.params.system import scaled_system
from repro.sim.shard import ShardOutcome, mark_worker_process, merge_outcomes
from repro.sim.system import RunResult

#: progress(done, total, key, source) with source in
#: {"cached", "run", "resumed"}.
ProgressFn = Callable[[int, int, JobKey, str], None]

#: on_verify(key, outcome, detail) with outcome in {"ok", "mismatch"};
#: detail carries the payload digests (and, on mismatch, the demoted
#: engine). The service streams these to subscribers.
VerifyFn = Callable[[JobKey, str, Dict[str, str]], None]

#: Exceptions worth retrying: the same job may succeed on a later
#: attempt. Everything else deterministic fails fast.
TRANSIENT_EXCEPTIONS = (TransientError, OSError)


@dataclass
class ExecutorStats:
    """What the most recent :meth:`Executor.run` call actually did."""

    executed: int = 0
    cached: int = 0
    resumed: int = 0
    retried: int = 0
    transient_retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    degraded_to_serial: bool = False
    #: Shadow-verification outcomes (``verify_fraction`` sampling):
    #: jobs whose reference re-run agreed, and mismatches that were
    #: quarantined + healed from the reference result.
    verified: int = 0
    mismatches: int = 0
    #: Packed same-trace batches dispatched (each covering >= 2 jobs).
    batches: int = 0


class _PoolBroken(Exception):
    """Internal: the pool died; ``suspects`` are the jobs to charge."""

    def __init__(self, suspects: List[JobKey]):
        super().__init__("process pool broke")
        self.suspects = suspects


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        pass


class Executor:
    """Runs batches of jobs, warm-first, then parallel or serial."""

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        retries: int = 1,
        progress: Optional[ProgressFn] = None,
        timeout: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        journal: Optional[SweepJournal] = None,
        pool_break_limit: Optional[int] = None,
        poll_interval: float = 0.2,
        shards: int = 1,
        verify_fraction: float = 0.0,
        verify_engine: str = "stream",
        on_verify: Optional[VerifyFn] = None,
        batch: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if not 0.0 <= verify_fraction <= 1.0:
            raise ConfigError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}"
            )
        if verify_engine not in ("stream", "loop"):
            raise ConfigError(
                f"verify_engine must be 'stream' or 'loop', "
                f"got {verify_engine!r}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if poll_interval <= 0:
            raise ConfigError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self.jobs = jobs
        self.shards = shards
        self.store = store
        self.retries = retries
        self.progress = progress
        self.timeout = timeout
        self.journal = journal
        self.pool_break_limit = (
            pool_break_limit if pool_break_limit is not None
            else max(3, retries + 2)
        )
        if self.pool_break_limit < 1:
            raise ConfigError(
                f"pool_break_limit must be >= 1, got {self.pool_break_limit}"
            )
        self._backoff = backoff if backoff is not None else BackoffPolicy()
        self._poll = poll_interval
        self.verify_fraction = verify_fraction
        self.verify_engine = verify_engine
        self.on_verify = on_verify
        self.batch = batch
        self.batch_size = batch_size
        #: trace token -> (SharedMemory, TraceRef). Published segments
        #: outlive pool breaks deliberately — the rebuilt pool's workers
        #: re-attach to the same bytes — and are unlinked when the run
        #: (or, for persistent owners, :meth:`shutdown`) ends.
        self._segments: Dict[str, tuple] = {}
        self.stats = ExecutorStats()
        self._forced_timeouts: Set[JobKey] = set()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_tainted = False
        self._persistent = False
        self._lock = threading.Lock()

    # -- lifecycle (long-lived owners: the sweep service) ------------------

    def start(self) -> "Executor":
        """Adopt long-lived ownership: keep the pool across ``run`` calls.

        Idempotent — calling it again is a no-op. The worker pool itself
        is created lazily on the first parallel batch and then reused,
        instead of being torn down at the end of every :meth:`run`.
        Batch (one-shot) callers never need this; without it the
        executor behaves exactly as before.
        """
        self._persistent = True
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker pool (idempotent; waits out a running batch).

        The executor stays usable: a later :meth:`run` simply rebuilds
        the pool (still persistent if :meth:`start` was called). Safe to
        call repeatedly and from a thread other than the one running
        batches — it serializes against :meth:`run`.
        """
        with self._lock:
            self._discard_pool(wait=wait)
            self._release_segments()

    def __enter__(self) -> "Executor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _acquire_pool(self, items: int) -> ProcessPoolExecutor:
        """The persistent pool if one is alive, else a fresh pool."""
        if self._pool is not None:
            return self._pool
        workers = self.jobs * self.shards
        if not self._persistent:
            workers = min(workers, items)
        self._pool = ProcessPoolExecutor(
            max_workers=workers, initializer=mark_worker_process
        )
        return self._pool

    def _discard_pool(self, wait: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    # -- shared-memory trace segments --------------------------------------

    #: Cap on concurrently published trace segments (a persistent
    #: service executor sweeps many workloads); oldest unlink first.
    _SEGMENT_LIMIT = 32

    def _publish_for(self, key: JobKey) -> Optional[TraceRef]:
        """Publish (or reuse) the shared-memory segment for a job's trace.

        Returns None — batches then fall back to worker-side trace
        factories — whenever shared memory is unavailable or the trace
        cannot be resolved here; publishing is an optimization, never a
        correctness dependency.
        """
        try:
            token = trace_key_for(key).digest()
        except ReproError:
            return None
        entry = self._segments.get(token)
        if entry is not None:
            return entry[1]
        try:
            trace = _trace_factory(key).trace_for(key.workload)
            shm, ref = publish_trace(trace, token)
        except (OSError, ValueError, ReproError) as exc:
            self._note("shm_degraded", key=key.digest(), error=str(exc))
            return None
        self._segments[token] = (shm, ref)
        while len(self._segments) > self._SEGMENT_LIMIT:
            oldest = next(iter(self._segments))
            self._unlink_segment(*self._segments.pop(oldest))
        return ref

    @staticmethod
    def _unlink_segment(shm, _ref) -> None:
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    def _release_segments(self) -> None:
        segments, self._segments = self._segments, {}
        for entry in segments.values():
            self._unlink_segment(*entry)

    def run(self, keys: Sequence[JobKey]) -> Dict[JobKey, RunResult]:
        """Resolve every key to a result; ``stats`` reflects this call.

        Reentrant-safe for long-lived owners: concurrent calls from
        other threads serialize on an internal lock rather than
        corrupting shared batch state.
        """
        with self._lock:
            return self._run_locked(keys)

    def _run_locked(self, keys: Sequence[JobKey]) -> Dict[JobKey, RunResult]:
        self.stats = ExecutorStats()
        unique: List[JobKey] = []
        seen = set()
        for key in keys:
            if key not in seen:
                seen.add(key)
                unique.append(key)
        self._total = len(unique)
        self._done = 0

        results: Dict[JobKey, RunResult] = {}
        pending: List[JobKey] = []
        for key in unique:
            resumed = self._from_journal(key)
            if resumed is not None:
                results[key] = resumed
                self.stats.resumed += 1
                if (
                    self.journal is not None
                    and self.journal.verify_outcome(key) == "ok"
                ):
                    # Carry journaled verification credit across the
                    # kill: the resumed sweep's summary still reflects
                    # every job the shadow check vouched for.
                    self.stats.verified += 1
                if self.store is not None:
                    # Replayed results are as good as executed ones:
                    # memoize them so later runs are warm without the
                    # journal (the service's restart-resume relies on
                    # this — batch journals are deleted once drained).
                    self.store.put(key, resumed)
                self._report(key, "resumed")
                continue
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                # The store ignores cosmetic labels; hand back the
                # caller's exact design object.
                result = replace(cached, design=key.design)
                results[key] = result
                self.stats.cached += 1
                if self.journal is not None:
                    self.journal.record_done(key, result)
                self._report(key, "cached")
            else:
                pending.append(key)

        if not pending:
            return results
        if self.jobs == 1 or len(pending) == 1:
            # Inline batching still shares one trace + plan per group
            # (no shared memory needed in-process). With shards > 1 the
            # intra-job shard pool already owns the parallelism, so
            # jobs run whole.
            if self.batch and self.shards == 1 and len(pending) > 1:
                items = plan_batches(pending, self.batch_size)
            else:
                items = list(pending)
            for item in items:
                if isinstance(item, BatchTask):
                    self._absorb(item, self._execute_batch_inline(item),
                                 results)
                else:
                    self._record(item, self._execute_serial(item), results)
        else:
            self._run_parallel(pending, results)
        return results

    # -- internals --------------------------------------------------------

    def _from_journal(self, key: JobKey) -> Optional[RunResult]:
        if self.journal is None:
            return None
        record = self.journal.lookup(key)
        if record is None:
            return None
        try:
            result = RunResult.from_dict(record)
        except (ReproError, KeyError, TypeError, ValueError):
            return None  # malformed journal entry: just re-run the job
        return replace(result, design=key.design)

    def _record(
        self, key: JobKey, result: RunResult, results: Dict[JobKey, RunResult]
    ) -> None:
        result = self._maybe_verify(key, result)
        results[key] = result
        self.stats.executed += 1
        if self.store is not None:
            self.store.put(key, result)
        if self.journal is not None:
            self.journal.record_done(key, result)
        self._report(key, "run")

    def _report(self, key: JobKey, source: str) -> None:
        self._done += 1
        if self.progress is not None:
            self.progress(self._done, self._total, key, source)

    def _note(self, event: str, **fields) -> None:
        if self.journal is not None:
            self.journal.record_event(event, **fields)

    # -- shadow verification ----------------------------------------------

    def _maybe_verify(self, key: JobKey, result: RunResult) -> RunResult:
        """Shadow-verify a sampled executed result; returns what to trust.

        A clean comparison (or an unsampled key) hands back ``result``
        unchanged. A mismatch quarantines both payloads, trips the
        offending engine's circuit breaker, and returns the *reference*
        result, so the sweep heals in place and still finishes
        bit-identically; only an unhealable mismatch — the reference
        chain itself disagreeing — raises :class:`VerificationError`.
        """
        if self.verify_fraction <= 0.0:
            return result
        from repro.verify.shadow import should_verify

        if not should_verify(key.digest(), self.verify_fraction):
            return result
        if (
            self.journal is not None
            and self.journal.verify_outcome(key) == "ok"
        ):
            # Already vouched for by this sweep's journal (the job was
            # verified before a crash lost its done line): trust it.
            self.stats.verified += 1
            return result
        return self._shadow_verify(key, result)

    def _shadow_verify(self, key: JobKey, result: RunResult) -> RunResult:
        from repro.verify import breaker
        from repro.verify.digest import result_digest
        from repro.verify.shadow import (
            quarantine_mismatch,
            reference_result,
            resolve_job_engine,
        )

        if self.journal is not None:
            self.journal.record_verify(
                key, "sampled",
                fraction=self.verify_fraction, engine=self.verify_engine,
            )
        suspect_digest = result_digest(result)
        reference = reference_result(key, self.verify_engine)
        reference_digest = result_digest(reference)
        if suspect_digest == reference_digest:
            self.stats.verified += 1
            if self.journal is not None:
                self.journal.record_verify(key, "ok", digest=suspect_digest)
            if self.on_verify is not None:
                self.on_verify(key, "ok", {"digest": suspect_digest})
            return result
        # Attribute the wrong answer before tripping: the trip changes
        # what the request resolves to.
        engine = resolve_job_engine(key)
        self.stats.mismatches += 1
        if self.journal is not None:
            self.journal.record_verify(
                key, "mismatch",
                engine=engine, suspect=suspect_digest,
                reference=reference_digest,
                reference_engine=self.verify_engine,
            )
        if self.store is not None:
            quarantine_mismatch(
                self.store.root, key, engine, result, reference,
                suspect_digest, reference_digest, self.verify_engine,
            )
        if self.on_verify is not None:
            self.on_verify(key, "mismatch", {
                "engine": engine,
                "suspect": suspect_digest,
                "reference": reference_digest,
            })
        if engine in (self.verify_engine, "loop"):
            raise VerificationError(
                f"{key.display}: result from engine {engine!r} disagrees "
                f"with its own reference re-run ({suspect_digest[:12]} vs "
                f"{reference_digest[:12]}) — no trusted engine remains"
            )
        breaker.trip(
            engine,
            reason=f"shadow verification mismatch on {key.display}",
        )
        # Workers forked before the trip never saw the deny list; make
        # the next batch rebuild the pool (in-flight jobs finish on the
        # old pool — their sampled results still get verified).
        self._pool_tainted = True
        return reference

    # -- serial path (jobs=1, single pending job, or degraded) ------------

    def _execute_serial(
        self, key: JobKey, attempts: int = 0, allow_shards: bool = True
    ) -> RunResult:
        """Run a job inline, retrying transient failures with backoff.

        With ``shards > 1`` the single job still fans its set shards
        out over an intra-run pool (:func:`execute_job_sharded`) —
        unless ``allow_shards`` is False, which the degraded path uses
        to avoid spawning pools right after pools kept breaking.
        """
        use_shards = allow_shards and self.shards > 1
        while True:
            try:
                if use_shards:
                    return execute_job_sharded(key, self.shards)
                return execute_job(key)
            except TRANSIENT_EXCEPTIONS as exc:
                attempts += 1
                self.stats.transient_retries += 1
                self._note(
                    "retry", key=key.digest(), attempt=attempts,
                    error=str(exc),
                )
                if attempts > self.retries:
                    raise ExecutionError(
                        f"{key.display} kept failing transiently "
                        f"(gave up after {attempts} attempts): {exc}"
                    ) from exc
                self._backoff.sleep(attempts)

    def _execute_shard_inline(self, task: ShardTask, attempts: int = 0):
        """Run one shard in-process with the same transient-retry loop."""
        while True:
            try:
                return execute_shard(task)
            except TRANSIENT_EXCEPTIONS as exc:
                attempts += 1
                self.stats.transient_retries += 1
                self._note(
                    "retry", key=task.digest(), attempt=attempts,
                    error=str(exc),
                )
                if attempts > self.retries:
                    raise ExecutionError(
                        f"{task.display} kept failing transiently "
                        f"(gave up after {attempts} attempts): {exc}"
                    ) from exc
                self._backoff.sleep(attempts)

    def _execute_batch_inline(self, task: BatchTask, attempts: int = 0):
        """Run one packed batch in-process with the transient-retry loop."""
        while True:
            try:
                return execute_batch(task)
            except TRANSIENT_EXCEPTIONS as exc:
                attempts += 1
                self.stats.transient_retries += 1
                self._note(
                    "retry", key=task.digest(), attempt=attempts,
                    error=str(exc),
                )
                if attempts > self.retries:
                    raise ExecutionError(
                        f"{task.display} kept failing transiently "
                        f"(gave up after {attempts} attempts): {exc}"
                    ) from exc
                self._backoff.sleep(attempts)

    # -- parallel path ----------------------------------------------------

    def _flatten(
        self, pending: Sequence[JobKey], results: Dict[JobKey, RunResult]
    ) -> List:
        """Expand shardable jobs into per-shard work items.

        With ``shards > 1``, each job :func:`plan_shards` splits
        becomes ``count`` :class:`ShardTask`
        items (shards of one job spread over the pool alongside other
        jobs); serial-only designs stay whole-job items. Journaled
        shard outcomes are absorbed up front — shard-granularity
        resume — and a job whose every shard was journaled merges on
        the spot without touching the pool.
        """
        self._shard_parts: Dict[JobKey, Dict[int, ShardOutcome]] = {}
        self._shard_counts: Dict[JobKey, int] = {}
        items: List = []
        whole: List[JobKey] = []
        for key in pending:
            count = plan_shards(key, self.shards)
            if count <= 1:
                whole.append(key)
                continue
            self._shard_counts[key] = count
            parts: Dict[int, ShardOutcome] = {}
            self._shard_parts[key] = parts
            todo = []
            for index in range(count):
                task = ShardTask(key, index, count)
                outcome = self._shard_from_journal(task)
                if outcome is not None:
                    parts[index] = outcome
                else:
                    todo.append(task)
            if todo:
                items.extend(todo)
            else:
                self._merge_job(key, results, source="resumed")
        if self.batch and len(whole) > 1:
            for item in plan_batches(whole, self.batch_size):
                if isinstance(item, BatchTask):
                    ref = self._publish_for(item.jobs[0])
                    if ref is not None:
                        item = replace(item, trace_ref=ref)
                items.append(item)
        else:
            items.extend(whole)
        return items

    def _shard_from_journal(self, task: ShardTask) -> Optional[ShardOutcome]:
        if self.journal is None:
            return None
        record = self.journal.lookup_shard(task)
        if record is None:
            return None
        try:
            return ShardOutcome.from_dict(record)
        except (ReproError, KeyError, TypeError, ValueError):
            return None  # malformed shard record: just re-run the shard

    def _merge_job(
        self,
        key: JobKey,
        results: Dict[JobKey, RunResult],
        source: str = "run",
    ) -> None:
        """All shards of ``key`` are in: merge them into its RunResult."""
        parts = self._shard_parts.pop(key)
        count = self._shard_counts.pop(key)
        outcomes = [parts[index] for index in range(count)]
        config = scaled_system(ways=key.design.ways, scale=key.scale)
        result = merge_outcomes(key.design, config, outcomes, epoch=key.epoch)
        if source == "resumed":
            results[key] = result
            self.stats.resumed += 1
            if self.store is not None:
                self.store.put(key, result)
            if self.journal is not None:
                self.journal.record_done(key, result)
            self._report(key, "resumed")
        else:
            self._record(key, result, results)

    def _absorb(self, item, result, results: Dict[JobKey, RunResult]) -> None:
        """Fold one completed work item into job-level results."""
        if isinstance(item, BatchTask):
            self._absorb_batch(item, result, results)
        elif isinstance(item, ShardTask):
            if self.journal is not None:
                self.journal.record_shard(item, result)
            key = item.job
            parts = self._shard_parts[key]
            parts[item.index] = result
            if len(parts) == self._shard_counts[key]:
                self._merge_job(key, results)
        else:
            self._record(item, result, results)

    def _absorb_batch(
        self,
        task: BatchTask,
        batch_results: Sequence[RunResult],
        results: Dict[JobKey, RunResult],
    ) -> None:
        """Absorb a packed batch member by member.

        Every member goes through :meth:`_record` individually, so
        verification sampling, the store, journal done-lines (and with
        them ``--resume`` granularity), and progress callbacks are
        per-``JobKey`` — batching never changes what a sweep records,
        only how the work was scheduled.
        """
        if len(batch_results) != len(task.jobs):
            raise ExecutionError(
                f"{task.display}: batch returned {len(batch_results)} "
                f"results for {len(task.jobs)} jobs"
            )
        self.stats.batches += 1
        self._note(
            "batch", key=task.digest(), jobs=len(task.jobs),
            members=[key.digest() for key in task.jobs],
        )
        for key, result in zip(task.jobs, batch_results):
            self._record(key, result, results)

    def _submit(self, pool: ProcessPoolExecutor, item, claims: str):
        if isinstance(item, BatchTask):
            return pool.submit(execute_batch_traced, item, claims)
        if isinstance(item, ShardTask):
            return pool.submit(execute_shard_traced, item, claims)
        return pool.submit(execute_job_traced, item, claims)

    def _run_parallel(
        self, pending: Sequence[JobKey], results: Dict[JobKey, RunResult]
    ) -> None:
        items = self._flatten(pending, results)
        if not items:
            return
        attempts: Dict[object, int] = {item: 0 for item in items}
        remaining: Dict[object, None] = dict.fromkeys(items)
        claims = tempfile.mkdtemp(prefix="repro-claims-")
        consecutive_breaks = 0
        try:
            while remaining:
                if consecutive_breaks >= self.pool_break_limit:
                    self._degrade_to_serial(remaining, results, attempts)
                    return
                self._forced_timeouts = set()
                try:
                    pool = self._acquire_pool(len(remaining))
                    for key in remaining:
                        clear_claim(claims, key.digest())
                    try:
                        # Submitting can itself raise BrokenProcessPool
                        # when a worker dies before the last submit.
                        futures = {
                            self._submit(pool, item, claims): item
                            for item in remaining
                        }
                        self._drain(
                            pool, futures, remaining, results, attempts,
                            claims,
                        )
                    except BrokenProcessPool:
                        # Inspect pids *before* pool shutdown finishes
                        # reaping, so live workers are still visible.
                        raise _PoolBroken(
                            self._suspects(claims, remaining)
                        ) from None
                    consecutive_breaks = 0
                except _PoolBroken as broken:
                    self._discard_pool()
                    consecutive_breaks += 1
                    self.stats.pool_breaks += 1
                    self._penalize(broken.suspects, attempts)
                    self._note(
                        "pool_break",
                        retried=[key.digest() for key in broken.suspects],
                    )
                    self._backoff.sleep(consecutive_breaks)
        finally:
            shutil.rmtree(claims, ignore_errors=True)
            if not self._persistent:
                # One-shot callers: published trace segments are scoped
                # to this run (persistent owners keep them warm across
                # runs and release on shutdown()).
                self._release_segments()
            if self._pool_tainted:
                # A verification trip happened while this pool's
                # workers were already forked (without the deny env);
                # retire it so the next batch resolves engines fresh.
                self._pool_tainted = False
                self._discard_pool(wait=True)
            elif not self._persistent:
                self._discard_pool(wait=True)

    def _drain(
        self,
        pool: ProcessPoolExecutor,
        futures: Dict,
        remaining: Dict[JobKey, None],
        results: Dict[JobKey, RunResult],
        attempts: Dict[JobKey, int],
        claims: str,
    ) -> None:
        """Collect results until the batch drains (or the pool breaks).

        Transient job failures are rescheduled onto the same pool after
        their backoff delay elapses (tracked as deadlines, so waiting
        out one job's backoff never blocks the others or the watchdog).
        """
        outstanding = set(futures)
        backoff_until: Dict[JobKey, float] = {}
        while outstanding or backoff_until:
            now = time.monotonic()
            for key, ready_at in list(backoff_until.items()):
                if now >= ready_at:
                    del backoff_until[key]
                    clear_claim(claims, key.digest())
                    future = self._submit(pool, key, claims)
                    futures[future] = key
                    outstanding.add(future)
            if not outstanding:
                soonest = min(backoff_until.values())
                time.sleep(max(0.0, min(soonest - time.monotonic(),
                                        self._poll)))
                continue
            poll = (
                self._poll
                if self.timeout is not None or backoff_until
                else None
            )
            done, outstanding = wait(outstanding, timeout=poll)
            for future in done:
                key = futures.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise
                except TRANSIENT_EXCEPTIONS as exc:
                    attempts[key] += 1
                    self.stats.transient_retries += 1
                    self._note(
                        "retry", key=key.digest(), attempt=attempts[key],
                        error=str(exc),
                    )
                    if attempts[key] > self.retries:
                        raise ExecutionError(
                            f"{key.display} kept failing transiently "
                            f"(gave up after {attempts[key]} attempts): {exc}"
                        ) from exc
                    backoff_until[key] = (
                        time.monotonic() + self._backoff.delay(attempts[key])
                    )
                    continue
                self._absorb(key, result, results)
                del remaining[key]
            if self.timeout is not None:
                self._watchdog(futures, attempts, claims)

    def _watchdog(
        self, futures: Dict, attempts: Dict[JobKey, int], claims: str
    ) -> None:
        """Kill workers whose current item overran the wall-clock budget.

        ``timeout`` is a per-*job* budget; a packed batch gets one
        budget per member, since it legitimately does that many jobs'
        work under a single claim marker.
        """
        now = time.time()
        for future, key in list(futures.items()):
            if future.done() or key in self._forced_timeouts:
                continue
            digest = key.digest()
            claim = read_claim(claims, digest)
            if claim is None or claim_done(claims, digest):
                continue  # queued, finished, or marker unreadable
            pid, started_at = claim
            budget = self.timeout
            if isinstance(key, BatchTask):
                budget = self.timeout * len(key.jobs)
            if now - started_at <= budget:
                continue
            self._forced_timeouts.add(key)
            self.stats.timeouts += 1
            attempts[key] += 1
            self._note(
                "timeout", key=key.digest(), attempt=attempts[key],
                timeout=budget,
            )
            _kill(pid)  # breaks the pool; the break handler reschedules
            if attempts[key] > self.retries:
                raise ExecutionError(
                    f"{key.display} exceeded the {budget:g}s job "
                    f"timeout (gave up after {attempts[key]} attempts)"
                )

    def _suspects(
        self, claims: str, remaining: Dict[JobKey, None]
    ) -> List[JobKey]:
        """Jobs to charge for a pool break.

        In-flight jobs whose claiming worker pid is dead are the
        culprits. When the break was forced by the watchdog, the killed
        job was already charged, so nobody else is. Only if attribution
        fails entirely does this fall back to the whole in-flight set
        (and last, the whole batch) so a repeatedly-poisonous job can
        still exhaust its retry budget instead of looping forever.
        """
        in_flight: List[JobKey] = []
        dead: List[JobKey] = []
        for key in remaining:
            if key in self._forced_timeouts:
                continue
            digest = key.digest()
            claim = read_claim(claims, digest)
            if claim is None or claim_done(claims, digest):
                continue
            in_flight.append(key)
            if not _pid_alive(claim[0]):
                dead.append(key)
        if dead:
            return dead
        if self._forced_timeouts:
            return []
        if in_flight:
            return in_flight
        return list(remaining)

    def _penalize(
        self, suspects: Sequence[JobKey], attempts: Dict[JobKey, int]
    ) -> None:
        for key in suspects:
            attempts[key] += 1
            if attempts[key] > self.retries:
                raise ExecutionError(
                    f"worker process died repeatedly on {key.display} "
                    f"(gave up after {attempts[key]} attempts)"
                )
        self.stats.retried += len(suspects)

    def _degrade_to_serial(
        self,
        remaining: Dict[JobKey, None],
        results: Dict[JobKey, RunResult],
        attempts: Dict[JobKey, int],
    ) -> None:
        """Last resort: finish the batch inline in the main process."""
        self.stats.degraded_to_serial = True
        warnings.warn(
            f"process pool broke {self.stats.pool_breaks} times in a row; "
            f"finishing the remaining {len(remaining)} job(s) serially",
            RuntimeWarning,
            stacklevel=3,
        )
        self._note("degraded_to_serial", remaining=len(remaining))
        for item in list(remaining):
            if isinstance(item, BatchTask):
                self._absorb(
                    item, self._execute_batch_inline(item, attempts[item]),
                    results,
                )
            elif isinstance(item, ShardTask):
                outcome = self._execute_shard_inline(item, attempts[item])
                self._absorb(item, outcome, results)
            else:
                self._record(
                    item,
                    self._execute_serial(
                        item, attempts[item], allow_shards=False
                    ),
                    results,
                )
            del remaining[item]
