"""Set-sharded intra-run parallelism with a deterministic merge.

One full-length simulation normally occupies a single core. For most
designs, though, every piece of cache state consulted for set *s* —
tag-store row, per-set replacement metadata, per-set random streams,
the exact DCP entries of lines mapping to *s* — depends only on the
accesses to set *s*. Such a run decomposes exactly: partition the trace
into set-range shards (:meth:`repro.sim.trace.Trace.shard`), run each
shard against its own cache instance in a worker process, and sum the
:class:`~repro.sim.stats.CacheStats` counters and per-epoch
:class:`~repro.sim.phases.PhaseSeries` buckets. The merged result is
*bit-identical* to the serial run — the equivalence suite in
``tests/test_shard.py`` asserts it per design.

Which designs qualify is declared, not guessed: a run shards exactly
when the vector kernel has a plan for a fresh cache of its design
(:func:`shard_block`). That kernel is itself a bundle of independent
per-set recurrences, so every stack its plan builder accepts is
set-local. GWS's global RIT/RLT region tables, set-dueling's PSEL
counter, the finite DCP directory's LRU capacity bound, and the
column-associative cache's cross-set alternate location all fall
outside it, and those designs fall back to the exact serial path with
a one-time warning naming the declined role — never sharded silently
wrong.

Phase-resolved runs stay exact too: epoch boundaries are counted in
*global* post-warmup demand reads, so each shard precomputes its
records' global epoch ids from the trace's read-prefix array and drives
one :meth:`run_stream` segment per epoch with a bucket observer
attached; the merge sums buckets per global epoch index.

Nested-parallelism guard: a worker process (detected via the
``daemon`` flag or the ``REPRO_POOL_WORKER`` environment marker set by
pool initializers) never spawns a grandchild pool — :func:`run_sharded`
runs inline/serial there instead.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accord import AccordDesign
from repro.errors import SimulationError
from repro.params.system import SystemConfig
from repro.sim.engines import get_engine, resolve_engine
from repro.sim.engines.vector import build_plan
from repro.sim.phases import PhaseSample, PhaseSeries
from repro.sim.stats import CacheStats
from repro.sim.system import RunResult, Simulator, build_dram_cache
from repro.sim.timing_model import IntervalTimingModel
from repro.sim.trace import Trace, TraceShard

#: Environment marker set in every pool worker (executor jobs and shard
#: workers alike) so library code can refuse to nest process pools.
WORKER_ENV = "REPRO_POOL_WORKER"


def in_worker_process() -> bool:
    """True when running inside a worker process.

    Detects both daemonic children (``multiprocessing.Pool`` style) and
    non-daemonic ``ProcessPoolExecutor`` workers, which advertise
    themselves through the :data:`WORKER_ENV` marker set by
    :func:`mark_worker_process` at pool start. Used as the nested-pool
    guard: shard fan-out inside a worker runs inline instead of
    spawning grandchildren.
    """
    if os.environ.get(WORKER_ENV) == "1":
        return True
    return bool(getattr(multiprocessing.current_process(), "daemon", False))


def mark_worker_process() -> None:
    """Pool initializer: brand this process as a worker (see above)."""
    os.environ[WORKER_ENV] = "1"


def effective_shard_count(shards: int, num_sets: int) -> int:
    """Shards actually usable: >= 1, at most one per set."""
    return max(1, min(shards, num_sets))


def shard_block(cache) -> Optional[str]:
    """The role that keeps a fresh ``cache`` off set-sharding, or None.

    A run may be split by set range exactly when the vector kernel has
    a plan for the cache (:func:`repro.sim.engines.vector.build_plan`):
    the plan builder accepts only stacks whose every piece of state is
    set-local. On decline it names the role it rejected.
    """
    plan = build_plan(cache)
    return plan if isinstance(plan, str) else None


# -- shard outcome -----------------------------------------------------------


@dataclass
class ShardOutcome:
    """What one shard measured: counters plus optional phase buckets.

    ``phases`` samples are indexed by *global* epoch id (their
    ``start_access`` is meaningless until merge rebuilds it).
    ``instructions_per_access`` rides along so the merge can evaluate
    the timing model without the trace in hand.
    """

    stats: CacheStats
    phases: Optional[PhaseSeries]
    workload: str
    instructions_per_access: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (journal shard records); inverse of from_dict."""
        return {
            "stats": self.stats.to_dict(),
            "phases": self.phases.to_dict() if self.phases is not None else None,
            "workload": self.workload,
            "instructions_per_access": self.instructions_per_access,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardOutcome":
        try:
            phases = data.get("phases")
            return cls(
                stats=CacheStats.from_dict(data["stats"]),
                phases=PhaseSeries.from_dict(phases) if phases is not None else None,
                workload=str(data["workload"]),
                instructions_per_access=float(data["instructions_per_access"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed ShardOutcome record: {exc}") from exc


class _EpochBuckets:
    """Access-path observer binning events into explicit global epochs.

    Unlike :class:`~repro.sim.phases.PhaseMetrics` it does not count
    epochs itself — the shard driver switches the active bucket at
    precomputed segment boundaries (a shard sees only a subset of the
    reads that define the global boundaries). The per-event accounting
    is identical to PhaseMetrics, so summed buckets reproduce the
    serial observer's samples exactly.
    """

    __slots__ = ("buckets", "_cur")

    def __init__(self):
        # epoch id -> [accesses, hits, predicted, correct, nvm_r, nvm_w, wbs]
        self.buckets: Dict[int, List[int]] = {}
        self._cur: List[int] = [0] * 7

    def set_epoch(self, index: int) -> None:
        cur = self.buckets.get(index)
        if cur is None:
            cur = [0] * 7
            self.buckets[index] = cur
        self._cur = cur

    def on_lookup(self, event) -> None:
        cur = self._cur
        cur[0] += 1
        if event.hit:
            cur[1] += 1
            if event.predicted_way is not None:
                cur[2] += 1
                if event.prediction_correct:
                    cur[3] += 1

    def on_fill(self, event) -> None:
        self._cur[4] += 1

    def on_evict(self, event) -> None:
        if event.dirty:
            self._cur[5] += 1

    def on_writeback(self, event) -> None:
        cur = self._cur
        cur[6] += 1
        if not event.absorbed:
            cur[5] += 1

    def result(self, epoch: int) -> PhaseSeries:
        samples = tuple(
            PhaseSample(
                index=index,
                start_access=0,  # rebuilt by PhaseSeries.merge
                accesses=b[0],
                hits=b[1],
                predicted_hits=b[2],
                correct_predictions=b[3],
                nvm_reads=b[4],
                nvm_writes=b[5],
                writebacks=b[6],
            )
            for index, b in sorted(self.buckets.items())
        )
        return PhaseSeries(epoch=epoch, samples=samples)


# -- shard planning ----------------------------------------------------------


def shard_segments(
    trace: Trace, shard: TraceShard, warm: int, epoch: Optional[int]
) -> Tuple[int, List[Tuple[Optional[int], int, int]]]:
    """Measurement plan for one shard: warm split + epoch segments.

    Returns ``(local_warm, segments)`` where each segment is
    ``(epoch_id, start, stop)`` in shard-local coordinates covering the
    shard's post-warmup records in order. Without phase metrics there
    is a single ``(None, local_warm, len(shard))`` segment.

    Epoch ids are *global*: a read whose post-warmup global read
    ordinal is ``r`` belongs to epoch ``r // epoch``; a writeback seen
    after ``R`` window reads belongs to ``(R - 1) // epoch`` (clamped
    at 0) — mirroring PhaseMetrics' flush-on-next-read attribution.
    Both are non-decreasing along the trace, so a shard's subsequence
    splits into contiguous runs.
    """
    local_warm = shard.warm_index(warm)
    total = len(shard)
    if epoch is None:
        return local_warm, [(None, local_warm, total)]
    positions = shard.positions[local_warm:]
    if len(positions) == 0:
        return local_warm, []
    prefix = trace.read_prefix()
    window_reads = prefix[positions] - prefix[warm]
    is_write = trace.numpy_writes()[positions]
    epoch_ids = np.where(
        is_write == 0,
        window_reads // epoch,
        np.maximum(window_reads - 1, 0) // epoch,
    )
    boundaries = np.flatnonzero(np.diff(epoch_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(epoch_ids)]))
    return local_warm, [
        (int(epoch_ids[s]), local_warm + int(s), local_warm + int(e))
        for s, e in zip(starts, stops)
    ]


# -- shard execution ---------------------------------------------------------


def drive_shard(
    cache,
    shard: TraceShard,
    local_warm: int,
    segments: Sequence[Tuple[Optional[int], int, int]],
    epoch: Optional[int],
    workload: str,
    instructions_per_access: float,
    engine: str = "stream",
) -> ShardOutcome:
    """Run one shard's records through a fresh cache; measure post-warmup.

    Mirrors :meth:`Simulator.run` exactly: warmup drives the shard's
    records, stats reset at the warm boundary, then the measured
    segments run with global-epoch bucket accounting when
    phase-resolved. The drive is delegated to a concrete engine
    (``engine`` must not be "auto" here — :func:`run_sharded` resolves
    once in the parent so all shards agree and warnings fire once).
    """
    eng = get_engine(engine)
    phases = eng.drive(
        cache, shard, local_warm, segments, epoch, global_epochs=True
    )
    return ShardOutcome(
        stats=cache.stats,
        phases=phases,
        workload=workload,
        instructions_per_access=instructions_per_access,
    )


def run_shard(
    config: SystemConfig,
    design: AccordDesign,
    trace: Trace,
    shard_index: int,
    n_shards: int,
    warmup: float = 0.25,
    epoch: Optional[int] = None,
    seed: int = 1,
    engine: str = "stream",
) -> ShardOutcome:
    """Build a cache and run one shard of ``trace`` (worker entry point).

    The cache is full-sized (all sets); the shard only ever touches its
    own set range, so per-set state matches the serial run's.
    """
    if not 0.0 <= warmup < 1.0:
        raise SimulationError("warmup fraction must be in [0, 1)")
    cache = build_dram_cache(design, config, seed=seed)
    shard = trace.shard_slice(cache.geometry, n_shards, shard_index)
    warm = int(len(trace) * warmup)
    local_warm, segments = shard_segments(trace, shard, warm, epoch)
    return drive_shard(
        cache, shard, local_warm, segments, epoch,
        trace.name, trace.instructions_per_access, engine=engine,
    )


# -- merging -----------------------------------------------------------------


def merge_outcomes(
    design: AccordDesign,
    config: SystemConfig,
    outcomes: Sequence[ShardOutcome],
    epoch: Optional[int] = None,
) -> RunResult:
    """Combine shard outcomes into the serial-equivalent RunResult.

    ``CacheStats.merge`` is an elementwise integer sum — associative,
    commutative, identity-preserving (property-tested) — so the merged
    counters equal the serial run's, and the timing model evaluated on
    them reproduces the serial timing bit for bit.
    """
    if not outcomes:
        raise SimulationError("no shard outcomes to merge")
    stats = CacheStats()
    for outcome in outcomes:
        stats.merge(outcome.stats)
    phases = None
    if epoch is not None:
        phases = PhaseSeries.merge(
            [o.phases for o in outcomes if o.phases is not None]
        )
    ipa = outcomes[0].instructions_per_access
    instructions = stats.demand_reads * ipa
    if instructions <= 0:
        raise SimulationError(
            f"trace {outcomes[0].workload!r} produced no post-warmup "
            f"demand reads"
        )
    timing = IntervalTimingModel(config).evaluate(stats, instructions)
    return RunResult(
        design=design,
        workload=outcomes[0].workload,
        stats=stats,
        timing=timing,
        instructions=instructions,
        phases=phases,
    )


# -- one-shot parallel driver ------------------------------------------------

_FALLBACK_WARNED: set = set()


def warn_serial_fallback(design: AccordDesign, role: str) -> None:
    """One-time-per-design warning that sharding fell back to serial.

    ``role`` is the one :func:`shard_block` named. Suppressed inside
    pool workers (warn-once state is per-process); the parent warns
    when it plans, see :func:`repro.exec.jobs.plan_shards`.
    """
    label = design.display_name
    key = (label, role)
    if key in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(key)
    if in_worker_process():
        return
    warnings.warn(
        f"design {label!r} has global policy state ({role}); "
        f"--shards ignored, running serial (results stay exact)",
        RuntimeWarning,
        stacklevel=3,
    )


def _run_shard_payload(payload) -> ShardOutcome:
    """Module-level worker fn for :func:`run_sharded`'s process pool."""
    (config, design, seed, shard, local_warm, segments, epoch,
     workload, ipa, engine) = payload
    cache = build_dram_cache(design, config, seed=seed)
    if not isinstance(shard, TraceShard):
        # Zero-copy payload: (TraceRef, n_shards, index). Attach to the
        # parent's shared-memory segment (memoized per worker) and carve
        # this worker's shard locally instead of unpickling the
        # materialized per-record columns.
        from repro.exec.batching import attach_trace

        ref, n_shards, index = shard
        trace = attach_trace(ref)
        if trace is None:
            raise SimulationError(
                f"shared trace segment {ref.shm_name!r} vanished "
                f"before shard {index} attached"
            )
        shard = trace.shard_slice(cache.geometry, n_shards, index)
    return drive_shard(
        cache, shard, local_warm, segments, epoch, workload, ipa,
        engine=engine,
    )


def run_sharded(
    config: SystemConfig,
    design: AccordDesign,
    trace: Trace,
    warmup: float = 0.25,
    epoch: Optional[int] = None,
    shards: int = 2,
    seed: int = 1,
    inline: bool = False,
    engine: str = "auto",
    engine_strict: bool = False,
) -> RunResult:
    """Run one (design, trace) pair split across shard workers.

    Bit-identical to ``Simulator(config, design, seed).run(trace,
    warmup, epoch)`` for designs :func:`shard_block` clears; the others
    (and calls from inside a worker process — the nested-pool guard) take
    that exact serial path instead. ``inline=True`` keeps the shard
    loop in-process (deterministic single-process execution of the same
    decomposition; used by tests and the Executor's flattened tasks).

    ``engine`` composes with sharding: the request is resolved once
    here, on a probe cache in the parent (so an unsupported explicit
    request warns or raises exactly once, not per worker), and the
    resolved concrete engine drives every shard — and the serial
    fallback path, which forwards the same resolution to
    :meth:`Simulator.run`.
    """
    if not 0.0 <= warmup < 1.0:
        raise SimulationError("warmup fraction must be in [0, 1)")
    cache = build_dram_cache(design, config, seed=seed)
    engine_name = resolve_engine(
        cache, requested=engine, strict=engine_strict, design=design
    ).name
    n_shards = effective_shard_count(shards, cache.geometry.num_sets)
    if n_shards > 1:
        role = shard_block(cache)
        if role is not None:
            warn_serial_fallback(design, role)
            n_shards = 1
    if n_shards > 1 and not inline and in_worker_process():
        # Nested-pool hazard: a pool worker must not spawn grandchildren.
        inline = True
    if n_shards <= 1:
        return Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=warmup, epoch=epoch, engine=engine_name
        )
    warm = int(len(trace) * warmup)
    shard_slices = trace.shard(cache.geometry, n_shards)
    plans = [shard_segments(trace, shard, warm, epoch) for shard in shard_slices]
    if inline:
        outcomes = [
            run_shard(
                config, design, trace, i, n_shards, warmup, epoch, seed,
                engine=engine_name,
            )
            for i in range(n_shards)
        ]
    else:
        shm = ref = None
        if len(trace) > 0:
            token = trace.cache_token
            if token is None:
                # No content address from the trace cache: derive one so
                # worker-side attach memos and plan memos still key
                # correctly. One pass over the columns, paid once per
                # sharded run.
                token = hashlib.sha256(
                    trace.numpy_addrs().tobytes()
                    + trace.numpy_writes().tobytes()
                ).hexdigest()
            try:
                from repro.exec.batching import publish_trace

                shm, ref = publish_trace(trace, token)
            except OSError:
                shm = ref = None  # no shared memory: ship columns
        try:
            if ref is not None:
                # Zero-copy: every worker attaches to one segment and
                # carves its own shard; nothing per-record crosses the
                # pickle boundary.
                payloads = [
                    (config, design, seed, (ref, n_shards, index),
                     local_warm, segments, epoch, trace.name,
                     trace.instructions_per_access, engine_name)
                    for index, (local_warm, segments) in enumerate(plans)
                ]
            else:
                payloads = [
                    (config, design, seed, shard, local_warm, segments,
                     epoch, trace.name, trace.instructions_per_access,
                     engine_name)
                    for shard, (local_warm, segments)
                    in zip(shard_slices, plans)
                ]
            workers = min(n_shards, os.cpu_count() or 1)
            with ProcessPoolExecutor(
                max_workers=workers, initializer=mark_worker_process
            ) as pool:
                outcomes = list(pool.map(_run_shard_payload, payloads))
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
    return merge_outcomes(design, config, outcomes, epoch=epoch)


__all__ = [
    "ShardOutcome",
    "WORKER_ENV",
    "drive_shard",
    "effective_shard_count",
    "in_worker_process",
    "mark_worker_process",
    "merge_outcomes",
    "run_shard",
    "run_sharded",
    "shard_block",
    "shard_segments",
    "warn_serial_fallback",
]
