"""Set-sharded execution: deterministic merge, equivalence, fallback.

The shard engine (:mod:`repro.sim.shard`) claims that for designs whose
the vector kernel has a plan (:func:`repro.sim.shard.shard_block`), a run split
into set-range shards and merged is *bit-identical* to the serial run.
These tests pin that claim the same way ``test_fastpath.py`` pins the
hot loop: every benchmark design variant, serial vs sharded, whole
``RunResult`` equality (counters, timing, and per-epoch phase series).

The merge operators themselves are property-tested — associative,
commutative, identity-preserving — because the executor merges shard
outcomes in whatever order workers finish.
"""

import multiprocessing
import os
import warnings
from dataclasses import fields

import pytest

from repro.core.accord import AccordDesign
from repro.errors import ConfigError, SimulationError
from repro.exec.jobs import JobKey, plan_shards
from repro.params.system import scaled_system
from repro.sim.bench import BENCH_DESIGNS
from repro.sim.phases import PhaseSample, PhaseSeries
from repro.sim.shard import (
    WORKER_ENV,
    in_worker_process,
    mark_worker_process,
    merge_outcomes,
    run_shard,
    run_sharded,
)
from repro.sim.stats import CacheStats
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64

SCALE = 1.0 / 2048.0


def random_trace(seed: int, n: int = 3000, footprint_lines: int = 700) -> Trace:
    """Randomized mixed read/write trace (same shape as test_fastpath)."""
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        addrs.append(rng.next_below(footprint_lines) * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"random-{seed}", addrs, writes, instructions_per_access=40.0)


def random_stats(seed: int) -> CacheStats:
    rng = XorShift64(seed)
    stats = CacheStats()
    for f in fields(CacheStats):
        if f.name == "extras":
            continue
        setattr(stats, f.name, rng.next_below(10_000))
    stats.bump("custom_counter", rng.next_below(50))
    return stats


def merged(a: CacheStats, b: CacheStats) -> CacheStats:
    """Out-of-place merge (CacheStats.merge mutates the receiver)."""
    out = CacheStats.from_dict(a.to_dict())
    out.merge(b)
    return out


def random_series(seed: int, epoch: int = 100, epochs: int = 5) -> PhaseSeries:
    rng = XorShift64(seed)
    samples = []
    start = 0
    for index in range(epochs):
        if rng.next_below(4) == 0:
            continue  # a shard can be silent in an epoch
        accesses = rng.next_below(epoch) + 1
        hits = rng.next_below(accesses + 1)
        predicted = rng.next_below(hits + 1)
        samples.append(
            PhaseSample(
                index=index,
                start_access=start,
                accesses=accesses,
                hits=hits,
                predicted_hits=predicted,
                correct_predictions=rng.next_below(predicted + 1),
                nvm_reads=rng.next_below(200),
                nvm_writes=rng.next_below(100),
                writebacks=rng.next_below(100),
            )
        )
        start += accesses
    return PhaseSeries(epoch=epoch, samples=tuple(samples))


def _design_id(design):
    return design.display_name.replace(" ", "_")


@pytest.fixture(scope="module")
def trace():
    t = random_trace(311)
    assert any(t.writes) and not all(t.writes)
    return t


class TestCacheStatsMergeProperties:
    def test_identity(self):
        stats = random_stats(1)
        assert merged(stats, CacheStats()).to_dict() == stats.to_dict()
        assert merged(CacheStats(), stats).to_dict() == stats.to_dict()

    def test_commutative(self):
        a, b = random_stats(2), random_stats(3)
        assert merged(a, b).to_dict() == merged(b, a).to_dict()

    def test_associative(self):
        a, b, c = random_stats(4), random_stats(5), random_stats(6)
        left = merged(merged(a, b), c)
        right = merged(a, merged(b, c))
        assert left.to_dict() == right.to_dict()

    def test_extras_merge(self):
        a, b = CacheStats(), CacheStats()
        a.bump("only_a", 3)
        b.bump("only_a", 4)
        b.bump("only_b", 5)
        out = merged(a, b)
        assert out.extras == {"only_a": 7, "only_b": 5}


class TestPhaseSeriesMergeProperties:
    def test_identity(self):
        series = random_series(1)
        empty = PhaseSeries(epoch=series.epoch, samples=())
        assert PhaseSeries.merge([series, empty]).to_dict() == (
            PhaseSeries.merge([series]).to_dict()
        )

    def test_commutative(self):
        a, b = random_series(2), random_series(3)
        assert PhaseSeries.merge([a, b]).to_dict() == (
            PhaseSeries.merge([b, a]).to_dict()
        )

    def test_associative(self):
        a, b, c = random_series(4), random_series(5), random_series(6)
        left = PhaseSeries.merge([PhaseSeries.merge([a, b]), c])
        right = PhaseSeries.merge([a, PhaseSeries.merge([b, c])])
        assert left.to_dict() == right.to_dict()

    def test_aligns_by_global_epoch_index(self):
        a = PhaseSeries(epoch=10, samples=(
            PhaseSample(index=2, start_access=0, accesses=4, hits=1,
                        predicted_hits=0, correct_predictions=0,
                        nvm_reads=3, nvm_writes=0, writebacks=0),
        ))
        b = PhaseSeries(epoch=10, samples=(
            PhaseSample(index=0, start_access=0, accesses=6, hits=2,
                        predicted_hits=1, correct_predictions=1,
                        nvm_reads=4, nvm_writes=1, writebacks=2),
            PhaseSample(index=2, start_access=6, accesses=6, hits=3,
                        predicted_hits=2, correct_predictions=1,
                        nvm_reads=3, nvm_writes=0, writebacks=1),
        ))
        out = PhaseSeries.merge([a, b])
        assert [s.index for s in out.samples] == [0, 2]
        assert out.samples[1].accesses == 10
        assert out.samples[1].start_access == 6  # cumulative rebuild

    def test_rejects_mixed_epoch_lengths(self):
        a = PhaseSeries(epoch=10, samples=())
        b = PhaseSeries(epoch=20, samples=())
        with pytest.raises(SimulationError):
            PhaseSeries.merge([a, b])

    def test_rejects_empty_input(self):
        with pytest.raises(SimulationError):
            PhaseSeries.merge([])
        with pytest.raises(SimulationError):
            PhaseSeries.merge([None])


class TestSerialShardedEquivalence:
    """Every benchmark design: sharded run == serial run, bit for bit."""

    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_sharded_matches_serial(self, design, trace):
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sharded = run_sharded(
                config, design, trace,
                warmup=0.3, shards=4, seed=5, inline=True,
            )
        assert sharded.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_sharded_matches_serial_with_phases(self, design, trace):
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, epoch=500
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sharded = run_sharded(
                config, design, trace,
                warmup=0.3, epoch=500, shards=4, seed=5, inline=True,
            )
        assert sharded.to_dict() == serial.to_dict()
        if serial.phases is not None:
            assert sharded.phases is not None
            assert sharded.phases.to_dict() == serial.phases.to_dict()

    def test_process_pool_path_matches_serial(self, trace):
        """One design through real worker processes (not inline)."""
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, epoch=500
        )
        sharded = run_sharded(
            config, design, trace, warmup=0.3, epoch=500, shards=2, seed=5,
        )
        assert sharded.to_dict() == serial.to_dict()

    def test_pool_path_publishes_one_segment_and_unlinks(
        self, trace, monkeypatch
    ):
        """Workers attach to one shared segment; the parent unlinks it."""
        from multiprocessing import shared_memory

        import repro.exec.batching as batching

        published = []
        real = batching.publish_trace

        def spy(t, token):
            shm, ref = real(t, token)
            published.append(ref)
            return shm, ref

        monkeypatch.setattr(batching, "publish_trace", spy)
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        sharded = run_sharded(
            config, design, trace, warmup=0.3, shards=2, seed=5,
        )
        assert sharded.to_dict() == serial.to_dict()
        assert len(published) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(
                name=published[0].shm_name, create=False
            )

    def test_pool_path_degrades_without_shared_memory(
        self, trace, monkeypatch
    ):
        """No /dev/shm: fall back to pickling materialized shards."""
        import repro.exec.batching as batching

        def refuse(t, token):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(batching, "publish_trace", refuse)
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        sharded = run_sharded(
            config, design, trace, warmup=0.3, shards=2, seed=5,
        )
        assert sharded.to_dict() == serial.to_dict()

    def test_shard_count_exceeding_sets_is_clamped(self, trace):
        design = AccordDesign(kind="direct", ways=1)
        config = scaled_system(ways=design.ways, scale=SCALE)
        num_sets = build_dram_cache(design, config).geometry.num_sets
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        sharded = run_sharded(
            config, design, trace,
            warmup=0.3, shards=num_sets * 3, seed=5, inline=True,
        )
        assert sharded.to_dict() == serial.to_dict()


class TestShardableCapability:
    """The shard planner splits exactly the set-local designs."""

    @staticmethod
    def _shard_count(design):
        key = JobKey(design=design, workload="soplex", num_accesses=1000,
                     scale=SCALE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            count = plan_shards(key, 2)
        return count, [str(w.message) for w in caught
                       if "--shards ignored" in str(w.message)]

    def test_expected_classification(self):
        sharded = {
            design.display_name
            for design in BENCH_DESIGNS
            if self._shard_count(design)[0] > 1
        }
        assert "pws-2way" in sharded
        assert "direct-1way" in sharded
        assert "mru-2way" in sharded
        # Global state: GWS tables (also inside accord/sws), the
        # dueling PSEL, and the cross-set CA cache must NOT shard.
        assert "gws-2way" not in sharded
        assert "ACCORD 2-way" not in sharded
        assert "ACCORD SWS(8,2)" not in sharded
        assert "dueling-2way" not in sharded
        assert "ca-1way" not in sharded

    def test_unshardable_roles_are_named(self):
        """The fallback warning names the role the plan builder declined."""
        cases = [
            (dict(kind="gws", ways=2), "steering"),
            (dict(kind="dueling", ways=2), "steering"),
            (dict(kind="pws", ways=2, dcp="finite"), "dcp"),
            (dict(kind="ca", ways=1), "cache"),
        ]
        for spec, role in cases:
            design = AccordDesign(label=f"role-probe-{spec['kind']}", **spec)
            count, messages = self._shard_count(design)
            assert count == 1
            assert len(messages) == 1, messages
            assert f"'{design.label}'" in messages[0]
            assert f"({role})" in messages[0]

    def test_fallback_warns_once_per_design(self, trace):
        import repro.sim.shard as shard_mod

        design = AccordDesign(kind="gws", ways=2, label="warn-probe")
        config = scaled_system(ways=design.ways, scale=SCALE)
        # The warn-once memo is keyed by display name; start fresh.
        for k in [k for k in shard_mod._FALLBACK_WARNED
                  if k[0] == "warn-probe"]:
            shard_mod._FALLBACK_WARNED.discard(k)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_sharded(config, design, trace, warmup=0.3,
                            shards=2, seed=5, inline=True)
                run_sharded(config, design, trace, warmup=0.3,
                            shards=2, seed=5, inline=True)
            fallbacks = [w for w in caught
                         if "running serial" in str(w.message)]
            assert len(fallbacks) == 1
            assert "warn-probe" in str(fallbacks[0].message)
        finally:
            # Drop the memo so other tests see fresh warn-once state.
            key = [k for k in shard_mod._FALLBACK_WARNED
                   if k[0] == "warn-probe"]
            for k in key:
                shard_mod._FALLBACK_WARNED.discard(k)


class TestShardPlanning:
    def test_shards_partition_the_trace(self, trace):
        config = scaled_system(ways=2, scale=SCALE)
        geometry = build_dram_cache(
            AccordDesign(kind="pws", ways=2), config
        ).geometry
        shards = trace.shard(geometry, 4)
        seen = sorted(p for shard in shards for p in shard.positions.tolist())
        assert seen == list(range(len(trace)))
        # Set ranges must be disjoint across shards.
        owners = {}
        for shard in shards:
            for s in set(shard.set_indices):
                assert s not in owners, (
                    f"set {s} appears in shards {owners[s]} and {shard.index}"
                )
                owners[s] = shard.index

    def test_shard_is_memoized(self, trace):
        config = scaled_system(ways=2, scale=SCALE)
        geometry = build_dram_cache(
            AccordDesign(kind="pws", ways=2), config
        ).geometry
        assert trace.shard(geometry, 4) is trace.shard(geometry, 4)

    def test_shard_slice_bounds_checked(self, trace):
        from repro.errors import TraceError

        config = scaled_system(ways=2, scale=SCALE)
        geometry = build_dram_cache(
            AccordDesign(kind="pws", ways=2), config
        ).geometry
        with pytest.raises(TraceError):
            trace.shard_slice(geometry, 4, 99)

    def test_warm_index_splits_at_global_boundary(self, trace):
        config = scaled_system(ways=2, scale=SCALE)
        geometry = build_dram_cache(
            AccordDesign(kind="pws", ways=2), config
        ).geometry
        warm = int(len(trace) * 0.3)
        shards = trace.shard(geometry, 4)
        assert sum(s.warm_index(warm) for s in shards) == warm


class TestNestedPoolGuard:
    """A worker process must never spawn a grandchild pool."""

    def test_env_marker_detected(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        assert in_worker_process()
        monkeypatch.delenv(WORKER_ENV)
        if not multiprocessing.current_process().daemon:
            assert not in_worker_process()

    def test_mark_worker_process_sets_marker(self, monkeypatch):
        monkeypatch.delenv(WORKER_ENV, raising=False)
        mark_worker_process()
        try:
            assert os.environ.get(WORKER_ENV) == "1"
            assert in_worker_process()
        finally:
            os.environ.pop(WORKER_ENV, None)

    def test_worker_runs_shards_inline(self, trace, monkeypatch):
        """Inside a worker, run_sharded must not touch the pool class."""
        import repro.sim.shard as shard_mod

        def _boom(*args, **kwargs):
            raise AssertionError("nested pool spawned inside a worker")

        monkeypatch.setenv(WORKER_ENV, "1")
        monkeypatch.setattr(shard_mod, "ProcessPoolExecutor", _boom)
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        sharded = run_sharded(
            config, design, trace, warmup=0.3, shards=4, seed=5,
        )
        assert sharded.to_dict() == serial.to_dict()


class TestMergeOutcomes:
    def test_rejects_empty(self):
        design = AccordDesign(kind="direct", ways=1)
        config = scaled_system(ways=1, scale=SCALE)
        with pytest.raises(SimulationError):
            merge_outcomes(design, config, [])

    def test_manual_shard_runs_merge_to_serial_result(self, trace):
        design = AccordDesign(kind="mru", ways=2)
        config = scaled_system(ways=design.ways, scale=SCALE)
        serial = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, epoch=500
        )
        outcomes = [
            run_shard(config, design, trace, i, 3,
                      warmup=0.3, epoch=500, seed=5)
            for i in range(3)
        ]
        # Merge is order-independent: reversed shard order, same result.
        result = merge_outcomes(
            design, config, list(reversed(outcomes)), epoch=500
        )
        # Stats/phases/timing all match; workload name rides along.
        assert result.stats.to_dict() == serial.stats.to_dict()
        assert result.phases.to_dict() == serial.phases.to_dict()
        assert result.timing.runtime_ns == serial.timing.runtime_ns
        assert result.workload == serial.workload


class TestExecutorSharding:
    def test_executor_sharded_matches_serial(self):
        from repro.exec import Executor, JobKey

        designs = [
            AccordDesign(kind="pws", ways=2),   # shards
            AccordDesign(kind="gws", ways=2),   # falls back whole-job
        ]
        keys = [
            JobKey(design=d, workload="mcf", num_accesses=6000,
                   warmup=0.3, seed=7, epoch=1500)
            for d in designs
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            serial = Executor(jobs=1).run(keys)
            sharded = Executor(jobs=2, shards=2).run(keys)
        for key in keys:
            assert sharded[key].to_dict() == serial[key].to_dict()

    def test_shard_task_validation(self):
        from repro.exec import JobKey, ShardTask

        key = JobKey(design=AccordDesign(kind="pws", ways=2),
                     workload="mcf", num_accesses=1000)
        task = ShardTask(key, 1, 4)
        assert task.digest() == f"{key.digest()}-s1of4"
        assert "shard 2/4" in task.display
        with pytest.raises(ConfigError):
            ShardTask(key, 4, 4)
        with pytest.raises(ConfigError):
            ShardTask(key, 0, 1)

    def test_journal_shard_roundtrip(self, tmp_path):
        from repro.exec import JobKey, ShardTask, SweepJournal
        from repro.sim.shard import ShardOutcome

        key = JobKey(design=AccordDesign(kind="pws", ways=2),
                     workload="mcf", num_accesses=1000)
        task = ShardTask(key, 0, 2)
        outcome = ShardOutcome(
            stats=random_stats(9), phases=random_series(9),
            workload="mcf", instructions_per_access=40.0,
        )
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.begin([key])
        journal.record_shard(task, outcome)
        reloaded = SweepJournal(tmp_path / "sweep.jsonl")
        assert reloaded.load() == 0  # no whole jobs done yet
        record = reloaded.lookup_shard(task)
        assert record is not None
        restored = ShardOutcome.from_dict(record)
        assert restored.stats.to_dict() == outcome.stats.to_dict()
        assert restored.phases.to_dict() == outcome.phases.to_dict()

    def test_jobs_shards_budget_clamps_jobs_not_shards(self):
        from repro.experiments.common import Settings

        cores = os.cpu_count() or 1
        settings = Settings(jobs=cores * 4, shards=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clamped = settings.budgeted()
        assert clamped.shards == 2  # the shard request is never reduced
        assert clamped.jobs == max(1, cores // 2)
        assert any("exceeds" in str(w.message) for w in caught)
