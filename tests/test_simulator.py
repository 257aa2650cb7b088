"""Tests for the Simulator, runner helpers and design orchestration."""

import numpy as np
import pytest

from repro.core.accord import AccordDesign
from repro.errors import SimulationError, WorkloadError
from repro.params.system import scaled_system
from repro.sim.runner import (
    TraceFactory,
    geometric_mean,
    mean_hit_rate,
    mean_prediction_accuracy,
    run_design,
    run_suite,
    speedups_vs_baseline,
)
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import trace_from_arrays

SMALL_SCALE = 1.0 / 1024.0  # 4MB cache: fast to exercise


def small_config(ways=1):
    return scaled_system(ways=ways, scale=SMALL_SCALE)


class TestSimulator:
    def test_run_produces_consistent_result(self):
        config = small_config()
        simulator = Simulator(config, AccordDesign(kind="direct", ways=1))
        trace = trace_from_arrays(
            "t", [i % 50 * 64 for i in range(2000)], [0] * 2000, 40.0
        )
        result = simulator.run(trace, warmup_fraction=0.25)
        assert result.workload == "t"
        assert result.stats.demand_reads == 1500  # post-warmup only
        assert result.hit_rate > 0.9  # 50 hot lines
        assert result.runtime_ns > 0

    def test_warmup_excluded_from_stats(self):
        config = small_config()
        simulator = Simulator(config, AccordDesign(kind="direct", ways=1))
        # All-distinct trace: every access misses; warmup shaves misses.
        trace = trace_from_arrays(
            "t", [i * 64 for i in range(1000)], [0] * 1000, 40.0
        )
        result = simulator.run(trace, warmup_fraction=0.5)
        assert result.stats.misses == 500

    def test_warmup_validation(self):
        simulator = Simulator(small_config(), AccordDesign(kind="direct", ways=1))
        trace = trace_from_arrays("t", [0], [0], 40.0)
        with pytest.raises(SimulationError):
            simulator.run(trace, warmup_fraction=1.0)

    def test_all_write_trace_rejected(self):
        simulator = Simulator(small_config(), AccordDesign(kind="direct", ways=1))
        trace = trace_from_arrays("t", [0, 64], [1, 1], 40.0)
        with pytest.raises(SimulationError):
            simulator.run(trace, warmup_fraction=0.0)

    def test_speedup_over_requires_same_workload(self):
        config = small_config()
        simulator = Simulator(config, AccordDesign(kind="direct", ways=1))
        t1 = trace_from_arrays("a", [0] * 100, [0] * 100, 40.0)
        t2 = trace_from_arrays("b", [0] * 100, [0] * 100, 40.0)
        r1 = simulator.run(t1, 0.0)
        r2 = Simulator(config, AccordDesign(kind="direct", ways=1)).run(t2, 0.0)
        with pytest.raises(SimulationError):
            r1.speedup_over(r2)

    def test_build_dram_cache_uses_design_ways(self):
        cache = build_dram_cache(AccordDesign(kind="accord", ways=2), small_config())
        assert cache.geometry.ways == 2


class TestNumpyColumnTraces:
    """``trace_from_arrays`` accepts numpy columns on every engine."""

    @staticmethod
    def _columns(n=8000):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 22, n) * 64
        writes = (rng.random(n) < 0.2).astype(np.uint8)
        return addrs, writes

    @pytest.mark.parametrize("engine", ["loop", "auto"])
    @pytest.mark.parametrize("kind,ways", [("direct", 1), ("accord", 2)])
    def test_numpy_and_list_columns_agree(self, kind, ways, engine):
        design = AccordDesign(kind=kind, ways=ways)
        config = small_config(ways)
        addrs, writes = self._columns()
        from_numpy = trace_from_arrays("t", addrs, writes, 40.0)
        from_lists = trace_from_arrays("t", addrs.tolist(), writes.tolist(), 40.0)
        assert all(type(a) is int for a in from_numpy.addrs[:10])
        a = Simulator(config, design, seed=1).run(from_numpy, engine=engine)
        b = Simulator(config, design, seed=1).run(from_lists, engine=engine)
        assert a.to_dict() == b.to_dict()

    def test_numpy_columns_are_copied_and_flags_normalized(self):
        addrs, writes = self._columns(100)
        first = int(addrs[0])
        trace = trace_from_arrays("t", addrs, writes * 3, 40.0)
        addrs[0] = first + 64
        assert trace.addrs[0] == first
        assert set(trace.writes) == {0, 1}


class TestRunner:
    def test_run_design_end_to_end(self):
        result = run_design(
            AccordDesign(kind="accord", ways=2),
            "libq",
            config=small_config(2),
            num_accesses=20_000,
        )
        assert 0.0 < result.hit_rate < 1.0
        assert 0.0 < result.prediction_accuracy <= 1.0

    def test_trace_factory_memoizes(self):
        factory = TraceFactory(small_config(), num_accesses=5_000)
        assert factory.trace_for("libq") is factory.trace_for("libq")

    def test_trace_factory_builds_mixes(self):
        factory = TraceFactory(small_config(), num_accesses=4_000)
        trace = factory.trace_for("mix1")
        assert len(trace) > 0

    def test_run_suite_and_aggregates(self):
        suite = ["libq", "sphinx"]
        config = small_config(2)
        factory = TraceFactory(config, num_accesses=20_000)
        base = run_suite(
            AccordDesign(kind="parallel", ways=2), suite,
            config=config, traces=factory, num_accesses=20_000,
        )
        accord = run_suite(
            AccordDesign(kind="accord", ways=2), suite,
            config=config, traces=factory, num_accesses=20_000,
        )
        speedups = speedups_vs_baseline(accord, base)
        assert set(speedups) == set(suite)
        assert 0 < mean_hit_rate(accord) <= 1
        assert 0 < mean_prediction_accuracy(accord) <= 1

    def test_empty_suite_rejected(self):
        with pytest.raises(WorkloadError):
            run_suite(AccordDesign(kind="direct", ways=1), [])

    def test_speedups_require_matching_baseline(self):
        with pytest.raises(WorkloadError):
            speedups_vs_baseline({"a": None}, {})


class TestGeometricMean:
    def test_values(self):
        assert geometric_mean([2.0, 0.5]) == pytest.approx(1.0)
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            geometric_mean([])
        with pytest.raises(WorkloadError):
            geometric_mean([1.0, 0.0])
