"""Fast-path equivalence: the batched hot loop is bit-identical.

The simulator has three ways to drive a trace through a cache:

1. the per-address reference loop (``engine="loop"``: ``geometry.split``
   per access, ``cache.read``/``cache.writeback``);
2. the default ``engine="auto"`` drive, which for the fresh caches here
   picks an array kernel or the batched :meth:`AccessPath.run_stream`
   over precomputed split columns — the measured fast paths;
3. the observer fallback inside ``run_stream`` (default engine with
   an observer attached): per-access split entry points emitting the
   typed event stream.

These are three implementations of one specification. The sweep below
pins all of them bit-identical — ``CacheStats`` and the whole
``RunResult`` — for every benchmark design variant on randomized
traces, which is what licenses the fast path's specializations
(static candidates, skipped no-op calls, deferred stats flush).
"""

import pytest

from repro.cache.events import StatsObserver
from repro.core.accord import AccordDesign
from repro.core.protocols import ensure_policy_conformance
from repro.core.steering import InstallSteering, UnbiasedSteering
from repro.errors import PolicyError
from repro.params.system import scaled_system
from repro.sim.bench import BENCH_DESIGNS
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64


def random_trace(seed: int, n: int = 3000, footprint_lines: int = 700) -> Trace:
    """A randomized mixed read/write trace over a small footprint.

    The footprint is a few times the test cache capacity so hits,
    misses, evictions and writeback bypasses all occur.
    """
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        addrs.append(rng.next_below(footprint_lines) * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"random-{seed}", addrs, writes, instructions_per_access=40.0)


def _design_id(design):
    return design.display_name.replace(" ", "_")


@pytest.fixture(scope="module", params=[101, 202])
def trace(request):
    t = random_trace(request.param)
    assert any(t.writes) and not all(t.writes)
    return t


class TestFastPathEquivalence:
    """All 16 benchmark design variants, three drive modes, one result."""

    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_fast_path_matches_per_address_loop(self, design, trace):
        config = scaled_system(ways=design.ways, scale=1.0 / 2048.0)
        fast = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        slow = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="loop"
        )
        assert fast.to_dict() == slow.to_dict()

    @pytest.mark.parametrize(
        "design",
        [d for d in BENCH_DESIGNS if d.kind != "ca"],
        ids=_design_id,
    )
    def test_fast_path_matches_event_observed_path(self, design, trace):
        """run_stream's batch loop == its per-access observer fallback.

        The observer both forces the fallback and independently rebuilds
        the counters from the event stream, so one run checks the
        fallback against the events and the comparison checks the batch
        loop against the fallback. Zero warmup: the shadow observer sees
        the whole trace, while the cache's counters reset at the warm
        boundary, so the streams only align over a full-trace window.
        """
        config = scaled_system(ways=design.ways, scale=1.0 / 2048.0)
        fast = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.0
        )
        observed_sim = Simulator(config, design, seed=5)
        shadow = StatsObserver()
        observed_sim.cache.add_observer(shadow)
        observed = observed_sim.run(trace, warmup_fraction=0.0)
        assert fast.to_dict() == observed.to_dict()
        assert shadow.stats.to_dict() == observed.stats.to_dict()

    @pytest.mark.parametrize(
        "design",
        [d for d in BENCH_DESIGNS if d.kind != "ca"],
        ids=_design_id,
    )
    def test_observed_fallback_matches_fast_path_with_warmup(self, design, trace):
        """Observer-forced fallback and batch loop agree across the
        warmup counter reset too (shadow totals aside)."""
        config = scaled_system(ways=design.ways, scale=1.0 / 2048.0)
        fast = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3
        )
        observed_sim = Simulator(config, design, seed=5)
        observed_sim.cache.add_observer(StatsObserver())
        observed = observed_sim.run(trace, warmup_fraction=0.3)
        assert fast.to_dict() == observed.to_dict()

    def test_zero_warmup_and_full_trace_windows_agree(self, trace):
        design = AccordDesign("accord", ways=2)
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        for warmup in (0.0, 0.5, 0.9):
            fast = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=warmup
            )
            slow = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=warmup, engine="loop"
            )
            assert fast.to_dict() == slow.to_dict()


class TestRunStream:
    def test_run_stream_slices_compose(self, trace):
        """Driving [0, k) then [k, n) equals one [0, n) sweep."""
        design = AccordDesign("accord", ways=2)
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        whole = build_dram_cache(design, config, seed=3)
        split = build_dram_cache(design, config, seed=3)
        cols = trace.split_columns(whole.geometry)
        n = len(trace)
        whole.path.run_stream(
            trace.writes, cols.set_indices, cols.tags, trace.addrs, 0, n
        )
        k = n // 3
        split.path.run_stream(
            trace.writes, cols.set_indices, cols.tags, trace.addrs, 0, k
        )
        split.path.run_stream(
            trace.writes, cols.set_indices, cols.tags, trace.addrs, k, n
        )
        assert whole.stats.to_dict() == split.stats.to_dict()

    def test_generator_candidates_still_work(self, trace):
        """A steering policy may return one-shot iterables (no static
        contract); the stream driver must materialize them once."""

        class GeneratorSteering(UnbiasedSteering):
            def candidate_ways(self, set_index, tag):
                return (way for way in range(self.ways))

            def choose_install_way(self, set_index, tag, addr, store, replacement):
                # The install path (like the reference UnbiasedSteering)
                # needs an indexable sequence; the one-shot contract the
                # access path must honor is on the lookup/probe side.
                candidates = tuple(self.candidate_ways(set_index, tag))
                return replacement.victim(set_index, candidates, store)

        design = AccordDesign("unbiased", ways=2)
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        reference = build_dram_cache(design, config, seed=3)
        patched = build_dram_cache(design, config, seed=3)
        patched.steering = GeneratorSteering(patched.geometry)
        assert patched.steering.static_candidates is None
        cols = trace.split_columns(reference.geometry)
        for cache in (reference, patched):
            cache.path.run_stream(
                trace.writes, cols.set_indices, cols.tags, trace.addrs,
                0, len(trace),
            )
        assert reference.stats.to_dict() == patched.stats.to_dict()


class TestStaticCandidatesContract:
    def test_base_subclass_inherits_static_candidates(self, geom_2way):
        assert UnbiasedSteering(geom_2way).static_candidates == (0, 1)

    def test_overriding_subclass_defaults_to_none(self, geom_2way):
        class PerTag(InstallSteering):
            def candidate_ways(self, set_index, tag):
                return (tag % self.ways,)

        assert PerTag(geom_2way).static_candidates is None

    def test_lying_declaration_fails_at_build_time(self, geom_2way):
        """The validated-once check: a policy whose static_candidates
        disagrees with candidate_ways is rejected before any access."""

        class Liar(UnbiasedSteering):
            def __init__(self, geometry):
                super().__init__(geometry)
                self.static_candidates = (0,)  # but candidate_ways says (0, 1)

            def candidate_ways(self, set_index, tag):
                return self._all_ways

        design = AccordDesign("unbiased", ways=2)
        config = scaled_system(ways=2, scale=1.0 / 2048.0)
        cache = build_dram_cache(design, config, seed=3)
        cache.steering = Liar(cache.geometry)
        with pytest.raises(PolicyError, match="static_candidates"):
            ensure_policy_conformance(cache)
