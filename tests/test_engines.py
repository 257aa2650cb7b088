"""Engine-layer equivalence and resolver contract.

The drive path is pluggable (:mod:`repro.sim.engines`): the per-address
reference loop, the batched ``run_stream`` loop, and the whole-trace
vectorized numpy kernel are three implementations of one specification.
The matrix below pins all of them bit-identical — ``CacheStats``, the
whole ``RunResult`` and the phase series — for every benchmark design
variant, serial and set-sharded, on randomized traces. That equivalence
is what licenses excluding the engine from :meth:`JobKey.canonical`:
a result computed under any engine satisfies the same key.
"""

import warnings

import pytest

from repro.cache.dcp import FiniteDcpDirectory
from repro.cache.replacement import RripReplacement
from repro.core.accord import AccordDesign
from repro.core.protocols import ensure_policy_conformance
from repro.core.sws import SkewedWaySteering
from repro.errors import ConfigError, SimulationError
from repro.exec.jobs import JobKey
from repro.params.system import scaled_system
from repro.sim.bench import BENCH_DESIGNS
from repro.sim.engines import (
    ENGINE_NAMES,
    ENGINES,
    TraceStream,
    get_engine,
    resolve_engine,
    serial_segments,
)
from repro.sim.engines.multi import FusedRun, drive_fused, plan_signature
from repro.sim.engines.vector import build_plan
from repro.sim.shard import run_sharded
from repro.sim.system import Simulator, build_dram_cache
from repro.sim.trace import Trace
from repro.utils.rng import XorShift64

SCALE = 1.0 / 2048.0
EPOCH = 500


def random_trace(seed: int, n: int = 3000, footprint_lines: int = 700) -> Trace:
    """Randomized mixed read/write trace over a small footprint."""
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        addrs.append(rng.next_below(footprint_lines) * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"random-{seed}", addrs, writes, instructions_per_access=40.0)


def conflict_trace(seed: int, tags: int, n: int = 1500, sets: int = 48) -> Trace:
    """Randomized mixed trace over ``sets`` hot sets with ``tags``
    distinct tags each; more tags than ways keeps every set choosing
    victims among live lines (set bits stay below 2**20 at any test
    geometry)."""
    rng = XorShift64(seed)
    addrs = []
    writes = bytearray()
    for _ in range(n):
        line = rng.next_below(sets) + (rng.next_below(tags) << 20)
        addrs.append(line * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"conflict-{seed}", addrs, writes, instructions_per_access=40.0)


def _design_id(design):
    return design.display_name.replace(" ", "_")


@pytest.fixture(scope="module")
def trace():
    t = random_trace(310)
    assert any(t.writes) and not all(t.writes)
    return t


@pytest.fixture(scope="module")
def loop_reference(trace):
    """Per-design loop-engine serial results, computed once (with phases)."""
    memo = {}

    def get(design):
        key = design.display_name
        if key not in memo:
            config = scaled_system(ways=design.ways, scale=SCALE)
            memo[key] = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, epoch=EPOCH, engine="loop"
            ).to_dict()
        return memo[key]

    return get


class TestEngineEquivalenceMatrix:
    """16 designs x {loop, stream, vector, replay} x serial/sharded.

    Unsupported explicit requests fall down the chain (with a warning we
    silence here), so every cell is still a valid exactness check: the
    engine that actually ran must reproduce the reference loop.
    """

    @pytest.mark.parametrize("engine", ["stream", "vector", "replay"])
    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_serial_engines_match_loop(self, design, engine, trace,
                                       loop_reference):
        config = scaled_system(ways=design.ways, scale=SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, epoch=EPOCH, engine=engine
            )
        assert result.to_dict() == loop_reference(design)

    @pytest.mark.parametrize("engine", ["loop", "stream", "vector", "replay"])
    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_sharded_engines_match_loop(self, design, engine, trace,
                                        loop_reference):
        config = scaled_system(ways=design.ways, scale=SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_sharded(
                config, design, trace, warmup=0.3, epoch=EPOCH,
                shards=3, seed=5, inline=True, engine=engine,
            )
        assert result.to_dict() == loop_reference(design)


def _drive(cache, trace, engine_name, warm_frac=0.3, epoch=None):
    """Drive a hand-assembled cache with one engine; return its outputs."""
    engine = get_engine(engine_name)
    assert engine.supports(cache)
    warm = int(len(trace) * warm_frac)
    stream = TraceStream(trace, cache.geometry)
    segments = serial_segments(trace, warm, epoch)
    phases = engine.drive(cache, stream, warm, segments, epoch)
    return (
        cache.stats.to_dict(),
        phases.to_dict() if phases is not None else None,
    )


def _member_pip(seed: int) -> float:
    """A pseudo-random PIP in [0.05, 0.95), fixed by ``seed``."""
    return 0.05 + XorShift64(seed).next_below(900) / 1000.0


def _design_family(kind, ways, **fields):
    """Member ``k`` of a same-signature group built under ``seed``: the
    design at config seed ``seed + k``, with a PIP drawn per member
    where the design takes one."""

    def build(k, seed):
        pip = {"pip": _member_pip(seed + k)} if kind == "pws" else {}
        design = AccordDesign(kind=kind, ways=ways, **fields, **pip)
        config = scaled_system(ways=ways, scale=SCALE)
        return build_dram_cache(design, config, seed=seed + k)

    return build


def _sws_family(hashes, replacement="random"):
    """Member ``k``: standalone 8-way SWS with its own PIP and stream."""

    def build(k, seed):
        config = scaled_system(ways=8, scale=SCALE)
        cache = build_dram_cache(
            AccordDesign(kind="serial", ways=8, replacement=replacement),
            config, seed=seed + k,
        )
        cache.steering = SkewedWaySteering(
            cache.geometry, hashes=hashes, pip=_member_pip(seed + k),
            rng=XorShift64(seed + 7 * k),
        )
        ensure_policy_conformance(cache)
        return cache

    return build


#: Vectorizable signatures BENCH_DESIGNS leaves out: flows at 4 and 8
#: ways (the m > 2 block-gather scan), 4-way steering, predictors
#: without a DCP (probe-counting writebacks), every SWS hash count.
_SIGNATURE_FAMILIES = [
    (f"{kind}-{ways}way", _design_family(kind, ways))
    for kind in ("serial", "parallel", "ideal")
    for ways in (4, 8)
] + [
    ("unbiased-4way", _design_family("unbiased", 4)),
    ("pws-4way", _design_family("pws", 4)),
    ("mru-4way-nodcp", _design_family("mru", 4, dcp="none")),
    ("ptag4-nodcp", _design_family(
        "partial_tag", 2, dcp="none", partial_tag_bits=4)),
    ("ptag7-nodcp", _design_family(
        "partial_tag", 2, dcp="none", partial_tag_bits=7)),
    ("direct-nodcp", _design_family("direct", 1, dcp="none")),
] + [(f"sws-h{hashes}", _sws_family(hashes)) for hashes in (1, 2, 3, 4)]


def _rrip_bits_family(bits):
    """Member ``k``: unbiased 4-way with a swapped-in ``bits``-bit SRRIP."""

    def build(k, seed):
        config = scaled_system(ways=4, scale=SCALE)
        cache = build_dram_cache(
            AccordDesign(kind="unbiased", ways=4), config, seed=seed + k
        )
        cache.replacement = RripReplacement(
            cache.geometry, bits=bits, rng=XorShift64(seed + 7 * k)
        )
        ensure_policy_conformance(cache)
        return cache

    return build


#: Set-local replacement on the vector kernel: unbiased steering lets
#: the policy pick the victim (flows at 2, 4 and 8 ways, a predictor
#: without a DCP); pws and standalone SWS only charge its hit updates.
_REPLACEMENT_FAMILIES = [
    (f"{name}-{repl}", family)
    for repl in ("lru", "nru", "rrip")
    for name, family in (
        ("unbiased-2way", _design_family("unbiased", 2, replacement=repl)),
        ("serial-4way", _design_family("serial", 4, replacement=repl)),
        ("parallel-8way", _design_family("parallel", 8, replacement=repl)),
        ("mru-4way-nodcp", _design_family(
            "mru", 4, dcp="none", replacement=repl)),
        ("pws-2way", _design_family("pws", 2, replacement=repl)),
        ("sws-h3", _sws_family(3, replacement=repl)),
    )
] + [(f"rrip{bits}-unbiased-4way", _rrip_bits_family(bits)) for bits in (1, 3)]


def _assert_family_matches_loop(build, seed, trace):
    """Solo and K=3 fused vector drives of a family equal the loop."""
    rng = XorShift64(seed)
    warm_frac = rng.next_below(60) / 100.0
    epoch = 200 + rng.next_below(300)
    loop = [
        _drive(build(k, seed), trace, "loop", warm_frac, epoch)
        for k in range(3)
    ]
    solo = _drive(build(0, seed), trace, "vector", warm_frac, epoch)
    assert solo == loop[0]

    caches = [build(k, seed) for k in range(3)]
    plans = [build_plan(cache) for cache in caches]
    assert len({plan_signature(plan) for plan in plans}) == 1
    warm = int(len(trace) * warm_frac)
    segments = serial_segments(trace, warm, epoch)
    runs = [FusedRun(plan, warm, segments, epoch) for plan in plans]
    geometry = caches[0].geometry
    fused = drive_fused(runs, TraceStream(trace, geometry), geometry)
    for (stats, phases), reference in zip(fused, loop):
        assert (stats.to_dict(), phases.to_dict()) == reference


class TestVectorProperties:
    """Property checks against the reference loop on randomized traces."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("warm", [0.0, 0.3, 0.8])
    def test_random_traces_and_warmups(self, seed, warm):
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(seed, n=2000)
        vec = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=warm, epoch=333, engine="vector"
        )
        ref = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=warm, epoch=333, engine="loop"
        )
        assert vec.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("dcp", ["none", "exact"])
    @pytest.mark.parametrize("kind", ["serial", "mru", "partial_tag"])
    def test_dcp_modes(self, kind, dcp, trace):
        """No DCP at all (modelled writeback probes) stays exact too."""
        design = AccordDesign(kind=kind, ways=2, dcp=dcp)
        config = scaled_system(ways=2, scale=SCALE)
        vec = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="vector"
        )
        ref = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="loop"
        )
        assert vec.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("hashes", [1, 2, 4])
    def test_standalone_sws_steering(self, hashes, trace):
        """SWS without the GWS wrapper is vectorizable and exact."""
        design = AccordDesign(kind="serial", ways=8)
        config = scaled_system(ways=8, scale=SCALE)
        outs = []
        for engine_name in ("vector", "loop"):
            cache = build_dram_cache(design, config, seed=9)
            cache.steering = SkewedWaySteering(
                cache.geometry, hashes=hashes, pip=0.9, rng=XorShift64(123)
            )
            ensure_policy_conformance(cache)
            outs.append(_drive(cache, trace, engine_name, epoch=400))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "index", range(len(_SIGNATURE_FAMILIES)),
        ids=[name for name, _ in _SIGNATURE_FAMILIES],
    )
    def test_signature_axes_match_loop(self, index):
        """Solo and K=3 fused vector drives equal the loop, per member."""
        _name, build = _SIGNATURE_FAMILIES[index]
        seed = 900 + 10 * index
        _assert_family_matches_loop(build, seed, random_trace(seed, n=1500))

    @pytest.mark.parametrize(
        "index", range(len(_REPLACEMENT_FAMILIES)),
        ids=[name for name, _ in _REPLACEMENT_FAMILIES],
    )
    def test_replacement_matches_loop(self, index):
        """LRU/NRU/SRRIP victims, rollovers and agings under set
        conflicts: solo and K=3 fused vector drives equal the loop."""
        _name, build = _REPLACEMENT_FAMILIES[index]
        seed = 1300 + 10 * index
        ways = build(0, seed).geometry.ways
        _assert_family_matches_loop(
            build, seed, conflict_trace(seed, tags=3 * ways)
        )

    def test_finite_dcp_is_not_vectorizable(self, trace):
        """The finite directory's capacity bound is global state the
        set-local kernel cannot model, and the replay kernels carry it
        only for the GWS-family stacks: a serial cache with a finite
        DCP must decline both array engines."""
        design = AccordDesign(kind="serial", ways=2, dcp="finite")
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=5)
        assert not ENGINES["vector"].supports(cache)
        assert not ENGINES["replay"].supports(cache)


class TestReplayProperties:
    """Randomized global-state configs: replay == reference loop.

    The equivalence matrix pins the 16 benchmark variants; these
    configs vary everything the replay kernels parameterize — region
    table sizes and granularities, install-coin biases, way counts,
    hash counts (including the degenerate single-hash row that skips
    the coin entirely), and both DCP modes (exact directory vs modelled
    writeback probes) — on randomized traces, phases included.
    """

    CONFIGS = [
        AccordDesign(kind="gws", ways=2, rit_entries=8, rlt_entries=8,
                     region_size=1024),
        AccordDesign(kind="gws", ways=2, dcp="none"),
        AccordDesign(kind="accord", ways=2, pip=0.5, region_size=1024,
                     rit_entries=16),
        AccordDesign(kind="accord", ways=2, dcp="none", pip=0.99),
        AccordDesign(kind="accord", ways=4, rit_entries=4, rlt_entries=128,
                     region_size=512),
        AccordDesign(kind="sws", ways=8, hashes=3, pip=0.7, dcp="none",
                     rit_entries=8),
        AccordDesign(kind="sws", ways=8, hashes=1),
        AccordDesign(kind="dueling", ways=2, rit_entries=8),
        AccordDesign(kind="dueling", ways=4, dcp="none", region_size=1024),
    ]

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("design", CONFIGS, ids=_design_id)
    def test_randomized_configs_match_loop(self, design, seed):
        config = scaled_system(ways=design.ways, scale=SCALE)
        trace = random_trace(seed * 7 + 1, n=2500)
        cache = build_dram_cache(design, config, seed=seed)
        assert ENGINES["replay"].supports(cache)
        rep = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=0.25, epoch=400, engine="replay"
        )
        ref = Simulator(config, design, seed=seed).run(
            trace, warmup_fraction=0.25, epoch=400, engine="loop"
        )
        assert rep.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("design", [
        AccordDesign(kind="accord", ways=2),
        AccordDesign(kind="sws", ways=8, hashes=3),
        AccordDesign(kind="dueling", ways=2),
    ], ids=_design_id)
    def test_finite_dcp_matches_loop(self, design):
        """A 16-line finite DCP over ~24 x ways live lines keeps
        forgetting: remembered ways (and their recency refresh), probes
        of forgotten lines, re-learning and victim removal all run,
        phases included."""
        config = scaled_system(ways=design.ways, scale=SCALE)
        trace = conflict_trace(41, tags=design.ways + 1, n=2500, sets=24)
        outs = []
        for engine_name in ("replay", "loop"):
            cache = build_dram_cache(design, config, seed=5)
            cache.dcp = FiniteDcpDirectory(capacity=16)
            outs.append(_drive(cache, trace, engine_name, epoch=400))
        assert cache.dcp.capacity_evictions > 0 and cache.dcp.hits > 0
        assert outs[0] == outs[1]

    def test_replay_declines_a_used_finite_dcp(self):
        design = AccordDesign(kind="accord", ways=2, dcp="finite")
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=5)
        assert ENGINES["replay"].supports(cache)
        cache.dcp.insert(0, 1)
        assert not ENGINES["replay"].supports(cache)

    def test_replay_requires_fresh_tables(self, trace):
        """A cache whose region tables already hold entries cannot be
        replayed from build-time defaults; supports() must decline."""
        design = AccordDesign(kind="accord", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=5)
        assert ENGINES["replay"].supports(cache)
        cache.steering.rit.record(0, 1)
        assert not ENGINES["replay"].supports(cache)


class TestTracePlanCache:
    """The vector engine's weakref-keyed stream-array plan cache."""

    def test_plans_reused_across_runs(self):
        from repro.sim.engines.vector import _TRACE_PLANS

        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(401, n=1500)
        simulator = Simulator(config, design, seed=5)
        first = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        entry = _TRACE_PLANS.get(id(trace))
        assert entry is not None
        plans = entry[1]
        assert len(plans) == 1
        cached = next(iter(plans.values()))
        second = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        assert _TRACE_PLANS[id(trace)][1] is plans
        assert next(iter(plans.values())) is cached  # reused, not rebuilt
        assert first.to_dict() == second.to_dict()

    def test_replay_engine_shares_the_plan_cache(self):
        """Replay precomputes through the same _stream_arrays memo, so a
        mixed vector/replay sweep decomposes each trace once."""
        from repro.sim.engines.vector import _TRACE_PLANS

        design = AccordDesign(kind="accord", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(403, n=1500)
        Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="replay"
        )
        entry = _TRACE_PLANS.get(id(trace))
        assert entry is not None and len(entry[1]) == 1

    def test_dropping_trace_releases_plan(self):
        import gc

        from repro.sim.engines.vector import _TRACE_PLANS

        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        trace = random_trace(402, n=1500)
        Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="vector"
        )
        key = id(trace)
        assert key in _TRACE_PLANS
        del trace
        gc.collect()
        assert key not in _TRACE_PLANS  # weakref callback evicted it


class TestResolver:
    def _cache(self, design):
        config = scaled_system(ways=design.ways, scale=SCALE)
        return build_dram_cache(
            design, config, seed=5
        ), design

    def test_design_set_covers_every_kind(self):
        from repro.core.accord import DESIGN_KINDS

        assert {d.kind for d in BENCH_DESIGNS} == set(DESIGN_KINDS)

    def test_auto_picks_fastest_supported(self):
        """No design silently falls back to the stream engine: the
        global-state stacks run on replay, everything else on vector."""
        replay_kinds = {"gws", "accord", "sws", "dueling", "ca"}
        picked = {}
        for design in BENCH_DESIGNS:
            cache, _ = self._cache(design)
            name = resolve_engine(cache, design=design).name
            expected = "replay" if design.kind in replay_kinds else "vector"
            assert name == expected, design.display_name
            picked[name] = picked.get(name, 0) + 1
        assert picked == {"vector": 9, "replay": 7}

    def test_ablation_designs_never_resolve_to_stream(self, monkeypatch):
        """Every design of the replacement and DCP ablations runs on an
        array engine, so a silent fallback to the stream loop fails here
        instead of only slowing the paper run."""
        from repro.experiments import ablations
        from repro.experiments.common import Settings, SuiteRunner

        resolved = {}

        def record(runner, label, design):
            cache = build_dram_cache(
                design, runner.config_for(design), seed=runner.settings.seed
            )
            resolved[label] = resolve_engine(cache, design=design).name
            return {}

        monkeypatch.setattr(SuiteRunner, "run", record)
        for aggregate in ("mean_hit", "mean_wp", "gmean_speedup"):
            monkeypatch.setattr(SuiteRunner, aggregate, lambda *args: 0.0)
        settings = Settings(use_store=False).quick()
        ablations.run_replacement(settings)
        ablations.run_dcp_modes(settings)
        assert {"lru", "nru", "rrip", "finite DCP (L3-resident only)"} <= set(
            resolved
        )
        assert set(resolved.values()) <= {"vector", "replay"}, resolved

    def test_explicit_supported_request_is_honored(self):
        cache, design = self._cache(AccordDesign(kind="pws", ways=2))
        for name in ("vector", "stream", "loop"):
            assert resolve_engine(cache, requested=name,
                                  design=design).name == name

    def test_unsupported_request_falls_back_with_one_warning(self):
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(AccordDesign(kind="gws", ways=2))
        with pytest.warns(RuntimeWarning, match="--engine vector ignored"):
            engine = resolve_engine(cache, requested="vector", design=design)
        assert engine.name == "replay"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_engine(
                cache, requested="vector", design=design
            ).name == "replay"

    def test_replay_request_on_set_local_design_falls_to_stream(self):
        """Replay only implements the global-state stacks; a set-local
        design degrades past it to stream (never silently to loop)."""
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(AccordDesign(kind="pws", ways=2))
        with pytest.warns(RuntimeWarning, match="--engine replay ignored"):
            engine = resolve_engine(cache, requested="replay", design=design)
        assert engine.name == "stream"
        _ENGINE_FALLBACK_WARNED.clear()

    @pytest.mark.parametrize("spec, requested, role, fallback", [
        ("gws:2:replacement=lru", "replay", "replacement", "stream"),
        ("unbiased:2:dcp=finite", "vector", "dcp", "stream"),
    ])
    def test_fallback_warning_names_declined_role(
        self, spec, requested, role, fallback
    ):
        """The warning names the role the requested engine's plan
        builder rejected, and the design by its display name."""
        from repro.exec.jobs import parse_design_spec
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(parse_design_spec(spec))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = resolve_engine(cache, requested=requested, design=design)
        assert engine.name == fallback
        (message,) = [str(w.message) for w in caught]
        assert f"'{design.display_name}'" in message
        assert f"declines its {role};" in message
        assert f"--engine {requested} ignored" in message
        _ENGINE_FALLBACK_WARNED.clear()

    def test_worker_processes_suppress_fallback_warning(self, monkeypatch):
        """Warn-once state is per-process; inside pool workers the
        warning is suppressed entirely (the parent warns at planning
        time), so --shards N cannot print N copies."""
        from repro.sim.engines import _ENGINE_FALLBACK_WARNED
        from repro.sim.shard import WORKER_ENV

        _ENGINE_FALLBACK_WARNED.clear()
        cache, design = self._cache(AccordDesign(kind="gws", ways=2))
        monkeypatch.setenv(WORKER_ENV, "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would raise
            assert resolve_engine(
                cache, requested="vector", design=design
            ).name == "replay"
        _ENGINE_FALLBACK_WARNED.clear()

    def test_strict_raises_instead_of_falling_back(self):
        cache, design = self._cache(AccordDesign(kind="gws", ways=2))
        with pytest.raises(SimulationError, match="engine-strict"):
            resolve_engine(cache, requested="vector", strict=True,
                           design=design)

    def test_simulator_honors_strict(self, trace):
        config = scaled_system(ways=2, scale=SCALE)
        simulator = Simulator(config, AccordDesign(kind="gws", ways=2), seed=5)
        with pytest.raises(SimulationError, match="engine-strict"):
            simulator.run(trace, engine="vector", engine_strict=True)

    def test_unknown_names_are_rejected(self):
        cache, _ = self._cache(AccordDesign(kind="pws", ways=2))
        with pytest.raises(SimulationError, match="unknown engine"):
            resolve_engine(cache, requested="warp")
        with pytest.raises(SimulationError, match="unknown engine"):
            get_engine("warp")
        with pytest.raises(SimulationError, match="unknown engine"):
            get_engine("auto")  # registry holds concrete engines only

    def test_observer_disables_vector(self, trace):
        """An attached observer must force a non-vector engine (the
        kernel emits no events); results still match the loop."""
        from repro.cache.events import StatsObserver

        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        simulator = Simulator(config, design, seed=5)
        simulator.cache.add_observer(StatsObserver())
        assert not ENGINES["vector"].supports(simulator.cache)

    def test_repeat_runs_are_independent(self, trace):
        """Simulator.run twice = two fresh caches, not cumulative state
        (the vector kernel replays build-time defaults, so the contract
        is enforced for every engine)."""
        design = AccordDesign(kind="pws", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        simulator = Simulator(config, design, seed=5)
        first = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        second = simulator.run(trace, warmup_fraction=0.3, engine="vector")
        fresh = Simulator(config, design, seed=5).run(
            trace, warmup_fraction=0.3, engine="loop"
        )
        assert first.to_dict() == second.to_dict() == fresh.to_dict()


#: Kinds whose policy state is global (GWS's RIT/RLT region tables,
#: also inside accord and sws; set-dueling's PSEL).
_GLOBAL_KINDS = ("gws", "accord", "sws", "dueling")


def _eligibility_grid():
    """Every kind x ways (x SWS hashes) x replacement x DCP mode."""
    from repro.core.accord import DESIGN_KINDS

    bases = [("direct", 1, 2), ("ca", 1, 2)]
    for kind in DESIGN_KINDS:
        if kind in ("direct", "ca"):
            continue
        for ways in (2, 4, 8):
            hashes = (2, 3) if kind == "sws" and ways >= 4 else (2,)
            bases.extend((kind, ways, h) for h in hashes)
    return [
        AccordDesign(kind=kind, ways=ways, hashes=hashes,
                     replacement=replacement, dcp=dcp)
        for kind, ways, hashes in bases
        for replacement in ("random", "lru", "nru", "rrip")
        for dcp in ("exact", "finite", "none")
    ]


_GRID = _eligibility_grid()


def _expected_engine(design) -> str:
    """The engine ``auto`` must pick, derived by rule rather than from
    any plan builder: set-local stacks run on the vector kernel unless
    the finite DCP's global capacity couples their sets; the replay
    kernels take the CA cache and the global-state stacks with random
    replacement; everything else runs on the stream loop."""
    if design.kind == "ca" or (
        design.kind in _GLOBAL_KINDS and design.replacement == "random"
    ):
        return "replay"
    if design.kind not in _GLOBAL_KINDS and design.dcp != "finite":
        return "vector"
    return "stream"


class TestEligibilityGrid:
    """``auto`` resolution and set-sharding over the full design grid."""

    def test_grid_counts(self):
        counts = {}
        for design in _GRID:
            name = _expected_engine(design)
            counts[name] = counts.get(name, 0) + 1
        assert len(_GRID) == 480
        assert counts == {"vector": 200, "replay": 54, "stream": 226}

    @pytest.mark.parametrize(
        "design", _GRID,
        ids=[f"{d.kind}{d.ways}x{d.hashes}-{d.replacement}-{d.dcp}"
             for d in _GRID],
    )
    def test_auto_engine_and_shard_plan(self, design):
        """Auto picks the rule's engine, and the shard planner splits
        exactly the designs that resolve to the vector kernel."""
        from repro.exec.jobs import plan_shards

        expected = _expected_engine(design)
        config = scaled_system(ways=design.ways, scale=SCALE)
        cache = build_dram_cache(design, config)
        assert resolve_engine(cache).name == expected
        key = JobKey(design=design, workload="soplex", num_accesses=1000,
                     scale=SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            count = plan_shards(key, 2)
        assert (count > 1) == (expected == "vector")


class TestJobKeyEngine:
    KEY_ARGS = dict(
        design=AccordDesign(kind="pws", ways=2),
        workload="soplex",
        num_accesses=1000,
    )

    def test_engine_never_forks_the_memo_space(self):
        keys = [JobKey(engine=name, **self.KEY_ARGS) for name in ENGINE_NAMES]
        assert len({key.digest() for key in keys}) == 1
        assert all("engine" not in key.canonical() for key in keys)

    def test_engine_is_validated(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            JobKey(engine="warp", **self.KEY_ARGS)

    def test_jobspec_engine_field(self):
        from repro.service.jobspec import expand_spec

        keys, _, _ = expand_spec(
            {"designs": "pws:2", "quick": True, "engine": "vector"}
        )
        assert {key.engine for key in keys} == {"vector"}
        base, _, _ = expand_spec({"designs": "pws:2", "quick": True})
        assert [k.digest() for k in keys] == [k.digest() for k in base]
        with pytest.raises(ConfigError, match="unknown engine"):
            expand_spec({"designs": "pws:2", "engine": "warp"})
        with pytest.raises(ConfigError, match="must be a string"):
            expand_spec({"designs": "pws:2", "engine": 3})


class TestResultDigestProperties:
    """result_digest is an engine-invariant payload fingerprint.

    The trust layer's shadow verification compares digests across
    engines, so the digest must be a pure function of the *answer*
    (stats + phases), identical under every engine, and sensitive to a
    perturbation of any single stats field.
    """

    @pytest.mark.parametrize("engine", ["loop", "stream", "vector", "replay"])
    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_digest_engine_invariant(self, design, engine, trace,
                                     loop_reference):
        from repro.verify.digest import payload_digest, result_digest

        ref = loop_reference(design)
        expected = payload_digest(ref["stats"], ref["phases"])
        assert ref["payload_digest"] == expected
        config = scaled_system(ways=design.ways, scale=SCALE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.3, epoch=EPOCH, engine=engine
            )
        assert result_digest(result) == expected

    @pytest.mark.parametrize("design", BENCH_DESIGNS, ids=_design_id)
    def test_digest_sensitive_to_every_stats_field(self, design, trace,
                                                   loop_reference):
        from repro.verify.digest import payload_digest

        import copy

        ref = loop_reference(design)
        base = payload_digest(ref["stats"], ref["phases"])

        def leaves(node, path=()):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from leaves(value, path + (key,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                yield path

        paths = list(leaves(ref["stats"]))
        assert paths  # every design reports at least one counter
        for path in paths:
            perturbed = copy.deepcopy(ref["stats"])
            node = perturbed
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1
            assert payload_digest(perturbed, ref["phases"]) != base, path


def distinct_line_trace(seed: int, n: int = 8000) -> Trace:
    """Mixed read/write trace in which no line appears twice."""
    rng = XorShift64(seed)
    seen = set()
    addrs = []
    writes = bytearray()
    while len(addrs) < n:
        line = rng.next_below(1 << 26)
        if line in seen:
            continue
        seen.add(line)
        addrs.append(line * 64)
        writes.append(1 if rng.next_below(4) == 0 else 0)
    return Trace(f"distinct-{seed}", addrs, writes, instructions_per_access=40.0)


@pytest.fixture(scope="module")
def workload_traces():
    from repro.sim.runner import TraceFactory

    factory = TraceFactory(scaled_system(ways=1, scale=SCALE), 20_000, seed=7)
    return {name: factory.trace_for(name) for name in ("soplex", "mcf")}


class TestMetamorphic:
    """Relations between runs that hold whatever the reference says."""

    @staticmethod
    def _observables(result):
        stats = result.stats
        return (result.hit_rate, stats.writebacks_in, stats.nvm_reads,
                stats.nvm_writes)

    @pytest.mark.parametrize("engine", ["auto", "loop"])
    @pytest.mark.parametrize("kind", ["accord", "gws", "pws", "unbiased"])
    @pytest.mark.parametrize("workload", ["soplex", "mcf"])
    def test_one_way_designs_match_direct_mapped(self, kind, workload, engine,
                                                 workload_traces):
        """With one way there is nothing to steer or predict."""
        trace = workload_traces[workload]
        config = scaled_system(ways=1, scale=SCALE)
        direct = Simulator(config, AccordDesign("direct", ways=1), seed=5).run(
            trace, engine=engine
        )
        one_way = Simulator(config, AccordDesign(kind, ways=1), seed=5).run(
            trace, engine=engine
        )
        assert 0.0 < direct.hit_rate < 1.0 and direct.stats.writebacks_in > 0
        assert self._observables(one_way) == self._observables(direct)

    @pytest.mark.parametrize("design", [
        AccordDesign("direct", ways=1),
        AccordDesign("accord", ways=2),
        AccordDesign("sws", ways=8, hashes=2),
        AccordDesign("gws", ways=2),
        AccordDesign("unbiased", ways=2, replacement="lru"),
        AccordDesign("ca", ways=1),
        AccordDesign("dueling", ways=2),
        AccordDesign("pws", ways=4, dcp="finite"),
    ], ids=_design_id)
    def test_distinct_lines_never_hit(self, design):
        trace = distinct_line_trace(11)
        config = scaled_system(ways=design.ways, scale=SCALE)
        cache = build_dram_cache(design, config)
        accepting = [name for name, eng in ENGINES.items() if eng.supports(cache)]
        assert "loop" in accepting
        for name in accepting:
            result = Simulator(config, design, seed=5).run(
                trace, warmup_fraction=0.0, engine=name, engine_strict=True
            )
            assert result.stats.demand_reads > 0
            assert result.stats.hits == 0, name
