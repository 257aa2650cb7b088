"""Fused multi-config drives: bit-identity against the reference loop.

The vector kernel's config axis carries K same-signature configs in one
pass; each member's result must equal a
:class:`~repro.sim.engines.loop.PerAccessEngine` run of the same design
over the same trace. The loop shares no code with the kernel, so it is
an independent reference. These tests drive both over the same traces —
including phase-resolved runs — and compare the full stats and phase
dictionaries; K=1 against K>=2 agreement rides along as an extra check.
"""

import pytest

from repro.cache.storage import TagStore
from repro.core.accord import AccordDesign
from repro.core.sws import SkewedWaySteering
from repro.params.system import scaled_system
from repro.sim.bench import sweep_designs
from repro.sim.engines import TraceStream, serial_segments
from repro.sim.engines.loop import PerAccessEngine
from repro.sim.engines.multi import (
    FusedRun,
    drive_fused,
    fused_pass_count,
    plan_signature,
)
from repro.sim.engines.replay import SparseReplayEngine
from repro.sim.engines.vector import VectorEngine, build_plan
from repro.sim.runner import TraceFactory
from repro.sim.system import build_dram_cache
from repro.core.protocols import ensure_policy_conformance
from repro.utils.rng import XorShift64

ACCESSES = 5000
SCALE = 1.0 / 128.0
SEED = 7
WARMUP = 0.3


def _design_builder(design):
    def build():
        config = scaled_system(ways=design.ways, scale=SCALE)
        return build_dram_cache(design, config, seed=SEED)

    return build


def _sws_builder(pip, rng_seed=123):
    """Standalone skewed-way steering (the GWS wrapper declines the
    kernel); exercises the candidate-matrix scan path."""

    def build():
        design = AccordDesign(kind="serial", ways=4)
        config = scaled_system(ways=4, scale=SCALE)
        cache = build_dram_cache(design, config, seed=SEED)
        cache.steering = SkewedWaySteering(
            cache.geometry, hashes=2, pip=pip, rng=XorShift64(rng_seed)
        )
        ensure_policy_conformance(cache)
        return cache

    return build


# Same-signature groups: every member shares control flow, so one
# fused pass covers the group. The pws/partial-tag groups exercise the
# m == 2 scan fast path, the ways=4 groups the generic block-gather
# path, and the sws group the candidate-matrix scan.
GROUPS = (
    ("pws-pips", [
        _design_builder(AccordDesign(kind="pws", ways=2, pip=0.2)),
        _design_builder(AccordDesign(kind="pws", ways=2, pip=0.5)),
        _design_builder(AccordDesign(kind="pws", ways=2, pip=0.95)),
    ]),
    ("sws-standalone", [
        _sws_builder(0.9),
        _sws_builder(0.6),
    ]),
    ("unbiased-4way", [
        _design_builder(AccordDesign(kind="unbiased", ways=4)),
        _design_builder(
            AccordDesign(kind="unbiased", ways=4, label="twin")
        ),
    ]),
    ("partial-tag", [
        _design_builder(
            AccordDesign(kind="partial_tag", ways=2, partial_tag_bits=4)
        ),
        _design_builder(
            AccordDesign(kind="partial_tag", ways=2, partial_tag_bits=6)
        ),
    ]),
    ("serial-flow", [
        _design_builder(AccordDesign(kind="serial", ways=4)),
        _design_builder(
            AccordDesign(kind="serial", ways=4, label="twin")
        ),
    ]),
)


def _trace(workload="soplex"):
    config = scaled_system(ways=1, scale=SCALE)
    return TraceFactory(config, ACCESSES, SEED).trace_for(workload)


def _solo(builder, trace, epoch=None, engine=VectorEngine()):
    cache = builder()
    warm = int(len(trace) * WARMUP)
    segments = serial_segments(trace, warm, epoch)
    stream = TraceStream(trace, cache.geometry)
    phases = engine.drive(cache, stream, warm, segments, epoch)
    return cache.stats, phases


def _loop(builder, trace, epoch=None):
    return _solo(builder, trace, epoch, engine=PerAccessEngine())


def _as_dicts(stats, phases):
    return stats.to_dict(), phases.to_dict() if phases is not None else None


def _fused(builders, trace, epoch=None):
    caches = [b() for b in builders]
    plans = [build_plan(c) for c in caches]
    assert all(p is not None for p in plans)
    assert len({plan_signature(p) for p in plans}) == 1
    warm = int(len(trace) * WARMUP)
    runs = [
        FusedRun(
            plan=plan,
            warm=warm,
            segments=serial_segments(trace, warm, epoch),
            epoch=epoch,
        )
        for plan in plans
    ]
    geometry = caches[0].geometry
    return drive_fused(runs, TraceStream(trace, geometry), geometry)


class TestFusedBitIdentity:
    @pytest.mark.parametrize(
        "builders", [g[1] for g in GROUPS], ids=[g[0] for g in GROUPS]
    )
    def test_group_matches_solo_vector(self, builders):
        """Every fused member equals its loop run and its K=1 drive."""
        trace = _trace()
        fused = _fused(builders, trace)
        for builder, member in zip(builders, fused):
            assert member[1] is None
            assert _as_dicts(*member) == _as_dicts(*_loop(builder, trace))
            assert _as_dicts(*member) == _as_dicts(*_solo(builder, trace))

    def test_phase_series_identical(self):
        builders = GROUPS[0][1]
        trace = _trace("mix2")
        fused = _fused(builders, trace, epoch=500)
        for builder, member in zip(builders, fused):
            assert member[1] is not None
            reference = _loop(builder, trace, epoch=500)
            assert _as_dicts(*member) == _as_dicts(*reference)
            solo = _solo(builder, trace, epoch=500)
            assert _as_dicts(*member) == _as_dicts(*solo)

    def test_k1_degenerates_to_solo(self):
        builder = _design_builder(AccordDesign(kind="pws", ways=2, pip=0.5))
        trace = _trace()
        before = fused_pass_count()[0]
        (member,) = _fused([builder], trace)
        assert _as_dicts(*member) == _as_dicts(*_loop(builder, trace))
        assert _as_dicts(*member) == _as_dicts(*_solo(builder, trace))
        # a single run is not a fused pass
        assert fused_pass_count()[0] == before

    def test_fused_pass_counter_advances(self):
        builders = GROUPS[0][1]
        trace = _trace()
        passes, configs = fused_pass_count()
        _fused(builders, trace)
        after_passes, after_configs = fused_pass_count()
        assert after_passes == passes + 1
        assert after_configs == configs + len(builders)


class TestPlanSignature:
    def test_swept_parameter_shares_signature(self):
        """Every point of the sweep grid fuses into one pass."""
        grid = (
            AccordDesign(kind="pws", ways=2, pip=0.2),
            AccordDesign(kind="pws", ways=2, pip=0.9),
        ) + sweep_designs()
        signatures = {
            plan_signature(build_plan(_design_builder(design)()))
            for design in grid
        }
        assert len(signatures) == 1

    def test_control_flow_splits_signature(self):
        pws = build_plan(
            _design_builder(AccordDesign(kind="pws", ways=2))()
        )
        serial = build_plan(
            _design_builder(AccordDesign(kind="serial", ways=2))()
        )
        mru = build_plan(
            _design_builder(AccordDesign(kind="mru", ways=2))()
        )
        signatures = {plan_signature(p) for p in (pws, serial, mru)}
        assert len(signatures) == 3


class TestLazyTagStore:
    def test_vector_build_skips_store_allocation(self):
        design = AccordDesign(kind="pws", ways=2, pip=0.5)
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=SEED)
        assert "store" not in cache.__dict__
        # planning and fused driving never materialize it
        plan = build_plan(cache)
        assert plan is not None
        assert "store" not in cache.__dict__
        _solo(lambda: cache, _trace())
        assert "store" not in cache.__dict__

    def test_scalar_touch_materializes_prefilled_store(self):
        design = AccordDesign(kind="pws", ways=2, pip=0.5)
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=SEED)
        store = cache.store  # first touch materializes
        assert "store" in cache.__dict__
        assert cache.store is store
        reference = TagStore(cache.geometry)
        reference.prefill_junk()
        assert store.dense == reference.dense
        assert store.valid_lines == reference.valid_lines
        assert store.valid_lines == cache.geometry.num_lines
        ways = range(cache.geometry.ways)
        for set_index in range(0, cache.geometry.num_sets, 97):
            for way in ways:
                assert store.tag_at(set_index, way) == reference.tag_at(
                    set_index, way
                )

    def test_replay_plan_skips_store_allocation(self):
        design = AccordDesign(kind="accord", ways=2)
        config = scaled_system(ways=2, scale=SCALE)
        cache = build_dram_cache(design, config, seed=SEED)
        assert SparseReplayEngine().supports(cache)
        assert "store" not in cache.__dict__
