"""Factories assembling complete DRAM-cache designs.

:class:`AccordDesign` names every configuration evaluated in the paper;
:func:`make_design` instantiates a ready-to-run cache for it. ACCORD
itself (:func:`make_accord`) is the coordinated pair

* install steering: GWS (RIT) falling back to PWS(PIP), over the
  candidate set of either all ways (2-way) or SWS's {preferred,
  alternate} pair (N-way), and
* way prediction: GWS (RLT) falling back to the stateless preferred way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.dram_cache import DramCache
from repro.cache.ca_cache import ColumnAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.cache.lookup import (
    LookupResult,
    ParallelLookup,
    SerialLookup,
    WayPredictedLookup,
)
from repro.cache.replacement import make_replacement
from repro.cache.storage import TagStore
from repro.core.dueling import DuelingPwsSteering
from repro.core.gws import DEFAULT_ENTRIES, GangedWayPredictor, GangedWaySteering
from repro.core.prediction import (
    MruPredictor,
    PartialTagPredictor,
    PerfectPredictor,
    RandomPredictor,
    StaticPreferredPredictor,
)
from repro.core.protocols import ensure_policy_conformance
from repro.core.pws import DEFAULT_PIP, ProbabilisticWaySteering
from repro.core.steering import DirectMappedSteering, UnbiasedSteering
from repro.core.sws import SkewedWaySteering
from repro.errors import PolicyError
from repro.utils.rng import XorShift64


class _IdealizedLookup:
    """Oracle lookup for the "Speedup (Idealized)" bound of Figure 1c.

    Finds the line wherever it is with the latency and bandwidth of a
    direct-mapped access — one access, one transfer, hit or miss. Not
    implementable in hardware; used purely as an upper bound.
    """

    kind = None

    def lookup(self, set_index, tag, addr, store: TagStore, candidates, predictor=None):
        way = store.find_way_among(set_index, tag, candidates)
        return LookupResult(
            hit=way is not None, way=way, serialized_accesses=1, transfers=1
        )


#: Every ``kind`` accepted by :func:`make_design`, in docstring order.
DESIGN_KINDS = (
    "direct", "parallel", "serial", "unbiased", "pws", "gws", "accord",
    "sws", "dueling", "mru", "partial_tag", "perfect", "ideal", "ca",
)


@dataclass(frozen=True)
class AccordDesign:
    """A named cache configuration.

    ``kind`` is one of: direct, parallel, serial, unbiased, pws, gws,
    accord, sws, dueling (adaptive-PIP extension), mru, partial_tag,
    perfect, ideal, ca. ``ways`` is the physical associativity;
    ``hashes`` only matters for kind='sws'.
    """

    kind: str
    ways: int = 1
    pip: float = DEFAULT_PIP
    hashes: int = 2
    rit_entries: int = DEFAULT_ENTRIES
    rlt_entries: int = DEFAULT_ENTRIES
    region_size: int = 4096
    replacement: str = "random"
    partial_tag_bits: int = 4
    dcp: str = "exact"  # exact | finite | none (writeback way-info source)
    label: Optional[str] = None

    @property
    def display_name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "sws":
            return f"ACCORD SWS({self.ways},{self.hashes})"
        if self.kind == "accord":
            return f"ACCORD {self.ways}-way"
        return f"{self.kind}-{self.ways}way"


def make_accord(
    geometry: CacheGeometry,
    pip: float = DEFAULT_PIP,
    use_sws: bool = False,
    hashes: int = 2,
    rit_entries: int = DEFAULT_ENTRIES,
    rlt_entries: int = DEFAULT_ENTRIES,
    region_size: int = 4096,
    rng: Optional[XorShift64] = None,
    replacement: str = "random",
) -> DramCache:
    """Build a full ACCORD cache (PWS+GWS, optionally over SWS candidates)."""
    rng = rng or XorShift64(0xACC0BD)
    if use_sws:
        base_steering = SkewedWaySteering(
            geometry, hashes=hashes, pip=pip, rng=rng.fork(1)
        )
    else:
        base_steering = ProbabilisticWaySteering(geometry, pip=pip, rng=rng.fork(1))
    steering = GangedWaySteering(
        geometry, fallback=base_steering, entries=rit_entries, region_size=region_size
    )
    predictor = GangedWayPredictor(
        geometry,
        fallback=StaticPreferredPredictor(geometry),
        entries=rlt_entries,
        region_size=region_size,
    )
    return DramCache(
        geometry,
        lookup=WayPredictedLookup(),
        steering=steering,
        predictor=predictor,
        replacement=make_replacement(replacement, geometry, rng.fork(2)),
    )


def make_design(design: AccordDesign, geometry: CacheGeometry, seed: int = 1):
    """Instantiate the cache object for a named design.

    Returns either a :class:`DramCache` or a
    :class:`ColumnAssociativeCache`; both expose ``read``/``writeback``
    and a ``stats`` attribute.
    """
    cache = _make_design_inner(design, geometry, seed)
    if isinstance(cache, DramCache):
        if design.dcp != "exact":
            # Swap the writeback way-info source before any access happens.
            if design.dcp == "finite":
                from repro.cache.dcp import FiniteDcpDirectory

                cache.dcp = FiniteDcpDirectory()
            elif design.dcp == "none":
                cache.dcp = None
            else:
                raise PolicyError(f"unknown dcp mode {design.dcp!r}")
        # Fail at build time, not mid-run, if any policy breaks its
        # protocol (repro.core.protocols).
        ensure_policy_conformance(cache)
    return cache


def _make_design_inner(design: AccordDesign, geometry: CacheGeometry, seed: int = 1):
    if geometry.ways != design.ways:
        geometry = geometry.with_ways(design.ways)
    rng = XorShift64(seed or 1)
    kind = design.kind

    if kind == "ca":
        return ColumnAssociativeCache(geometry.with_ways(1))

    replacement = make_replacement(design.replacement, geometry, rng.fork(10))

    if kind == "direct":
        if design.ways != 1:
            raise PolicyError("direct-mapped design must have ways=1")
        return DramCache(
            geometry,
            lookup=SerialLookup(),  # one way: identical to any flow
            steering=DirectMappedSteering(geometry),
            predictor=None,
            replacement=replacement,
        )

    if kind == "parallel":
        return DramCache(
            geometry,
            lookup=ParallelLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=None,
            replacement=replacement,
        )

    if kind == "serial":
        return DramCache(
            geometry,
            lookup=SerialLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=None,
            replacement=replacement,
        )

    if kind == "ideal":
        return DramCache(
            geometry,
            lookup=_IdealizedLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=None,
            replacement=replacement,
        )

    if kind == "unbiased":
        return DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=RandomPredictor(geometry, rng.fork(3)),
            replacement=replacement,
        )

    if kind == "pws":
        return DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=ProbabilisticWaySteering(geometry, pip=design.pip, rng=rng.fork(4)),
            predictor=StaticPreferredPredictor(geometry),
            replacement=replacement,
        )

    if kind == "gws":
        # GWS alone: unbiased fallback install, random fallback predict.
        steering = GangedWaySteering(
            geometry,
            fallback=UnbiasedSteering(geometry),
            entries=design.rit_entries,
            region_size=design.region_size,
        )
        predictor = GangedWayPredictor(
            geometry,
            fallback=RandomPredictor(geometry, rng.fork(5)),
            entries=design.rlt_entries,
            region_size=design.region_size,
        )
        return DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=steering,
            predictor=predictor,
            replacement=replacement,
        )

    if kind == "dueling":
        # Extension: ACCORD with set-dueling adaptive PIP (see
        # repro.core.dueling). GWS tables ride on top as usual.
        steering = GangedWaySteering(
            geometry,
            fallback=DuelingPwsSteering(geometry, rng=rng.fork(6)),
            entries=design.rit_entries,
            region_size=design.region_size,
        )
        predictor = GangedWayPredictor(
            geometry,
            fallback=StaticPreferredPredictor(geometry),
            entries=design.rlt_entries,
            region_size=design.region_size,
        )
        return DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=steering,
            predictor=predictor,
            replacement=replacement,
        )

    if kind == "accord":
        return make_accord(
            geometry,
            pip=design.pip,
            use_sws=False,
            rit_entries=design.rit_entries,
            rlt_entries=design.rlt_entries,
            region_size=design.region_size,
            rng=rng,
            replacement=design.replacement,
        )

    if kind == "sws":
        return make_accord(
            geometry,
            pip=design.pip,
            use_sws=True,
            hashes=design.hashes,
            rit_entries=design.rit_entries,
            rlt_entries=design.rlt_entries,
            region_size=design.region_size,
            rng=rng,
            replacement=design.replacement,
        )

    if kind == "mru":
        return DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=MruPredictor(geometry),
            replacement=replacement,
        )

    if kind == "partial_tag":
        return DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=UnbiasedSteering(geometry),
            predictor=PartialTagPredictor(geometry, bits=design.partial_tag_bits),
            replacement=replacement,
        )

    if kind == "perfect":
        cache = DramCache(
            geometry,
            lookup=WayPredictedLookup(),
            steering=UnbiasedSteering(geometry),
            # Placeholder: the oracle needs the store, which only exists
            # after construction; swapped immediately below.
            predictor=StaticPreferredPredictor(geometry),
            replacement=replacement,
        )
        cache.predictor = PerfectPredictor(geometry, cache.store)
        return cache

    raise PolicyError(f"unknown design kind {design.kind!r}")
