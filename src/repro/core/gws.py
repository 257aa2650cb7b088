"""Ganged Way-Steering (GWS), Section IV-C of the paper.

GWS coordinates install decisions *across sets*: all lines of one 4KB
region follow the way decision made for the first line of that region.

Two small tables implement it (Figure 9):

* **Recent Install Table (RIT)** — region -> way of the most recent
  install from that region. On a fill, an RIT hit steers the new line
  to the same way; an RIT miss defers to a fallback steering policy
  (unbiased or PWS) and records the decision.
* **Recent Lookup Table (RLT)** — region -> way where a line of that
  region was last *found*. On an access, an RLT hit predicts that way;
  an RLT miss defers to a fallback predictor (random or PWS preferred).

Each entry is a ~19-bit region tag plus way bits; with the paper's 64+64
entries the total is 320 bytes of SRAM (Table IX).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import ReplacementPolicy
from repro.cache.storage import TagStore
from repro.core.prediction import StaticPreferredPredictor, WayPredictor
from repro.core.steering import InstallSteering, UnbiasedSteering, ways_bits
from repro.errors import PolicyError
from repro.params.system import REGION_SIZE

DEFAULT_ENTRIES = 64
REGION_TAG_BITS = 18  # 18-bit region tag + way + valid = 20 bits/entry
VALID_BITS = 1


class RecentRegionTable:
    """A small fully-associative LRU table mapping region -> way.

    Models both the RIT and the RLT; eviction is LRU over the fixed
    number of entries.
    """

    def __init__(self, entries: int = DEFAULT_ENTRIES):
        if entries <= 0:
            raise PolicyError(f"table needs at least one entry, got {entries}")
        self.entries = entries
        self._table: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, region: int) -> Optional[int]:
        """Return the remembered way for a region, refreshing recency."""
        table = self._table
        way = table.get(region)
        if way is None:
            self.misses += 1
            return None
        table.move_to_end(region)
        self.hits += 1
        return way

    def record(self, region: int, way: int) -> None:
        """Insert or update a region's way, evicting LRU on overflow."""
        table = self._table
        if region in table:
            table[region] = way
            table.move_to_end(region)
        else:
            table[region] = way
            if len(table) > self.entries:
                table.popitem(last=False)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def storage_bits(self, ways: int) -> int:
        return self.entries * (VALID_BITS + REGION_TAG_BITS + max(ways_bits(ways), 1))


class GangedWaySteering(InstallSteering):
    """Install steering that gangs region installs to one way."""

    name = "gws"

    def __init__(
        self,
        geometry: CacheGeometry,
        fallback: Optional[InstallSteering] = None,
        entries: int = DEFAULT_ENTRIES,
        region_size: int = REGION_SIZE,
    ):
        super().__init__(geometry)
        self.fallback = fallback or UnbiasedSteering(geometry)
        if self.fallback.geometry.ways != geometry.ways:
            raise PolicyError("fallback steering has mismatched geometry")
        self.rit = RecentRegionTable(entries)
        self.region_size = region_size
        # Ganging never shrinks the residence set; it is exactly the
        # fallback's, so the static contract passes straight through.
        self.static_candidates = self.fallback.static_candidates

    def candidate_ways(self, set_index: int, tag: int):
        # Ganging does not restrict residency; the fallback's candidate
        # set (all ways, or two for an SWS fallback) still applies.
        return self.fallback.candidate_ways(set_index, tag)

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        region = addr // self.region_size
        ganged = self.rit.lookup(region)
        if ganged is not None:
            candidates = self.static_candidates
            if candidates is None:
                candidates = self.fallback.candidate_ways(set_index, tag)
            if ganged in candidates:
                return ganged
        way = self.fallback.choose_install_way(
            set_index, tag, addr, store, replacement
        )
        self.rit.record(region, way)
        return way

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None:
        # Keep the RIT coherent with the install that actually happened.
        self.rit.record(addr // self.region_size, way)
        self.fallback.on_install(set_index, tag, addr, way)

    def storage_bits(self) -> int:
        return self.rit.storage_bits(self.ways) + self.fallback.storage_bits()


class GangedWayPredictor(WayPredictor):
    """Prediction half of GWS: last-way-seen per recent region (RLT)."""

    name = "gws"

    def __init__(
        self,
        geometry: CacheGeometry,
        fallback: Optional[WayPredictor] = None,
        entries: int = DEFAULT_ENTRIES,
        region_size: int = REGION_SIZE,
    ):
        super().__init__(geometry)
        self.fallback = fallback or StaticPreferredPredictor(geometry)
        self.rlt = RecentRegionTable(entries)
        self.region_size = region_size

    def predict(self, set_index: int, tag: int, addr: int) -> int:
        way = self.rlt.lookup(addr // self.region_size)
        if way is not None:
            return way
        return self.fallback.predict(set_index, tag, addr)

    def on_access(
        self, set_index: int, tag: int, addr: int, way: Optional[int], hit: bool
    ) -> None:
        if hit and way is not None:
            self.rlt.record(addr // self.region_size, way)
        self.fallback.on_access(set_index, tag, addr, way, hit)

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None:
        # A fill is also the most recent sighting of the region.
        self.rlt.record(addr // self.region_size, way)
        self.fallback.on_install(set_index, tag, addr, way)

    def on_evict(self, set_index: int, tag: int, way: int) -> None:
        self.fallback.on_evict(set_index, tag, way)

    def storage_bits(self) -> int:
        return self.rlt.storage_bits(self.ways) + self.fallback.storage_bits()
