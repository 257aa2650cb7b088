"""Column-Associative (hash-rehash) cache baseline (Section VII).

The CA-cache keeps a direct-mapped organization but gives each line two
possible *indices*: the preferred index and a rehash index (preferred
XOR the top index bit). A read checks the preferred index first; on a
tag mismatch it checks the rehash index; a hit there triggers a *swap*
of the two lines so the next access hits first-try. Swaps keep the
effective "prediction" accuracy high (comparable to a 2-way MRU
predictor) but cost bus bandwidth even when associativity brings no
benefit — the behaviour Figure 14 punishes (e.g. sphinx).

The model exposes the same read/writeback interface as
:class:`repro.cache.dram_cache.DramCache` so it plugs into the same
simulator and timing model; its "way prediction" accuracy is the
fraction of hits serviced at the preferred index.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.dcp import DcpDirectory
from repro.cache.dram_cache import AccessOutcome
from repro.cache.geometry import CacheGeometry
from repro.errors import PolicyError
from repro.sim.stats import CacheStats


class ColumnAssociativeCache:
    """Direct-mapped cache with hash-rehash lookup and swapping."""

    def __init__(self, geometry: CacheGeometry, stats: Optional[CacheStats] = None):
        if geometry.ways != 1:
            raise PolicyError("the CA-cache is a direct-mapped organization")
        if geometry.num_sets < 2:
            raise PolicyError("CA-cache needs at least two sets to rehash")
        self.geometry = geometry
        self.stats = stats or CacheStats()
        # One tag per set (direct mapped); -1 means invalid. We store the
        # *line address* rather than the tag because a line's tag differs
        # between its two indices.
        self._lines = {}
        self._dirty = set()
        self.dcp = DcpDirectory()  # presence only; "way" is the index bit
        self._rehash_bit = 1 << (geometry.index_bits - 1)

    # -- index math ---------------------------------------------------------

    def preferred_index(self, addr: int) -> int:
        return self.geometry.set_index(addr)

    def rehash_index(self, addr: int) -> int:
        return self.preferred_index(addr) ^ self._rehash_bit

    # -- demand reads -------------------------------------------------------

    def read(self, addr: int) -> AccessOutcome:
        stats = self.stats
        stats.demand_reads += 1
        line = self.geometry.line_addr(addr)
        first = self.preferred_index(addr)
        second = self.rehash_index(addr)

        stats.first_probes += 1
        stats.cache_read_transfers += 1
        if self._lines.get(first) == line:
            stats.hits += 1
            stats.predicted_hits += 1
            stats.correct_predictions += 1
            return AccessOutcome(True, 0, 1, False, True, True)

        stats.cache_read_transfers += 1
        if self._lines.get(second) == line:
            stats.hit_extra_probes += 1
            stats.hits += 1
            stats.predicted_hits += 1
            self._swap(first, second)
            return AccessOutcome(True, 0, 2, False, True, False)
        stats.miss_extra_probes += 1

        self._fill(addr, line, first, second)
        return AccessOutcome(False, 0, 2, True, True, False)

    def _swap(self, first: int, second: int) -> None:
        """Swap the lines at the two indices (2 reads + 2 writes on the bus).

        The read of both lines already happened during lookup, so the
        charged swap cost is the two write transfers.
        """
        stats = self.stats
        self._lines[first], self._lines[second] = (
            self._lines.get(second),
            self._lines.get(first),
        )
        dirty_first = first in self._dirty
        dirty_second = second in self._dirty
        self._set_dirty(first, dirty_second)
        self._set_dirty(second, dirty_first)
        stats.swap_transfers += 2

    def _set_dirty(self, index: int, dirty: bool) -> None:
        if dirty:
            self._dirty.add(index)
        else:
            self._dirty.discard(index)

    def _fill(self, addr: int, line: int, first: int, second: int) -> None:
        stats = self.stats
        stats.misses += 1
        stats.nvm_reads += 1
        # Classic CA-cache install: the incoming line takes its
        # preferred slot; the displaced occupant moves to the rehash
        # slot (which is also the occupant's own rehash slot, since the
        # two addresses share both index hashes), evicting whatever was
        # there. The displacement is an extra line write on the bus.
        displaced = self._lines.get(first)
        if displaced is not None:
            former = self._lines.get(second)
            if former is not None:
                self._evict(second, former)
            self._lines[second] = displaced
            self._set_dirty(second, first in self._dirty)
            self._dirty.discard(first)
            stats.swap_transfers += 1
        self._lines[first] = line
        self._set_dirty(first, False)
        stats.installs += 1
        stats.cache_write_transfers += 1
        self.dcp.insert(line, 0)

    def _evict(self, index: int, victim_line: int) -> None:
        stats = self.stats
        stats.evictions += 1
        if index in self._dirty:
            stats.dirty_evictions += 1
            stats.nvm_writes += 1
            self._dirty.discard(index)
        self.dcp.remove(victim_line)

    # -- writebacks ---------------------------------------------------------

    def writeback(self, addr: int) -> bool:
        stats = self.stats
        stats.writebacks_in += 1
        line = self.geometry.line_addr(addr)
        for index in (self.preferred_index(addr), self.rehash_index(addr)):
            if self._lines.get(index) == line:
                self._set_dirty(index, True)
                stats.writeback_direct += 1
                stats.cache_write_transfers += 1
                return True
        stats.writeback_bypass += 1
        stats.nvm_writes += 1
        return False

    # -- introspection ------------------------------------------------------

    def contains(self, addr: int) -> bool:
        line = self.geometry.line_addr(addr)
        return (
            self._lines.get(self.preferred_index(addr)) == line
            or self._lines.get(self.rehash_index(addr)) == line
        )

    def storage_overhead_bits(self) -> int:
        return 0  # hash-rehash needs no SRAM metadata (Table X)
