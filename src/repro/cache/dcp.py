"""DRAM-cache presence (DCP) directory with way information.

The paper extends the DCP scheme (presence bits kept alongside L3
lines) to also record *which way* a line occupies, so writebacks to a
set-associative DRAM cache need no probe (Section II-B.3). We model the
directory as an exact map from resident line address to way; its
storage lives in the L3 tag array, so it contributes no DRAM-cache SRAM
overhead.
"""

from __future__ import annotations

from typing import Dict, Optional


class DcpDirectory:
    """Exact line-address -> way map kept coherent by the DRAM cache.

    ``authoritative`` is True: a miss in this directory means the line
    is definitely not in the DRAM cache, so writebacks may bypass
    straight to NVM without probing.
    """

    authoritative = True

    def __init__(self):
        self._way_of: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._way_of)

    def lookup(self, line_addr: int) -> Optional[int]:
        """Way holding the line, or None if not resident."""
        self.lookups += 1
        way = self._way_of.get(line_addr)
        if way is not None:
            self.hits += 1
        return way

    def insert(self, line_addr: int, way: int) -> None:
        self._way_of[line_addr] = way

    def remove(self, line_addr: int) -> None:
        self._way_of.pop(line_addr, None)

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class FiniteDcpDirectory:
    """Capacity-limited DCP: way bits co-located with L3 lines.

    The paper stores DCP (presence + way) bits alongside lines in the
    L3, so the information exists only while the line is L3-resident.
    This model keeps an LRU-bounded map: entries beyond ``capacity``
    fall off, after which a writeback no longer knows its way and must
    probe (``authoritative = False`` tells the cache a miss here is
    inconclusive).
    """

    authoritative = False

    def __init__(self, capacity: int = 128 * 1024):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        from collections import OrderedDict

        self.capacity = capacity
        self._way_of: "OrderedDict[int, int]" = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.capacity_evictions = 0

    def __len__(self) -> int:
        return len(self._way_of)

    def lookup(self, line_addr: int) -> Optional[int]:
        """Way holding the line, or None (absent OR forgotten)."""
        self.lookups += 1
        way = self._way_of.get(line_addr)
        if way is None:
            return None
        self._way_of.move_to_end(line_addr)
        self.hits += 1
        return way

    def insert(self, line_addr: int, way: int) -> None:
        if line_addr in self._way_of:
            self._way_of.move_to_end(line_addr)
        self._way_of[line_addr] = way
        while len(self._way_of) > self.capacity:
            self._way_of.popitem(last=False)
            self.capacity_evictions += 1

    def remove(self, line_addr: int) -> None:
        self._way_of.pop(line_addr, None)

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
