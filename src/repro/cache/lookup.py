"""Lookup flows for a tags-with-data DRAM cache (paper Section II-C).

Each flow decides the probe order on a read and accounts two costs that
the paper's Table I separates:

* **serialized accesses** — dependent DRAM reads: each adds latency;
* **transfers** — 72B tag+data units streamed on the bus: each adds
  bandwidth.

Because all ways of a set share a row buffer (Figure 2b), follow-up
probes after the first are row-buffer hits; the timing model charges
them a shorter latency. The flow records them as ``extra`` accesses.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cache.storage import TagStore
from repro.errors import PolicyError

if TYPE_CHECKING:  # import direction is core -> cache; hints only here
    from repro.core.prediction import WayPredictor


class LookupKind(enum.Enum):
    PARALLEL = "parallel"
    SERIAL = "serial"
    WAY_PREDICTED = "way_predicted"


class LookupResult:
    """Outcome and cost of one read lookup.

    A plain ``__slots__`` class rather than a dataclass: one is
    allocated per access in the hot loop, and slot storage plus a
    hand-written ``__init__`` shaves measurable per-access overhead.
    """

    __slots__ = ("hit", "way", "serialized_accesses", "transfers", "predicted_way")

    def __init__(
        self,
        hit: bool,
        way: Optional[int],
        serialized_accesses: int,
        transfers: int,
        predicted_way: Optional[int] = None,
    ):
        self.hit = hit
        self.way = way
        self.serialized_accesses = serialized_accesses
        self.transfers = transfers
        self.predicted_way = predicted_way

    @property
    def prediction_correct(self) -> bool:
        """True when a predicted first probe found the line."""
        return self.hit and self.predicted_way is not None and self.way == self.predicted_way

    def __repr__(self) -> str:
        return (
            f"LookupResult(hit={self.hit!r}, way={self.way!r}, "
            f"serialized_accesses={self.serialized_accesses!r}, "
            f"transfers={self.transfers!r}, predicted_way={self.predicted_way!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LookupResult):
            return NotImplemented
        return (
            self.hit == other.hit
            and self.way == other.way
            and self.serialized_accesses == other.serialized_accesses
            and self.transfers == other.transfers
            and self.predicted_way == other.predicted_way
        )


class ParallelLookup:
    """Stream all candidate ways with one access (Figure 3a).

    One row activation serves the whole set, so latency is a single
    access, but every candidate way is transferred — N transfers per
    read, hit or miss.
    """

    kind = LookupKind.PARALLEL

    def lookup(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        candidates: Sequence[int],
        predictor: Optional["WayPredictor"] = None,
    ) -> LookupResult:
        way = store.find_way_among(set_index, tag, candidates)
        return LookupResult(
            hit=way is not None,
            way=way,
            serialized_accesses=1,
            transfers=len(candidates),
        )


class SerialLookup:
    """Probe candidate ways one-by-one in index order (Figure 3b).

    A hit in the k-th probed way costs k dependent accesses and k
    transfers ((N+1)/2 on average); a miss costs N of each.
    """

    kind = LookupKind.SERIAL

    def lookup(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        candidates: Sequence[int],
        predictor: Optional["WayPredictor"] = None,
    ) -> LookupResult:
        probes = 0
        for way in candidates:
            probes += 1
            if store.tag_at(set_index, way) == tag:
                return LookupResult(
                    hit=True, way=way, serialized_accesses=probes, transfers=probes
                )
        return LookupResult(
            hit=False, way=None, serialized_accesses=probes, transfers=probes
        )


class WayPredictedLookup:
    """Probe a predicted way first, then the rest serially (Figure 3c).

    With an accurate predictor, hits cost one access/transfer like a
    direct-mapped cache; misses still probe every candidate way
    (miss confirmation) — the cost SWS attacks by shrinking the
    candidate set to two.
    """

    kind = LookupKind.WAY_PREDICTED

    def lookup(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        candidates: Sequence[int],
        predictor: Optional["WayPredictor"] = None,
    ) -> LookupResult:
        if predictor is None:
            raise PolicyError("way-predicted lookup requires a predictor")
        predicted = predictor.predict(set_index, tag, addr)
        if predicted not in candidates:
            # A stateful predictor (e.g. MRU) may name a way the steering
            # policy forbids for this tag; probe a legal way instead.
            predicted = candidates[0]
        probes = 1
        if store.tag_at(set_index, predicted) == tag:
            return LookupResult(
                hit=True,
                way=predicted,
                serialized_accesses=1,
                transfers=1,
                predicted_way=predicted,
            )
        for way in candidates:
            if way == predicted:
                continue
            probes += 1
            if store.tag_at(set_index, way) == tag:
                return LookupResult(
                    hit=True,
                    way=way,
                    serialized_accesses=probes,
                    transfers=probes,
                    predicted_way=predicted,
                )
        return LookupResult(
            hit=False,
            way=None,
            serialized_accesses=probes,
            transfers=probes,
            predicted_way=predicted,
        )


def make_lookup(kind: LookupKind):
    """Factory for lookup flows."""
    if kind is LookupKind.PARALLEL:
        return ParallelLookup()
    if kind is LookupKind.SERIAL:
        return SerialLookup()
    if kind is LookupKind.WAY_PREDICTED:
        return WayPredictedLookup()
    raise PolicyError(f"unknown lookup kind {kind!r}")
