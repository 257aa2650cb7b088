"""The vector engine: whole-trace simulation as numpy array recurrences.

The functional model's state is strictly set-local for the designs
:func:`build_plan` accepts: every quantity consulted on an access to
set *s* — resident tags, dirty bits, MRU/partial-tag
predictor state, replacement state (LRU stamps, NRU reference bits,
SRRIP RRPVs), per-set counter-based random streams — depends only on
the *prior accesses to s*. That makes the trace a bundle of independent
per-set recurrences, which one kernel (:func:`_simulate`) evaluates
breadth-first, for K configs at once:

1. **Plan** (cached per trace × geometry): stable-sort accesses by set,
   compute each access's *rank* (how many earlier accesses touch the
   same set), and group accesses by rank. Within one rank group every
   access touches a distinct set.
2. **Precompute** per-access constants in single vectorized passes:
   tag hashes and preferred ways, SWS candidate matrices, partial-tag
   hashes, per-set RNG stream seeds (:func:`repro.utils.rng.mix64_array`
   and friends are bit-identical array forms of the scalar streams).
3. **Step** over ranks: rank *k* processes the k-th access of every set
   simultaneously as a handful of gather/compare/scatter array ops —
   lookup scan over the candidate ways, flow costs, install-way draws
   or replacement victims, evict/install state updates, writeback
   absorption. Because the sets in one step are distinct, all
   scatters are conflict-free.
4. **Reduce**: the per-access outcome arrays (in original trace order)
   are sliced into the measurement window and epoch segments to produce
   :class:`~repro.sim.stats.CacheStats` and
   :class:`~repro.sim.phases.PhaseSeries` bit-identical to the
   per-access reference loop (asserted by ``tests/test_engines.py``).

Per-config state (resident tags, dirty bits, predictor and replacement
state, draw counters) carries a trailing **config axis** of length K;
everything config-independent is computed once and broadcast. A solo
:class:`VectorEngine` drive is the ``K == 1`` case, and
:func:`repro.sim.engines.multi.drive_fused` hands the same kernel K
configs that share a control-flow signature.

The engine assumes a *freshly built* cache (junk-prefilled dense tag
store, empty DCP, build-time predictor and replacement state): it
replays the run against its own state arrays initialized to those
build-time defaults, and never reads or writes the cache's actual
store.
:meth:`repro.sim.system.Simulator.run` upholds the contract by
rebuilding the cache before a repeat run; the shard workers always
build fresh caches. ``supports`` declines anything else: non-dense or
unprefilled stores, registered observers, policy stacks outside the
exact types :func:`build_plan` accepts (subclasses do not inherit
eligibility).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.dcp import DcpDirectory
from repro.cache.dram_cache import has_fresh_store
from repro.cache.lookup import ParallelLookup, SerialLookup, WayPredictedLookup
from repro.cache.replacement import (
    LruReplacement,
    NruReplacement,
    RandomReplacement,
    RripReplacement,
)
from repro.cache.storage import JUNK_TAG
from repro.core.prediction import (
    MruPredictor,
    PartialTagPredictor,
    PerfectPredictor,
    RandomPredictor,
    StaticPreferredPredictor,
)
from repro.core.pws import ProbabilisticWaySteering
from repro.core.steering import (
    DirectMappedSteering,
    UnbiasedSteering,
    _HASH_MULT,
    ways_bits,
)
from repro.core.sws import SkewedWaySteering, _TAG_SCAN_GROUPS
from repro.errors import SimulationError
from repro.sim.engines.base import Segment
from repro.sim.phases import PhaseSample, PhaseSeries
from repro.sim.stats import CacheStats
from repro.utils.bitops import mask
from repro.utils.rng import mix64_array, set_stream_seeds

_U64 = np.uint64


class _Plan:
    """Classification of one cache into kernel flavors + RNG bases."""

    __slots__ = (
        "flow", "steer", "pred", "dcp_exact", "ways", "num_sets",
        "hashes", "pip", "ptag_bits", "ptag_mask",
        "repl", "repl_update", "max_rrpv",
        "repl_base", "steer_base", "pred_base",
    )


#: Exact replacement types the kernel models, by plan flavor.
_REPLACEMENTS = {
    RandomReplacement: "random",
    LruReplacement: "lru",
    NruReplacement: "nru",
    RripReplacement: "rrip",
}


def build_plan(cache) -> Union[_Plan, str]:
    """Classify ``cache`` for the kernel, or name what it cannot run.

    On decline, returns the rejected role: ``"cache"`` (no access path,
    observers attached, or a non-fresh store), ``"lookup"``,
    ``"steering"``, ``"predictor"``, ``"replacement"`` or ``"dcp"``.
    This is the only vector-eligibility declaration, and set-sharding
    eligibility too (:func:`repro.sim.shard.shard_block`): every stack
    it accepts keeps all its state set-local.

    Dispatch is on *exact* types: a subclass may override any method,
    so inheriting from an accepted policy does not make the subclass's
    behavior one the kernel reproduces.
    """
    path = getattr(cache, "path", None)
    if path is None or path.observers or not has_fresh_store(cache):
        return "cache"
    geometry = cache.geometry
    plan = _Plan()
    plan.ways = geometry.ways
    plan.num_sets = geometry.num_sets

    lookup_type = type(cache.lookup)
    if lookup_type is ParallelLookup:
        plan.flow = "parallel"
    elif lookup_type is SerialLookup:
        plan.flow = "serial"
    elif lookup_type is WayPredictedLookup:
        plan.flow = "predicted"
    else:
        from repro.core.accord import _IdealizedLookup

        if lookup_type is not _IdealizedLookup:
            return "lookup"
        plan.flow = "ideal"

    steering = cache.steering
    steering_type = type(steering)
    plan.hashes = 0
    plan.pip = 1.0
    plan.steer_base = 0
    if steering_type is DirectMappedSteering:
        plan.steer = "direct"
    elif steering_type is UnbiasedSteering:
        plan.steer = "all"
    elif steering_type is ProbabilisticWaySteering:
        plan.steer = "pws"
        plan.pip = steering.pip
        plan.steer_base = steering._rng._base
    elif steering_type is SkewedWaySteering:
        plan.steer = "sws"
        plan.hashes = steering.hashes
        plan.pip = steering.pip
        plan.steer_base = steering._pws._rng._base
    else:
        return "steering"

    predictor = cache.predictor
    plan.pred_base = 0
    plan.ptag_bits = 0
    plan.ptag_mask = 0
    if predictor is None:
        plan.pred = None
    else:
        predictor_type = type(predictor)
        if predictor_type is StaticPreferredPredictor:
            plan.pred = "static"
        elif predictor_type is RandomPredictor:
            plan.pred = "random"
            plan.pred_base = predictor._rng._base
        elif predictor_type is MruPredictor:
            plan.pred = "mru"
        elif predictor_type is PartialTagPredictor:
            plan.pred = "ptag"
            plan.ptag_bits = predictor.bits
            plan.ptag_mask = predictor._mask
        elif predictor_type is PerfectPredictor:
            plan.pred = "perfect"
        else:
            return "predictor"
    # A predictor attached to a non-predicted flow still learns from
    # accesses; the kernel only models predictor state under the
    # predicted flow, so decline the (never built in-repo) combination.
    if (plan.flow == "predicted") != (plan.pred is not None):
        return "predictor"

    replacement = cache.replacement
    plan.repl = _REPLACEMENTS.get(type(replacement))
    if plan.repl is None:
        return "replacement"
    plan.repl_update = replacement.update_transfers_on_hit
    plan.repl_base = 0 if plan.repl == "lru" else replacement._rng._base
    plan.max_rrpv = replacement.max_rrpv if plan.repl == "rrip" else 0

    dcp = cache.dcp
    if dcp is None:
        plan.dcp_exact = False
    elif type(dcp) is DcpDirectory:
        if len(dcp) != 0:
            return "dcp"  # fresh-cache contract: nothing learned yet
        plan.dcp_exact = True
    else:
        return "dcp"
    return plan


# -- trace-order plan (sort by set, group by rank) ---------------------------

#: id(trace) -> (weakref, {(offset_bits, index_bits): (sets, tags,
#: writes, steps)}). Keyed by id with a weakref eviction callback
#: (Trace is unhashable); holds the sorted step structure that costs an
#: argsort to build and is shared by every design and repeat run over
#: the same trace.
_TRACE_PLANS: dict = {}

#: cache_token -> per-trace plan dict, for traces that carry a content
#: identity (loaded from the trace cache or attached from a shared
#: memory segment): distinct Trace objects with the same token are
#: byte-identical by construction, so their plans are interchangeable.
#: Bounded LRU — entries pin the column arrays.
_TOKEN_PLANS: "OrderedDict[str, dict]" = OrderedDict()
_TOKEN_PLAN_LIMIT = 8

#: Process-local count of sorted step-structure builds (one per trace ×
#: geometry that missed every memo). The plan-reuse tests assert a
#: same-trace sweep pays this exactly once per worker.
_PLAN_BUILDS = 0


def plan_build_count() -> int:
    """Cumulative step-plan builds in this process (monotonic)."""
    return _PLAN_BUILDS


def _plans_for(trace) -> dict:
    token = getattr(trace, "cache_token", None)
    if token is not None:
        per_trace = _TOKEN_PLANS.get(token)
        if per_trace is None:
            per_trace = {}
            _TOKEN_PLANS[token] = per_trace
            while len(_TOKEN_PLANS) > _TOKEN_PLAN_LIMIT:
                _TOKEN_PLANS.popitem(last=False)
        else:
            _TOKEN_PLANS.move_to_end(token)
        return per_trace
    tid = id(trace)
    record = _TRACE_PLANS.get(tid)
    if record is not None and record[0]() is trace:
        return record[1]
    per_trace = {}

    def _evict(_ref, tid=tid):
        _TRACE_PLANS.pop(tid, None)

    _TRACE_PLANS[tid] = (weakref.ref(trace, _evict), per_trace)
    return per_trace


def _sort_steps(
    sets: np.ndarray, writes: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Group access indices by within-set rank; split reads/writebacks.

    Returns one ``(read_rows, writeback_rows)`` pair per rank. All rows
    of one rank touch pairwise-distinct sets, so a step's state updates
    never collide; processing ranks in order preserves each set's own
    access order, which is the only order the set-local recurrences
    depend on.
    """
    n = len(sets)
    if n == 0:
        return []
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_sets[1:] != sorted_sets[:-1]
    group_starts = np.flatnonzero(new_group)
    group_lengths = np.diff(np.append(group_starts, n))
    ranks_sorted = np.arange(n, dtype=np.int64) - np.repeat(
        group_starts, group_lengths
    )
    rank = np.empty(n, dtype=np.int64)
    rank[order] = ranks_sorted
    rank_order = np.argsort(rank, kind="stable")
    counts = np.bincount(rank)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    steps = []
    for k in range(len(counts)):
        rows = rank_order[offsets[k]:offsets[k + 1]]
        is_wb = writes[rows] != 0
        steps.append((rows[~is_wb], rows[is_wb]))
    return steps


def _stream_arrays(stream, geometry):
    """(sets, tags, writes, steps) for a stream, cached per trace."""
    global _PLAN_BUILDS
    trace = getattr(stream, "trace", None)
    if trace is None:
        sets = np.asarray(stream.set_indices, dtype=np.int64)
        tags = np.asarray(stream.tags, dtype=np.int64)
        writes = np.asarray(stream.writes, dtype=np.uint8)
        _PLAN_BUILDS += 1
        return sets, tags, writes, _sort_steps(sets, writes)
    key = (geometry.offset_bits, geometry.index_bits)
    per_trace = _plans_for(trace)
    entry = per_trace.get(key)
    if entry is None:
        lines = trace.numpy_addrs() >> geometry.offset_bits
        sets = lines & ((1 << geometry.index_bits) - 1)
        tags = lines >> geometry.index_bits
        writes = trace.numpy_writes()
        _PLAN_BUILDS += 1
        entry = (sets, tags, writes, _sort_steps(sets, writes))
        per_trace[key] = entry
    return entry


# -- vectorized policy functions ---------------------------------------------


def _tag_hash_array(tags: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.steering.tag_hash` (uint64 out)."""
    t = tags.astype(_U64, copy=False)
    return ((t + _U64(1)) * _U64(_HASH_MULT)) >> _U64(32)


def _skewed_matrix(
    hashed: np.ndarray, pref: np.ndarray, ways: int, hashes: int
) -> np.ndarray:
    """Vectorized :func:`repro.core.sws.skewed_candidates` per access.

    Column 0 is the preferred way; further columns collect distinct
    alternates from successive tag-hash bit groups, then the scalar
    code's deterministic fill sequence. Row *i* equals
    ``skewed_candidates(tags[i], ways, hashes)``.
    """
    n = len(hashed)
    bits = ways_bits(ways)
    group_mask = mask(bits)
    cand_matrix = np.zeros((n, hashes), dtype=np.int64)
    cand_matrix[:, 0] = pref
    filled = np.ones(n, dtype=np.int64)
    for group in range(1, _TAG_SCAN_GROUPS + 1):
        if bool((filled >= hashes).all()):
            return cand_matrix
        cand = ((hashed >> _U64(group * bits)) & _U64(group_mask)).astype(
            np.int64
        )
        member = np.zeros(n, dtype=bool)
        for j in range(hashes):
            member |= (j < filled) & (cand_matrix[:, j] == cand)
        take = np.flatnonzero(~member & (filled < hashes))
        if len(take):
            cand_matrix[take, filled[take]] = cand[take]
            filled[take] += 1
    # Deterministic fill for degenerate tags (mirrors the scalar loop:
    # probe starts at pref ^ mask and walks (probe + 1) % ways).
    probe = (pref ^ group_mask).astype(np.int64)
    for _ in range(ways + hashes):
        if bool((filled >= hashes).all()):
            return cand_matrix
        member = np.zeros(n, dtype=bool)
        for j in range(hashes):
            member |= (j < filled) & (cand_matrix[:, j] == probe)
        take = np.flatnonzero(~member & (filled < hashes))
        if len(take):
            cand_matrix[take, filled[take]] = probe[take]
            filled[take] += 1
        probe = (probe + 1) % ways
    raise SimulationError("skewed candidate fill did not converge")


# -- the kernel --------------------------------------------------------------


class _Outcome:
    """Per-access result columns, in original stream order."""

    __slots__ = (
        "hit", "serialized", "transfers", "correct", "victim_dirty",
        "wb_absorbed", "wb_probes",
    )

    def __init__(self, n: int):
        self.hit = np.zeros(n, dtype=bool)
        self.serialized = np.zeros(n, dtype=np.int64)
        self.transfers = np.zeros(n, dtype=np.int64)
        self.correct = np.zeros(n, dtype=bool)
        self.victim_dirty = np.zeros(n, dtype=bool)
        self.wb_absorbed = np.zeros(n, dtype=bool)
        self.wb_probes = np.zeros(n, dtype=np.int64)


#: Compact-set remaps memoized per stream-array identity. The ``sets``
#: array itself comes from the per-trace plan memo (:func:`_stream_arrays`),
#: so its object identity is stable across the runs of one trace; the
#: entry keeps a reference so an ``id`` reuse can never alias a dead array.
_COMPACT_MEMO: "OrderedDict[int, Tuple]" = OrderedDict()
_COMPACT_MEMO_LIMIT = 8


def _compact_map(sets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(sets, return_inverse=True)``, memoized by identity."""
    key = id(sets)
    entry = _COMPACT_MEMO.get(key)
    if entry is not None and entry[0] is sets:
        _COMPACT_MEMO.move_to_end(key)
        return entry[1], entry[2]
    touched, compact = np.unique(sets, return_inverse=True)
    _COMPACT_MEMO[key] = (sets, touched, compact)
    while len(_COMPACT_MEMO) > _COMPACT_MEMO_LIMIT:
        _COMPACT_MEMO.popitem(last=False)
    return touched, compact


def _simulate(
    plans: Sequence[_Plan], sets, tags, writes, steps
) -> List[_Outcome]:
    """Run the per-set recurrences of K configs in one pass.

    ``plans`` must share one control-flow signature
    (:func:`repro.sim.engines.multi.plan_signature`); a solo run is
    ``K == 1``. Shared quantities stay 1-D ``(rows,)`` and broadcast,
    per-config quantities carry a trailing config axis, and the
    divergent scatters (miss fills, writeback absorption) go through
    ``np.nonzero`` pair lists into flattened per-config state. Draw
    counter advancement is masked — a config consumes a stream value
    only where the scalar model would — so every config's RNG sequence
    is the one its scalar run draws.

    State is allocated over the trace's *touched* sets only: set
    indices are remapped to compact ids (``np.unique``) so the
    resident/dirty/counter arrays scale with the trace footprint rather
    than the geometry (a short trace touches a few tens of thousands of
    a scaled geometry's hundreds of thousands of sets). Untouched sets
    hold junk tags and zero counters in the scalar model and are never
    read, so dropping them changes nothing; the per-access RNG stream
    seeds are still derived from the *original* set indices, keeping
    every draw bit-identical.
    """
    K = len(plans)
    p0 = plans[0]
    n = len(sets)
    ways = p0.ways
    flow = p0.flow
    steer = p0.steer
    pred = p0.pred
    repl = p0.repl

    # Config-last layout: every per-access quantity is ``(rows, K)`` and
    # every state array is ``(slots, K)``, so all gathers and scatters
    # indexed by a row list touch contiguous K-wide strips (one memcpy
    # per row) instead of K strided columns. Outcomes are accumulated
    # ``(n, K)`` — probe counts as int16, large enough for any value up
    # to ``ways + 2`` — and transposed/widened to int64 once at decode
    # time.
    # ``transfers`` equals ``serialized`` for every flow except
    # parallel; decode shares the array rather than accumulating both.
    hit = np.zeros((n, K), dtype=bool)
    serialized_out = np.zeros((n, K), dtype=np.int16)
    transfers_out = (
        np.zeros((n, K), dtype=np.int16) if flow == "parallel" else None
    )
    correct = np.zeros((n, K), dtype=bool)
    victim_dirty = np.zeros((n, K), dtype=bool)
    wb_absorbed = np.zeros((n, K), dtype=bool)
    wb_probes = np.zeros((n, K), dtype=np.int16)

    def decode() -> List[_Outcome]:
        serializedT = np.ascontiguousarray(serialized_out.T).astype(np.int64)
        if transfers_out is None:
            transfersT = serializedT
        else:
            transfersT = np.ascontiguousarray(
                transfers_out.T
            ).astype(np.int64)
        probesT = np.ascontiguousarray(wb_probes.T).astype(np.int64)
        hitT = np.ascontiguousarray(hit.T)
        correctT = np.ascontiguousarray(correct.T)
        victimT = np.ascontiguousarray(victim_dirty.T)
        absorbedT = np.ascontiguousarray(wb_absorbed.T)
        outs = []
        for k in range(K):
            out = _Outcome.__new__(_Outcome)
            out.hit = hitT[k]
            out.serialized = serializedT[k]
            out.transfers = transfersT[k]
            out.correct = correctT[k]
            out.victim_dirty = victimT[k]
            out.wb_absorbed = absorbedT[k]
            out.wb_probes = probesT[k]
            outs.append(out)
        return outs

    if n == 0:
        return decode()

    if steer == "sws":
        m = p0.hashes
    elif steer == "direct":
        m = 1
    else:
        m = ways

    # Compact-set remap: per-config state covers touched sets only.
    # RNG seeds below keep using the original ``sets`` indices.
    touched, compact = _compact_map(sets)
    num_slots = len(touched)
    slot0 = compact * ways

    need_pref = (
        steer in ("pws", "sws")
        or (steer == "direct" and ways > 1)
        or pred in ("static", "perfect", "ptag")
    )
    pref = None
    if need_pref:
        pref = (_tag_hash_array(tags) & _U64(ways - 1)).astype(np.int64)

    cand_matrix = None
    if steer == "sws":
        cand_matrix = _skewed_matrix(
            _tag_hash_array(tags), pref, ways, p0.hashes
        )
    elif steer == "direct":
        cand0 = pref if ways > 1 else np.zeros(n, dtype=np.int64)
        cand_matrix = cand0[:, None]

    wanted = None
    if pred == "ptag":
        # The partial-tag layout is per-config data (bits are not part
        # of the signature), so the wanted-tag matrix gets a config axis.
        hashed_tags = mix64_array(tags.astype(_U64))
        wanted = np.stack(
            [
                (
                    (hashed_tags & _U64(p.ptag_mask))
                    | _U64(1 << p.ptag_bits)
                ).astype(np.int64)
                for p in plans
            ],
            axis=1,
        )

    def config_seeds(attr: str) -> np.ndarray:
        """Per-set stream seeds: ``(n,)`` when every config shares the
        stream base (the common sweep case — bases derive from the run
        seed, not the swept parameter), ``(n, K)`` otherwise."""
        bases = [getattr(p, attr) for p in plans]
        memo = {}
        for b in bases:
            if b not in memo:
                memo[b] = set_stream_seeds(b, sets)
        if len(memo) == 1:
            return memo[bases[0]]
        return np.stack([memo[b] for b in bases], axis=1)

    def seed_rows(seeds, rows):
        """Seed block broadcastable against ``(len(rows), K)``."""
        return seeds[rows][:, None] if seeds.ndim == 1 else seeds[rows]

    def seed_pairs(seeds, prows, kk):
        """Seeds for a ``(row, config)`` pair list."""
        return seeds[prows] if seeds.ndim == 1 else seeds[prows, kk]

    # Draw counters live in the seeds' uint64 domain so the per-draw
    # ``seed + count`` additions need no widening casts.
    repl_seeds = repl_count = None
    if steer == "all" and repl != "lru":
        repl_seeds = config_seeds("repl_base")
        repl_count = np.zeros((num_slots, K), dtype=_U64)
    steer_seeds = steer_count = None
    if steer in ("pws", "sws") and m > 1:
        steer_seeds = config_seeds("steer_base")
        steer_count = np.zeros((num_slots, K), dtype=_U64)
    pred_seeds = pred_count = None
    if pred == "random":
        pred_seeds = config_seeds("pred_base")
        pred_count = np.zeros((num_slots, K), dtype=_U64)

    tags_state = np.full((num_slots * ways, K), JUNK_TAG, dtype=np.int64)
    dirty = np.zeros((num_slots * ways, K), dtype=np.uint8)
    mru = np.zeros((num_slots, K), dtype=np.int64) if pred == "mru" else None
    ptags = (
        np.zeros((num_slots * ways, K), dtype=np.int64)
        if pred == "ptag"
        else None
    )
    # Per-slot replacement state — LRU stamps, NRU reference bits or
    # SRRIP RRPVs — exists only where the policy picks the victim
    # (unbiased steering); under pws/sws/direct steering the state is
    # never read, so the policy only changes the per-hit charge.
    repl_flat = None
    if steer == "all" and repl != "random":
        if repl == "lru":
            # Stamp = trace row + 1: within one set it orders touches
            # exactly as the scalar clock does. Junk slots tie at 0.
            repl_state = np.zeros((num_slots * ways, K), dtype=np.int64)
        elif repl == "nru":
            repl_state = np.zeros((num_slots * ways, K), dtype=np.int8)
        else:  # rrip: every slot starts at the distant prediction
            repl_state = np.full(
                (num_slots * ways, K), p0.max_rrpv, dtype=np.int8
            )
        repl_flat = repl_state.reshape(-1)
    # on_hit / on_install values: NRU sets the reference bit; SRRIP
    # promotes a hit to 0 and inserts at max - 1 (LRU stamps the row).
    hit_mark = 1 if repl == "nru" else 0
    install_mark = 1 if repl == "nru" else p0.max_rrpv - 1

    # Flat views for the pair-list scatters (C-contiguous by construction;
    # element (slot, k) lives at flat index slot * K + k).
    tags_flat = tags_state.reshape(-1)
    dirty_flat = dirty.reshape(-1)
    ptags_flat = ptags.reshape(-1) if ptags is not None else None

    way_range = np.arange(m, dtype=np.int64)
    all_ways = np.arange(ways, dtype=np.int64)

    def touch(slots, touch_rows, mark):
        """Replacement ``on_hit``/``on_install`` at flat ``slots``."""
        repl_flat[slots] = touch_rows + 1 if repl == "lru" else mark

    def victims(base_p, miss_rows, sets_p, kk):
        """The replacement policy's victim way per miss pair.

        Candidates are all ways of the set, every one valid (junk
        prefill). NRU and SRRIP consume exactly one draw of the set's
        stream per victim, however many ways are eligible.
        """
        flat = (base_p[:, None] + all_ways) * K + kk[:, None]
        block = repl_flat[flat]
        if repl == "lru":
            return block.argmin(axis=1)  # first least-recently touched
        if repl == "nru":
            eligible = block == 0
            rollover = ~eligible.any(axis=1)
            if rollover.any():
                # Every way referenced: clear the set, draw over all.
                repl_flat[flat[rollover]] = 0
                eligible[rollover] = True
        else:  # rrip: age until some way is stale, then draw among them
            block += p0.max_rrpv - block.max(axis=1, keepdims=True)
            repl_flat[flat] = block
            eligible = block == p0.max_rrpv
        u = mix64_array(
            seed_pairs(repl_seeds, miss_rows, kk) + repl_count[sets_p, kk]
        )
        repl_count[sets_p, kk] += 1
        pick = (u % eligible.sum(axis=1).astype(_U64)).astype(np.int64)
        return (np.cumsum(eligible, axis=1) > pick[:, None]).argmax(axis=1)

    def scan(rows, row_tags, base):
        """First candidate position/way holding the tag, per config.

        One block gather pulls all m candidate slots of every row —
        ``(rows, m, K)`` — and ``argmax`` over the candidate axis finds
        the first match (a tag resides in at most one way of a set, so
        "first" and "only" coincide). ``way_pos``/``way_phys`` are
        meaningless where ``found`` is False; every consumer masks.
        ``m == 2`` (the common associativity) takes a flat path: two
        2-D gathers and a select beat the 3-D gather + argmax.
        """
        if m == 2:
            wide = row_tags[:, None]
            if cand_matrix is None:
                eq0 = tags_state[base] == wide
                eq1 = tags_state[base + 1] == wide
                way_phys = way_pos = np.where(eq0, 0, 1)
            else:
                c0 = cand_matrix[rows, 0]
                c1 = cand_matrix[rows, 1]
                eq0 = tags_state[base + c0] == wide
                eq1 = tags_state[base + c1] == wide
                way_pos = np.where(eq0, 0, 1)
                way_phys = np.where(eq0, c0[:, None], c1[:, None])
            return eq0 | eq1, way_pos, way_phys
        if cand_matrix is not None:
            cand_rows = cand_matrix[rows]
            block = tags_state[base[:, None] + cand_rows]
        else:
            cand_rows = None
            block = tags_state[base[:, None] + way_range]
        eq = block == row_tags[:, None, None]
        found = eq.any(axis=1)
        way_pos = eq.argmax(axis=1)
        if cand_rows is None:
            way_phys = way_pos
        else:
            way_phys = cand_rows[
                np.arange(len(rows))[:, None], way_pos
            ]
        return found, way_pos, way_phys

    two_pow_64 = float(2.0 ** 64)
    pip_arr = np.array([p.pip for p in plans], dtype=np.float64)

    def step_reads(rows):
        shape = (len(rows), K)
        row_sets = compact[rows]
        row_tags = tags[rows]
        base = slot0[rows]
        found, way_pos, way_phys = scan(rows, row_tags, base)
        # -- flow costs ----------------------------------------------------
        if flow == "parallel":
            serialized = np.ones(shape, dtype=np.int16)
            transfers = np.full(shape, m, dtype=np.int16)
        elif flow == "ideal":
            serialized = np.ones(shape, dtype=np.int16)
            transfers = serialized
        elif flow == "serial":
            serialized = np.where(found, way_pos + 1, m)
            transfers = serialized
        else:  # predicted
            if pred == "static":
                predicted = np.broadcast_to(pref[rows][:, None], shape)
            elif pred == "random":
                u = mix64_array(
                    seed_rows(pred_seeds, rows) + pred_count[row_sets]
                )
                pred_count[row_sets] += 1
                predicted = (u % _U64(ways)).astype(np.int64)
            elif pred == "mru":
                predicted = mru[row_sets]
            elif pred == "perfect":
                predicted = np.where(found, way_phys, pref[rows][:, None])
            else:  # ptag: first way whose partial tag matches, per config
                pblock = ptags[base[:, None] + np.arange(ways)]
                peq = pblock == wanted[rows][:, None, :]
                predicted = np.where(
                    peq.any(axis=1),
                    peq.argmax(axis=1),
                    pref[rows][:, None],
                )
            if cand_matrix is not None:
                # Clamp to the candidate set: position of the predicted
                # way among the candidates, else candidate 0.
                ceq = cand_matrix[rows][:, :, None] == predicted[:, None, :]
                in_cand = ceq.any(axis=1)
                pos_pred = ceq.argmax(axis=1)
                predicted = np.where(
                    in_cand, predicted, cand_matrix[rows, 0][:, None]
                )
            else:
                pos_pred = predicted  # candidate j is way j
            hit_on_pred = found & (way_phys == predicted)
            serialized = np.where(
                hit_on_pred,
                1,
                np.where(
                    found,
                    np.where(pos_pred < way_pos, way_pos + 1, way_pos + 2),
                    m,
                ),
            )
            transfers = serialized
            correct[rows] = hit_on_pred
        hit[rows] = found
        serialized_out[rows] = serialized
        if transfers_out is not None:
            transfers_out[rows] = transfers
        # -- hit-side state ------------------------------------------------
        if pred == "mru" and found.any():
            rr, kk = np.nonzero(found)
            mru[row_sets[rr], kk] = way_phys[rr, kk]
        if repl_flat is not None and found.any():
            rr, kk = np.nonzero(found)
            touch((base[rr] + way_phys[rr, kk]) * K + kk, rows[rr], hit_mark)
        # -- miss fill (pair space: one entry per missing (row, config)) ---
        rr, kk = np.nonzero(~found)
        if not len(rr):
            return
        miss_rows = rows[rr]
        base_p = base[rr]
        if steer == "direct":
            install_p = cand_matrix[miss_rows, 0]
        elif steer == "all":
            sets_p = row_sets[rr]
            if repl_flat is not None:
                install_p = victims(base_p, miss_rows, sets_p, kk)
            else:
                u = mix64_array(
                    seed_pairs(repl_seeds, miss_rows, kk)
                    + repl_count[sets_p, kk]
                )
                repl_count[sets_p, kk] += 1
                install_p = (u % _U64(ways)).astype(np.int64)
        else:  # pws / sws: the PIP coin over the candidate set
            pref_p = pref[miss_rows]
            if m == 1:
                install_p = pref_p
            else:
                # Sequential draws of one stream: u1 at counter c, u2 at
                # c + 1; a config's counter advances once per miss and
                # once more per spill, exactly as the scalar streams.
                # Only miss pairs consume draws, so only they compute.
                sets_p = row_sets[rr]
                seeds_p = seed_pairs(steer_seeds, miss_rows, kk)
                counter = steer_count[sets_p, kk]
                u1 = mix64_array(seeds_p + counter)
                spill = ~(
                    (u1.astype(np.float64) / two_pow_64) < pip_arr[kk]
                )
                u2 = mix64_array(seeds_p + counter + _U64(1))
                steer_count[sets_p, kk] += spill + _U64(1)
                if steer == "pws":
                    alt = (u2 % _U64(ways - 1)).astype(np.int64)
                    install_p = np.where(
                        spill, alt + (alt >= pref_p), pref_p
                    )
                else:
                    alt = (u2 % _U64(m - 1)).astype(np.int64)
                    alt_way = cand_matrix[miss_rows, 1 + alt]
                    install_p = np.where(spill, alt_way, pref_p)
        slots = (base_p + install_p) * K + kk
        victim_dirty[miss_rows, kk] = dirty_flat[slots] != 0
        tags_flat[slots] = tags[miss_rows]
        dirty_flat[slots] = 0
        if repl_flat is not None:
            touch(slots, miss_rows, install_mark)
        if pred == "mru":
            mru[row_sets[rr], kk] = install_p
        elif pred == "ptag":
            # on_evict zeroes the slot, on_install overwrites it.
            ptags_flat[slots] = wanted[miss_rows, kk]

    def step_writebacks(rows):
        row_tags = tags[rows]
        base = slot0[rows]
        found, way_pos, way_phys = scan(rows, row_tags, base)
        if not p0.dcp_exact:
            # No way information: probe the candidate ways in order.
            wb_probes[rows] = np.where(found, way_pos + 1, m)
        wb_absorbed[rows] = found
        rr, kk = np.nonzero(found)
        if len(rr):
            slots = (base[rr] + way_phys[rr, kk]) * K + kk
            dirty_flat[slots] = 1
            if repl_flat is not None:
                # An absorbed writeback is a hit for the replacement
                # state (never charged an update transfer).
                touch(slots, rows[rr], hit_mark)

    for read_rows, wb_rows in steps:
        if len(read_rows):
            step_reads(read_rows)
        if len(wb_rows):
            step_writebacks(wb_rows)
    return decode()


# -- reductions --------------------------------------------------------------


def _window_stats(
    plan: _Plan, writes, out: _Outcome, start: int, stop: int
) -> CacheStats:
    """Fold outcome columns over ``[start, stop)`` into CacheStats."""
    stats = CacheStats()
    is_read = writes[start:stop] == 0
    hit = out.hit[start:stop]
    serialized = out.serialized[start:stop]
    read_hit = is_read & hit
    read_miss = is_read & ~hit
    demand = int(is_read.sum())
    hits = int(read_hit.sum())
    misses = demand - hits
    wb_total = len(is_read) - demand
    absorbed = int(out.wb_absorbed[start:stop].sum())
    wb_probes = int(out.wb_probes[start:stop].sum())
    dirty_evictions = int(out.victim_dirty[start:stop].sum())
    stats.demand_reads = demand
    stats.first_probes = demand
    stats.hits = hits
    stats.misses = misses
    stats.replacement_update_transfers = hits * plan.repl_update
    stats.hit_extra_probes = int(((serialized - 1) * read_hit).sum())
    stats.miss_extra_probes = int(((serialized - 1) * read_miss).sum())
    stats.cache_read_transfers = (
        int((out.transfers[start:stop] * is_read).sum()) + wb_probes
    )
    if plan.flow == "predicted":
        stats.predicted_hits = hits
        stats.correct_predictions = int(out.correct[start:stop].sum())
    stats.installs = misses
    stats.evictions = misses  # prefilled: every fill displaces a line
    stats.nvm_reads = misses
    stats.dirty_evictions = dirty_evictions
    stats.writebacks_in = wb_total
    stats.writeback_direct = absorbed
    stats.writeback_bypass = wb_total - absorbed
    stats.writeback_probe_accesses = wb_probes
    stats.cache_write_transfers = misses + absorbed
    stats.nvm_writes = dirty_evictions + (wb_total - absorbed)
    return stats


def _phase_series(
    plan: _Plan,
    writes,
    out: _Outcome,
    segments: Sequence[Segment],
    epoch: int,
    global_epochs: bool,
    phase_sink,
) -> PhaseSeries:
    """Fold outcome columns per epoch segment into a PhaseSeries.

    Serial mode emits :class:`PhaseMetrics`-compatible samples
    (contiguous indices, cumulative ``start_access``, sink streaming in
    order); shard mode emits the merge-ready bucket form
    (``start_access=0``, global epoch indices).
    """
    samples = []
    start_access = 0
    for epoch_id, start, stop in segments:
        is_read = writes[start:stop] == 0
        hit = out.hit[start:stop]
        accesses = int(is_read.sum())
        hits = int((is_read & hit).sum())
        misses = accesses - hits
        wb_total = len(is_read) - accesses
        absorbed = int(out.wb_absorbed[start:stop].sum())
        dirty_evictions = int(out.victim_dirty[start:stop].sum())
        sample = PhaseSample(
            index=int(epoch_id),
            start_access=0 if global_epochs else start_access,
            accesses=accesses,
            hits=hits,
            predicted_hits=hits if plan.flow == "predicted" else 0,
            correct_predictions=(
                int(out.correct[start:stop].sum())
                if plan.flow == "predicted"
                else 0
            ),
            nvm_reads=misses,
            nvm_writes=dirty_evictions + (wb_total - absorbed),
            writebacks=wb_total,
        )
        samples.append(sample)
        start_access += accesses
        if phase_sink is not None and not global_epochs:
            phase_sink(sample)
    return PhaseSeries(epoch=epoch, samples=tuple(samples))


class VectorEngine:
    """Whole-trace numpy kernel for deterministic set-local designs."""

    name = "vector"

    def supports(self, cache) -> bool:
        return not isinstance(build_plan(cache), str)

    def drive(
        self,
        cache,
        stream,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
        *,
        global_epochs: bool = False,
        phase_sink=None,
    ) -> Optional[PhaseSeries]:
        plan = build_plan(cache)
        if isinstance(plan, str):
            raise SimulationError(
                f"vector engine cannot drive this cache exactly ({plan}); "
                f"use the resolver (repro.sim.engines.resolve_engine) to "
                f"fall back"
            )
        sets, tags, writes, steps = _stream_arrays(stream, cache.geometry)
        (out,) = _simulate([plan], sets, tags, writes, steps)
        cache.stats = _window_stats(plan, writes, out, warm, len(sets))
        if epoch is None:
            return None
        return _phase_series(
            plan, writes, out, segments, epoch, global_epochs, phase_sink
        )


__all__ = ["VectorEngine", "build_plan", "plan_build_count"]
