"""The sparse-replay engine: vectorized pre/post passes around a fused
scalar replay of the global-state designs.

The vector engine (:mod:`repro.sim.engines.vector`) requires strictly
set-local state. The paper's headline designs break that: GWS's RIT/RLT
are *global* LRU tables keyed by 4KB region, set-dueling's PSEL is one
global saturating counter, and the column-associative cache's alternate
location lives in a different set. Those designs were stuck on the
~300k acc/s stream loop.

The key structural fact this engine exploits is that the global state
is touched *sparsely and cheaply*: per access it is a couple of dict
operations (the RIT/RLT emulation below) or an integer compare (PSEL),
while everything *around* those touches — address decomposition, tag
hashing, preferred ways, SWS candidate matrices, per-set RNG stream
seeds — is a pure per-access function. So the engine splits the work:

1. **Precompute** (vectorized): sets, tags, regions, preferred ways,
   candidate matrices and per-set splitmix64 stream seeds for the whole
   trace in a handful of numpy passes, then materialize them as plain
   Python lists for the replay loop.
2. **Replay** (fused scalar kernel): one pass over the precomputed
   columns carrying only the *sparse* state — resident tags, dirty
   bits, the RIT/RLT as plain insertion-ordered dicts, the finite DCP's
   line -> way table, per-set draw counters, PSEL. Each access appends
   a single small *outcome code*.
3. **Reduce** (vectorized): decode the code column into the vector
   engine's :class:`~repro.sim.engines.vector._Outcome` arrays and
   reuse its ``_window_stats`` / ``_phase_series`` reductions, so the
   CacheStats and PhaseSeries construction is shared, bit for bit.

Because every expensive per-access quantity is hoisted out of the loop
and the loop body itself is branch-light, the replay runs ~4-9x faster
than the stream loop while remaining bit-identical to the per-address
reference loop (asserted by ``tests/test_engines.py`` for every design
and by the randomized property tests).

The outcome code per access is:

* reads — ``k`` in ``1..m`` for a hit whose lookup serialized ``k``
  probes (``k == 1`` iff the prediction was correct, because the
  predicted way is always probed first); ``-1`` for a miss over a clean
  victim, ``-2`` over a dirty one (prefilled stores make every fill an
  eviction);
* writebacks — ``100 + probes`` when absorbed, ``200 + probes`` when
  bypassed (``probes`` is 0 when the DCP answers without touching the
  ways: always under an exact DCP, and for the lines a finite DCP
  still remembers).

Like the vector engine, this engine assumes a freshly built cache
(junk-prefilled dense store, empty region tables, midpoint PSEL, empty
DCP) and replays against its own state, never the cache's. ``supports``
declines anything else, including policy subclasses — dispatch is on
exact types, since a subclass may override any method.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Union

import numpy as np

from repro.cache.ca_cache import ColumnAssociativeCache
from repro.cache.dcp import DcpDirectory, FiniteDcpDirectory
from repro.cache.dram_cache import has_fresh_store
from repro.cache.lookup import WayPredictedLookup
from repro.cache.replacement import RandomReplacement
from repro.cache.storage import JUNK_TAG
from repro.core.dueling import DuelingPwsSteering
from repro.core.gws import GangedWayPredictor, GangedWaySteering
from repro.core.prediction import RandomPredictor, StaticPreferredPredictor
from repro.core.pws import ProbabilisticWaySteering
from repro.core.steering import UnbiasedSteering
from repro.core.sws import SkewedWaySteering
from repro.errors import SimulationError
from repro.sim.engines.base import Segment
from repro.sim.engines.vector import (
    _Outcome,
    _Plan,
    _phase_series,
    _skewed_matrix,
    _stream_arrays,
    _tag_hash_array,
    _window_stats,
)
from repro.sim.phases import PhaseSeries
from repro.sim.stats import CacheStats
from repro.utils.rng import set_stream_seeds

_U64 = np.uint64

# splitmix64 constants, inlined in the replay loops (one function call
# per draw would double the kernel time).
_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB
_TWO64 = float(1 << 64)


class _ReplayPlan:
    """Classification of one cache into replay-kernel flavors."""

    __slots__ = (
        "family",       # "gws" (GWS-wrapped DramCache) | "ca"
        "ways", "num_sets", "m", "hashes",
        "steer",        # fallback install: unbiased | pws | sws | dueling
        "pred",         # fallback predict: static | random
        "pip", "steer_base", "repl_base", "pred_base",
        "pip_low", "pip_high", "low_base", "high_base", "psel_max",
        "rit_entries", "rlt_entries", "steer_region", "pred_region",
        "dcp_exact", "dcp_capacity",
    )


def _build_replay_plan(cache) -> Union[_ReplayPlan, str]:
    """Classify ``cache`` for the replay kernels, or name the role
    (``"cache"``, ``"lookup"``, ``"replacement"``, ``"steering"``,
    ``"predictor"`` or ``"dcp"``) they cannot run.

    Mirrors the vector engine's ``build_plan`` discipline: exact-type
    dispatch plus fresh-state checks (prefilled store, empty RIT/RLT,
    midpoint PSEL, empty DCP), so the kernel's replayed-from-defaults
    state provably matches the cache it never touches. It is the only
    replay-eligibility declaration.
    """
    if type(cache) is ColumnAssociativeCache:
        if cache._lines or cache._dirty:
            return "cache"  # fresh-cache contract
        plan = _ReplayPlan()
        plan.family = "ca"
        plan.ways = 1
        plan.num_sets = cache.geometry.num_sets
        return plan

    path = getattr(cache, "path", None)
    if path is None or path.observers or not has_fresh_store(cache):
        return "cache"
    geometry = cache.geometry
    if type(cache.lookup) is not WayPredictedLookup:
        return "lookup"
    if type(cache.replacement) is not RandomReplacement:
        return "replacement"

    steering = cache.steering
    if type(steering) is not GangedWaySteering or len(steering.rit) != 0:
        return "steering"
    predictor = cache.predictor
    if type(predictor) is not GangedWayPredictor or len(predictor.rlt) != 0:
        return "predictor"

    plan = _ReplayPlan()
    plan.family = "gws"
    plan.ways = geometry.ways
    plan.num_sets = geometry.num_sets
    plan.rit_entries = steering.rit.entries
    plan.rlt_entries = predictor.rlt.entries
    plan.steer_region = steering.region_size
    plan.pred_region = predictor.region_size
    plan.repl_base = cache.replacement._rng._base
    plan.hashes = 0
    plan.m = plan.ways

    fallback = steering.fallback
    fallback_type = type(fallback)
    if fallback_type is UnbiasedSteering:
        plan.steer = "unbiased"
    elif fallback_type is ProbabilisticWaySteering:
        plan.steer = "pws"
        plan.pip = fallback.pip
        plan.steer_base = fallback._rng._base
    elif fallback_type is SkewedWaySteering:
        plan.steer = "sws"
        plan.hashes = fallback.hashes
        plan.m = fallback.hashes
        plan.pip = fallback.pip
        plan.steer_base = fallback._pws._rng._base
    elif fallback_type is DuelingPwsSteering:
        if fallback.psel != fallback.psel_max // 2:
            return "steering"  # fresh-cache contract: PSEL at midpoint
        plan.steer = "dueling"
        plan.psel_max = fallback.psel_max
        plan.pip_low = fallback._low.pip
        plan.pip_high = fallback._high.pip
        plan.low_base = fallback._low._rng._base
        plan.high_base = fallback._high._rng._base
    else:
        return "steering"

    pred_fallback = predictor.fallback
    pred_type = type(pred_fallback)
    if pred_type is StaticPreferredPredictor:
        plan.pred = "static"
    elif pred_type is RandomPredictor:
        plan.pred = "random"
        plan.pred_base = pred_fallback._rng._base
    else:
        return "predictor"

    dcp = cache.dcp
    if dcp is not None:
        if type(dcp) not in (DcpDirectory, FiniteDcpDirectory):
            return "dcp"
        if len(dcp) != 0:
            return "dcp"  # fresh-cache contract
    plan.dcp_exact = type(dcp) is DcpDirectory
    # > 0: a finite directory holding at most that many lines
    plan.dcp_capacity = dcp.capacity if type(dcp) is FiniteDcpDirectory else 0
    return plan


# -- the GWS-family replay kernels -------------------------------------------
#
# Both kernels reproduce, in order, exactly what the access path does:
#
#   read:  predict via RLT (lookup refreshes recency) else fallback;
#          probe predicted first, then remaining candidates; on a hit
#          record the hit way in the RLT. On a miss: GWS install choice
#          (RIT lookup; fallback coin/draw + RIT record on RIT miss),
#          evict (always a displacement: junk prefill), install, then
#          the on_install hooks re-record RIT and RLT.
#   wb:    exact DCP answers membership with zero probes; without a DCP
#          the candidate ways are probed in order. A finite DCP answers
#          its remembered lines with zero probes (refreshing recency);
#          a forgotten line probes like no DCP, and a find re-learns
#          the way. Installs record the line, evictions drop the
#          victim's, and the oldest entry falls off past capacity.
#
# The RecentRegionTable (OrderedDict LRU) is emulated with a plain dict
# relying on insertion order: move_to_end == del+reinsert, popitem(
# last=False) == del first key. Plain dicts are measurably faster than
# OrderedDict in this loop. The finite DCP (line -> way, keyed by the
# line address ``tag * num_sets + set``) keeps a real OrderedDict: its
# capacity runs to 10^5 lines, and deleting a plain dict's first key
# rescans the deleted slots in front of it, which turns quadratic there.


def _lists(*arrays):
    return [a.tolist() for a in arrays]


def _replay_two_way(plan, sets_a, tags_a, writes_a, addrs):
    """Fast path: ways == 2 with all-ways candidates (gws / ACCORD 2-way
    / dueling). The other way is always ``predicted ^ 1``, so probe
    scans and spill picks collapse to XORs."""
    pref_a = (_tag_hash_array(tags_a) & _U64(1)).astype(np.int64)
    sregion_a = addrs // np.int64(plan.steer_region)
    base_a = sets_a * np.int64(2)
    steer = plan.steer
    pred = plan.pred

    zero_a = np.zeros(len(sets_a), dtype=_U64)
    if steer == "dueling":
        s1_a = set_stream_seeds(plan.low_base, sets_a)
        s2_a = set_stream_seeds(plan.high_base, sets_a)
    elif steer == "pws":
        s1_a = set_stream_seeds(plan.steer_base, sets_a)
        s2_a = zero_a
    else:  # unbiased: the replacement policy's stream picks the victim
        s1_a = set_stream_seeds(plan.repl_base, sets_a)
        s2_a = zero_a
    if pred == "random":
        p_a = set_stream_seeds(plan.pred_base, sets_a)
    else:
        p_a = zero_a
    if plan.pred_region == plan.steer_region:
        pregion_l = None
    else:
        pregion_l = (addrs // np.int64(plan.pred_region)).tolist()

    writes_l, sets_l, tags_l, regions_l, pref_l, base_l, s1_l, s2_l, p_l = _lists(
        writes_a, sets_a, tags_a, sregion_a, pref_a, base_a, s1_a, s2_a, p_a
    )
    if pregion_l is None:
        pregion_l = regions_l

    num_sets = plan.num_sets
    tags_state = [JUNK_TAG] * (num_sets * 2)
    dirty = bytearray(num_sets * 2)
    rit: dict = {}
    rlt: dict = {}
    rit_get = rit.get
    rlt_get = rlt.get
    rit_entries = plan.rit_entries
    rlt_entries = plan.rlt_entries
    cnt1 = [0] * num_sets     # low/pws/replacement stream counters
    cnt2 = [0] * num_sets     # dueling high-instance stream counters
    pcnt = [0] * num_sets     # random-predictor stream counters
    psel = (plan.psel_max // 2) if steer == "dueling" else 0
    psel_max = plan.psel_max if steer == "dueling" else 0
    psel_mid = psel_max // 2
    pip = plan.pip if steer in ("pws",) else 0.0
    pip_low = plan.pip_low if steer == "dueling" else 0.0
    pip_high = plan.pip_high if steer == "dueling" else 0.0
    dcp_exact = plan.dcp_exact
    dcp_capacity = plan.dcp_capacity
    finite = dcp_capacity > 0
    dcp: "OrderedDict[int, int]" = OrderedDict()
    dueling = steer == "dueling"
    unbiased = steer == "unbiased"
    pred_random = pred == "random"

    codes = []
    code_append = codes.append

    for w, s, t, rg, prg, pf, base, sd1, sd2, psd in zip(
        writes_l, sets_l, tags_l, regions_l, pregion_l, pref_l, base_l,
        s1_l, s2_l, p_l,
    ):
        if w:
            if finite:
                line = t * num_sets + s
                way = dcp.get(line)
                if way is not None:
                    # A remembered way: refresh recency, no probe.
                    dcp.move_to_end(line)
                    dirty[base + way] = 1
                    code_append(100)
                    continue
            # Exact DCP answers membership with zero probes; without way
            # information (no DCP, or a finite DCP that forgot the line)
            # the ways are probed in candidate order (0 then 1).
            if tags_state[base] == t:
                dirty[base] = 1
                code_append(100 if dcp_exact else 101)
                way = 0
            elif tags_state[base + 1] == t:
                dirty[base + 1] = 1
                code_append(100 if dcp_exact else 102)
                way = 1
            else:
                code_append(200 if dcp_exact else 202)
                continue
            if finite:
                dcp[line] = way  # re-learn the way
                if len(dcp) > dcp_capacity:
                    dcp.popitem(False)
            continue
        # -- read: predict (RLT lookup refreshes recency) -------------------
        pw = rlt_get(prg)
        if pw is None:
            if pred_random:
                c = pcnt[s]
                pcnt[s] = c + 1
                z = (psd + c + _C1) & _M64
                z = ((z ^ (z >> 30)) * _C2) & _M64
                z = ((z ^ (z >> 27)) * _C3) & _M64
                predicted = (z ^ (z >> 31)) & 1
            else:
                predicted = pf
        else:
            del rlt[prg]
            rlt[prg] = pw
            predicted = pw
        slot = base + predicted
        if tags_state[slot] == t:
            code_append(1)
            if prg in rlt:
                del rlt[prg]
            rlt[prg] = predicted
            if len(rlt) > rlt_entries:
                del rlt[next(iter(rlt))]
            continue
        other = predicted ^ 1
        if tags_state[base + other] == t:
            code_append(2)
            if prg in rlt:
                del rlt[prg]
            rlt[prg] = other
            if len(rlt) > rlt_entries:
                del rlt[next(iter(rlt))]
            continue
        # -- miss: GWS install choice ----------------------------------------
        g = rit_get(rg)
        if g is not None:
            del rit[rg]
            way = g
        else:
            c = cnt1[s]
            z = (sd1 + c + _C1) & _M64
            z = ((z ^ (z >> 30)) * _C2) & _M64
            z = ((z ^ (z >> 27)) * _C3) & _M64
            z ^= z >> 31
            if unbiased:
                cnt1[s] = c + 1
                way = z & 1
            elif dueling:
                # observe_miss: leader sets vote before the instance pick.
                if not s & 31:
                    if (s >> 5) & 1:
                        low = False  # high leader
                        if psel < psel_max:
                            psel += 1
                    else:
                        low = True  # low leader
                        if psel > 0:
                            psel -= 1
                else:
                    low = psel > psel_mid
                if low:
                    cnt1[s] = c + 1
                    if z / _TWO64 < pip_low:
                        way = pf
                    else:
                        c2 = cnt1[s]
                        cnt1[s] = c2 + 1
                        way = pf ^ 1
                else:
                    c2 = cnt2[s]
                    z = (sd2 + c2 + _C1) & _M64
                    z = ((z ^ (z >> 30)) * _C2) & _M64
                    z = ((z ^ (z >> 27)) * _C3) & _M64
                    z ^= z >> 31
                    cnt2[s] = c2 + 1
                    if z / _TWO64 < pip_high:
                        way = pf
                    else:
                        cnt2[s] = c2 + 2
                        way = pf ^ 1
            else:  # pws
                if z / _TWO64 < pip:
                    way = pf
                    cnt1[s] = c + 1
                else:
                    way = pf ^ 1
                    cnt1[s] = c + 2
        # fallback path records the RIT; the ganged path's entry is
        # refreshed identically by on_install below, so one record
        # covers both (del+reinsert == move_to_end + update).
        slot = base + way
        code_append(-2 if dirty[slot] else -1)
        if finite:
            # Evict forgets the victim's line; install records the new.
            dcp.pop(tags_state[slot] * num_sets + s, None)
            dcp[t * num_sets + s] = way
            if len(dcp) > dcp_capacity:
                dcp.popitem(False)
        tags_state[slot] = t
        dirty[slot] = 0
        if rg in rit:
            del rit[rg]
        rit[rg] = way
        if len(rit) > rit_entries:
            del rit[next(iter(rit))]
        if prg in rlt:
            del rlt[prg]
        rlt[prg] = way
        if len(rlt) > rlt_entries:
            del rlt[next(iter(rlt))]
    return codes


def _replay_generic(plan, sets_a, tags_a, writes_a, addrs):
    """General kernel: any way count, identity or SWS candidate sets,
    all fallback modes. Used for ACCORD 4-way, SWS(N,k), and the
    randomized property-test configurations."""
    ways = plan.ways
    hashed = _tag_hash_array(tags_a)
    pref_a = (hashed & _U64(ways - 1)).astype(np.int64)
    sregion_a = addrs // np.int64(plan.steer_region)
    base_a = sets_a * np.int64(ways)
    steer = plan.steer
    pred = plan.pred
    m = plan.m

    if steer == "sws":
        cand_rows = _skewed_matrix(hashed, pref_a, ways, plan.hashes).tolist()
    else:
        cand_rows = None

    zero_a = np.zeros(len(sets_a), dtype=_U64)
    if steer == "dueling":
        s1_a = set_stream_seeds(plan.low_base, sets_a)
        s2_a = set_stream_seeds(plan.high_base, sets_a)
    elif steer in ("pws", "sws"):
        s1_a = set_stream_seeds(plan.steer_base, sets_a)
        s2_a = zero_a
    else:  # unbiased
        s1_a = set_stream_seeds(plan.repl_base, sets_a)
        s2_a = zero_a
    p_a = set_stream_seeds(plan.pred_base, sets_a) if pred == "random" else zero_a
    if plan.pred_region == plan.steer_region:
        pregion_l = None
    else:
        pregion_l = (addrs // np.int64(plan.pred_region)).tolist()

    writes_l, sets_l, tags_l, regions_l, pref_l, base_l, s1_l, s2_l, p_l = _lists(
        writes_a, sets_a, tags_a, sregion_a, pref_a, base_a, s1_a, s2_a, p_a
    )
    if pregion_l is None:
        pregion_l = regions_l
    if cand_rows is None:
        cand_rows = [None] * len(writes_l)
    all_ways = tuple(range(ways))

    num_sets = plan.num_sets
    tags_state = [JUNK_TAG] * (num_sets * ways)
    dirty = bytearray(num_sets * ways)
    rit: dict = {}
    rlt: dict = {}
    rit_get = rit.get
    rlt_get = rlt.get
    rit_entries = plan.rit_entries
    rlt_entries = plan.rlt_entries
    cnt1 = [0] * num_sets
    cnt2 = [0] * num_sets
    pcnt = [0] * num_sets
    psel = (plan.psel_max // 2) if steer == "dueling" else 0
    psel_max = plan.psel_max if steer == "dueling" else 0
    psel_mid = psel_max // 2
    pip = plan.pip if steer in ("pws", "sws") else 0.0
    pip_low = plan.pip_low if steer == "dueling" else 0.0
    pip_high = plan.pip_high if steer == "dueling" else 0.0
    dcp_exact = plan.dcp_exact
    dcp_capacity = plan.dcp_capacity
    finite = dcp_capacity > 0
    dcp: "OrderedDict[int, int]" = OrderedDict()
    dueling = steer == "dueling"
    unbiased = steer == "unbiased"
    pred_random = pred == "random"

    codes = []
    code_append = codes.append

    for w, s, t, rg, prg, pf, base, sd1, sd2, psd, row in zip(
        writes_l, sets_l, tags_l, regions_l, pregion_l, pref_l, base_l,
        s1_l, s2_l, p_l, cand_rows,
    ):
        candidates = all_ways if row is None else row
        if w:
            # writeback: exact DCP answers with zero probes; otherwise
            # the candidate ways are probed in order.
            if dcp_exact:
                for way in candidates:
                    if tags_state[base + way] == t:
                        dirty[base + way] = 1
                        code_append(100)
                        break
                else:
                    code_append(200)
                continue
            if finite:
                line = t * num_sets + s
                way = dcp.get(line)
                if way is not None:
                    # A remembered way: refresh recency, no probe.
                    dcp.move_to_end(line)
                    dirty[base + way] = 1
                    code_append(100)
                    continue
            probes = 0
            for way in candidates:
                probes += 1
                if tags_state[base + way] == t:
                    dirty[base + way] = 1
                    code_append(100 + probes)
                    if finite:
                        dcp[line] = way  # re-learn the way
                        if len(dcp) > dcp_capacity:
                            dcp.popitem(False)
                    break
            else:
                code_append(200 + probes)
            continue
        # -- read: predict (RLT lookup refreshes recency) -------------------
        pw = rlt_get(prg)
        if pw is None:
            if pred_random:
                c = pcnt[s]
                pcnt[s] = c + 1
                z = (psd + c + _C1) & _M64
                z = ((z ^ (z >> 30)) * _C2) & _M64
                z = ((z ^ (z >> 27)) * _C3) & _M64
                predicted = ((z ^ (z >> 31)) & _M64) % ways
            else:
                predicted = pf
        else:
            del rlt[prg]
            rlt[prg] = pw
            predicted = pw
        if row is not None and predicted not in row:
            # The lookup flow clamps an illegal prediction to the first
            # legal candidate.
            predicted = row[0]
        if tags_state[base + predicted] == t:
            code_append(1)
            if prg in rlt:
                del rlt[prg]
            rlt[prg] = predicted
            if len(rlt) > rlt_entries:
                del rlt[next(iter(rlt))]
            continue
        probes = 1
        hit_way = -1
        for way in candidates:
            if way == predicted:
                continue
            probes += 1
            if tags_state[base + way] == t:
                hit_way = way
                break
        if hit_way >= 0:
            code_append(probes)
            if prg in rlt:
                del rlt[prg]
            rlt[prg] = hit_way
            if len(rlt) > rlt_entries:
                del rlt[next(iter(rlt))]
            continue
        # -- miss: GWS install choice ----------------------------------------
        g = rit_get(rg)
        if g is not None and (row is None or g in row):
            del rit[rg]
            way = g
        else:
            if g is not None:
                # RIT hit outside the candidate set: recency was still
                # refreshed by the lookup; the fallback decides and its
                # record overwrites the stale way.
                del rit[rg]
                rit[rg] = g
            c = cnt1[s]
            z = (sd1 + c + _C1) & _M64
            z = ((z ^ (z >> 30)) * _C2) & _M64
            z = ((z ^ (z >> 27)) * _C3) & _M64
            z ^= z >> 31
            if unbiased:
                cnt1[s] = c + 1
                way = candidates[z % len(candidates)]
            elif dueling:
                if not s & 31:
                    if (s >> 5) & 1:
                        low = False
                        if psel < psel_max:
                            psel += 1
                    else:
                        low = True
                        if psel > 0:
                            psel -= 1
                else:
                    low = psel > psel_mid
                if low:
                    cnt1[s] = c + 1
                    if z / _TWO64 < pip_low:
                        way = pf
                    else:
                        c2 = cnt1[s]
                        cnt1[s] = c2 + 1
                        z = (sd1 + c2 + _C1) & _M64
                        z = ((z ^ (z >> 30)) * _C2) & _M64
                        z = ((z ^ (z >> 27)) * _C3) & _M64
                        z ^= z >> 31
                        alt = z % (ways - 1)
                        way = alt + (alt >= pf)
                else:
                    c2 = cnt2[s]
                    z = (sd2 + c2 + _C1) & _M64
                    z = ((z ^ (z >> 30)) * _C2) & _M64
                    z = ((z ^ (z >> 27)) * _C3) & _M64
                    z ^= z >> 31
                    cnt2[s] = c2 + 1
                    if z / _TWO64 < pip_high:
                        way = pf
                    else:
                        c3 = cnt2[s]
                        cnt2[s] = c3 + 1
                        z = (sd2 + c3 + _C1) & _M64
                        z = ((z ^ (z >> 30)) * _C2) & _M64
                        z = ((z ^ (z >> 27)) * _C3) & _M64
                        z ^= z >> 31
                        alt = z % (ways - 1)
                        way = alt + (alt >= pf)
            else:  # pws / sws: the PIP coin over the candidate set
                if m == 1 or z / _TWO64 < pip:
                    cnt1[s] = c + 1 if m > 1 else c
                    way = pf
                else:
                    c2 = c + 1
                    cnt1[s] = c2 + 1
                    z = (sd1 + c2 + _C1) & _M64
                    z = ((z ^ (z >> 30)) * _C2) & _M64
                    z = ((z ^ (z >> 27)) * _C3) & _M64
                    z ^= z >> 31
                    if row is None:
                        alt = z % (ways - 1)
                        way = alt + (alt >= pf)
                    else:
                        way = row[1 + z % (m - 1)]
        slot = base + way
        code_append(-2 if dirty[slot] else -1)
        if finite:
            # Evict forgets the victim's line; install records the new.
            dcp.pop(tags_state[slot] * num_sets + s, None)
            dcp[t * num_sets + s] = way
            if len(dcp) > dcp_capacity:
                dcp.popitem(False)
        tags_state[slot] = t
        dirty[slot] = 0
        if rg in rit:
            del rit[rg]
        rit[rg] = way
        if len(rit) > rit_entries:
            del rit[next(iter(rit))]
        if prg in rlt:
            del rlt[prg]
        rlt[prg] = way
        if len(rlt) > rlt_entries:
            del rlt[next(iter(rlt))]
    return codes


def _decode(plan, n, codes) -> _Outcome:
    """Decode the replay's code column into vector-engine outcome arrays."""
    code_arr = np.array(codes, dtype=np.int64)
    out = _Outcome(n)
    is_hit = (code_arr >= 1) & (code_arr < 100)
    out.hit = is_hit
    out.serialized = np.where(is_hit, code_arr, plan.m)
    out.transfers = out.serialized
    out.correct = is_hit & (code_arr == 1)
    out.victim_dirty = code_arr == -2
    is_wb = code_arr >= 100
    out.wb_absorbed = is_wb & (code_arr < 200)
    out.wb_probes = np.where(is_wb, code_arr % 100, 0)
    return out


# -- the column-associative replay -------------------------------------------


def _replay_ca(cache, stream, warm) -> CacheStats:
    """Fused scalar replay of :class:`ColumnAssociativeCache`.

    Local list/bytearray state instead of dict/set, precomputed index
    columns, and counters accumulated only in the measured window; the
    flow mirrors ``read``/``_fill``/``writeback`` line for line. The CA
    model has no observer hook, so (like the loop engine) the run is
    never phase-resolved and a plain stats fold suffices.
    """
    geometry = cache.geometry
    num_sets = geometry.num_sets
    rehash_bit = 1 << (geometry.index_bits - 1)
    trace = getattr(stream, "trace", None)
    if trace is not None:
        addrs = trace.numpy_addrs()
        writes_a = trace.numpy_writes()
    else:
        addrs = np.asarray(stream.addrs, dtype=np.int64)
        writes_a = np.asarray(stream.writes, dtype=np.uint8)
    lines_a = addrs >> np.int64(geometry.offset_bits)
    firsts_a = lines_a & np.int64(num_sets - 1)

    writes_l = writes_a.tolist()
    lines_l = lines_a.tolist()
    firsts_l = firsts_a.tolist()

    lines = [-1] * num_sets
    dirty = bytearray(num_sets)

    # warmup: state only, no counters
    for w, line, first in zip(
        writes_l[:warm], lines_l[:warm], firsts_l[:warm]
    ):
        second = first ^ rehash_bit
        if w:
            if lines[first] == line:
                dirty[first] = 1
            elif lines[second] == line:
                dirty[second] = 1
            continue
        if lines[first] == line:
            continue
        if lines[second] == line:
            lines[first], lines[second] = lines[second], lines[first]
            dirty[first], dirty[second] = dirty[second], dirty[first]
            continue
        displaced = lines[first]
        if displaced != -1:
            lines[second] = displaced
            dirty[second] = dirty[first]
        lines[first] = line
        dirty[first] = 0

    # measured window
    demand = hits = correct = hit_extra = miss_extra = 0
    swaps = installs = evictions = dirty_ev = nvm_w = 0
    wbs = wb_direct = wb_bypass = 0
    for w, line, first in zip(
        writes_l[warm:], lines_l[warm:], firsts_l[warm:]
    ):
        second = first ^ rehash_bit
        if w:
            wbs += 1
            if lines[first] == line:
                dirty[first] = 1
                wb_direct += 1
            elif lines[second] == line:
                dirty[second] = 1
                wb_direct += 1
            else:
                wb_bypass += 1
                nvm_w += 1
            continue
        demand += 1
        if lines[first] == line:
            hits += 1
            correct += 1
            continue
        if lines[second] == line:
            hits += 1
            hit_extra += 1
            lines[first], lines[second] = lines[second], lines[first]
            dirty[first], dirty[second] = dirty[second], dirty[first]
            swaps += 2
            continue
        miss_extra += 1
        displaced = lines[first]
        if displaced != -1:
            if lines[second] != -1:
                evictions += 1
                if dirty[second]:
                    dirty_ev += 1
                    nvm_w += 1
            lines[second] = displaced
            dirty[second] = dirty[first]
            swaps += 1
        lines[first] = line
        dirty[first] = 0
        installs += 1

    misses = demand - hits
    stats = CacheStats()
    stats.demand_reads = demand
    stats.first_probes = demand
    stats.hits = hits
    stats.misses = misses
    stats.predicted_hits = hits
    stats.correct_predictions = correct
    stats.hit_extra_probes = hit_extra
    stats.miss_extra_probes = miss_extra
    # Every read costs 1 transfer at the preferred index plus 1 more
    # unless it hit there (rehash probe on second-try hits and misses).
    stats.cache_read_transfers = 2 * demand - correct
    stats.swap_transfers = swaps
    stats.installs = installs
    stats.evictions = evictions
    stats.dirty_evictions = dirty_ev
    stats.nvm_reads = misses
    stats.writebacks_in = wbs
    stats.writeback_direct = wb_direct
    stats.writeback_bypass = wb_bypass
    stats.cache_write_transfers = installs + wb_direct
    stats.nvm_writes = nvm_w
    return stats


class SparseReplayEngine:
    """Vectorized pre/post passes around a fused scalar global-state
    replay; covers the designs the vector engine must decline."""

    name = "replay"

    def supports(self, cache) -> bool:
        return not isinstance(_build_replay_plan(cache), str)

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
        plan = _build_replay_plan(cache)
        if isinstance(plan, str):
            raise SimulationError(
                f"replay engine cannot drive this cache exactly ({plan}); "
                f"use the resolver (repro.sim.engines.resolve_engine) to "
                f"fall back"
            )
        if plan.family == "ca":
            cache.stats = _replay_ca(cache, stream, warm)
            return None  # the CA model is never phase-resolved
        sets_a, tags_a, writes_a, _steps = _stream_arrays(
            stream, cache.geometry
        )
        trace = getattr(stream, "trace", None)
        if trace is not None:
            addrs = trace.numpy_addrs()
        else:
            addrs = np.asarray(stream.addrs, dtype=np.int64)
        if plan.ways == 2 and plan.steer != "sws":
            codes = _replay_two_way(plan, sets_a, tags_a, writes_a, addrs)
        else:
            codes = _replay_generic(plan, sets_a, tags_a, writes_a, addrs)
        out = _decode(plan, len(sets_a), codes)
        shim = _Plan()
        shim.flow = "predicted"  # all GWS-family designs way-predict
        shim.repl_update = 0  # random replacement: update-free hits
        cache.stats = _window_stats(shim, writes_a, out, warm, len(sets_a))
        if epoch is None:
            return None
        return _phase_series(
            shim, writes_a, out, segments, epoch, global_epochs, phase_sink
        )


__all__ = ["SparseReplayEngine"]
