"""Config-axis fusion: K same-trace configs in one kernel pass.

A parameter sweep evaluates many configs over one trace, and for the
vector kernel's designs most of its work is *config-independent*:
the sorted step plan, the tag hashes and preferred ways, the SWS
candidate matrix, and — dominating the runtime — the per-rank Python
loop dispatching a handful of numpy ops over small row groups. The one
vector kernel (:func:`repro.sim.engines.vector._simulate`) carries a
trailing **config axis** for exactly this reason: a solo
:class:`~repro.sim.engines.vector.VectorEngine` drive is its ``K == 1``
case, and this module is the glue that hands it K configs whose kernel
plans share a :func:`plan_signature`. One pass over the rank groups
then costs roughly one config's dispatch overhead for K configs' worth
of work.

What may differ inside one fused group is exactly the per-config data
the kernel parameterizes per row of the config axis: the PIP spill
probability, the counter-based RNG stream bases (functions of the
config seed), and the partial-tag layout. Everything that shapes the
*control flow* — lookup flow, steering family, predictor kind, way
count, set count, hash count, DCP exactness, replacement policy and
its RRPV range — is part of the signature and therefore shared.

Each member's outcome is folded by the same reductions
(``_window_stats`` / ``_phase_series``) a solo drive uses, so its
:class:`~repro.sim.stats.CacheStats` and
:class:`~repro.sim.phases.PhaseSeries` equal a reference-loop run of
the same design (asserted by ``tests/test_multi.py``). Designs the
vector kernel declines fall back to sequential per-config drives in
:func:`repro.exec.batching.run_batch` — still sharing the trace bytes
and the step plan, just not the pass.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.engines.base import Segment
from repro.sim.engines.vector import (
    _Plan,
    _phase_series,
    _simulate,
    _stream_arrays,
    _window_stats,
)
from repro.sim.phases import PhaseSeries
from repro.sim.stats import CacheStats

#: Process-local count of fused kernel passes (each covering K >= 2
#: configs); exposed for the batching tests and ``profile`` output.
_FUSED_PASSES = 0
_FUSED_CONFIGS = 0


def fused_pass_count() -> Tuple[int, int]:
    """(fused kernel passes, configs covered by them) in this process."""
    return _FUSED_PASSES, _FUSED_CONFIGS


def plan_signature(plan: _Plan) -> Tuple:
    """Control-flow identity of a kernel plan.

    Two plans with equal signatures take identical branches through the
    kernel on every access, so they can share one fused pass; the
    remaining plan fields (``pip``, the RNG bases, the partial-tag
    layout) become per-config axis data.
    """
    return (
        plan.flow, plan.steer, plan.pred, plan.ways, plan.num_sets,
        plan.hashes, plan.dcp_exact, plan.repl, plan.max_rrpv,
    )


class FusedRun:
    """One member of a fused drive: its plan plus its measurement plan."""

    __slots__ = ("plan", "warm", "segments", "epoch")

    def __init__(
        self,
        plan: _Plan,
        warm: int,
        segments: Sequence[Segment],
        epoch: Optional[int],
    ):
        self.plan = plan
        self.warm = warm
        self.segments = segments
        self.epoch = epoch


def drive_fused(
    runs: Sequence[FusedRun], stream, geometry
) -> List[Tuple[CacheStats, Optional[PhaseSeries]]]:
    """Drive K same-signature runs over one stream in one kernel pass.

    Returns ``(stats, phases)`` per run, in order, each equal to a solo
    :class:`~repro.sim.engines.vector.VectorEngine` drive of that run's
    cache: the shared stream arrays come from the same per-trace memo,
    and each member's outcome goes through the same reductions. Only
    passes covering K >= 2 configs count toward
    :func:`fused_pass_count`.
    """
    global _FUSED_PASSES, _FUSED_CONFIGS
    if not runs:
        return []
    plans = [run.plan for run in runs]
    signature = plan_signature(plans[0])
    if any(plan_signature(p) != signature for p in plans[1:]):
        raise SimulationError(
            "fused kernel requires plans with identical signatures"
        )
    sets, tags, writes, steps = _stream_arrays(stream, geometry)
    outs = _simulate(plans, sets, tags, writes, steps)
    if len(runs) > 1:
        _FUSED_PASSES += 1
        _FUSED_CONFIGS += len(runs)
    results = []
    for run, out in zip(runs, outs):
        stats = _window_stats(run.plan, writes, out, run.warm, len(sets))
        phases = None
        if run.epoch is not None:
            phases = _phase_series(
                run.plan, writes, out, run.segments, run.epoch, False, None
            )
        results.append((stats, phases))
    return results


__all__ = [
    "FusedRun",
    "drive_fused",
    "fused_pass_count",
    "plan_signature",
]
