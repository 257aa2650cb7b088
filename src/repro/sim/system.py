"""System-level simulator: trace -> cache -> timing.

:class:`Simulator` drives one cache design with one trace (with a
warmup region excluded from statistics) and evaluates the interval
timing model on the measured counters. Designs are named by
:class:`repro.core.accord.AccordDesign` (re-exported here as
``DesignSpec`` for the public API).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional

from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign, make_design
from repro.errors import SimulationError
from repro.params.system import SystemConfig
from repro.sim.engines import TraceStream, resolve_engine, serial_segments
from repro.sim.phases import PhaseSeries
from repro.sim.stats import CacheStats
from repro.sim.timing_model import IntervalTimingModel, TimingBreakdown
from repro.sim.trace import Trace
from repro.verify.digest import result_digest

DesignSpec = AccordDesign  # public alias


def build_dram_cache(design: AccordDesign, config: SystemConfig, seed: int = 1):
    """Instantiate the cache object for a design under a system config."""
    geometry = CacheGeometry(
        config.dram_cache.capacity_bytes, design.ways, config.dram_cache.line_size
    )
    return make_design(design, geometry, seed=seed)


@dataclass
class RunResult:
    """Everything measured from one (design, workload) run."""

    design: AccordDesign
    workload: str
    stats: CacheStats
    timing: TimingBreakdown
    instructions: float
    # Per-epoch time series, present when the run was phase-resolved
    # (``epoch=...`` / ``--epoch-metrics``); None otherwise.
    phases: Optional[PhaseSeries] = field(default=None)

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    @property
    def prediction_accuracy(self) -> float:
        return self.stats.prediction_accuracy

    @property
    def runtime_ns(self) -> float:
        return self.timing.runtime_ns

    def speedup_over(self, baseline: "RunResult") -> float:
        """Weighted-speedup proxy: baseline runtime / this runtime."""
        if self.workload != baseline.workload:
            raise SimulationError(
                f"comparing different workloads: {self.workload} vs {baseline.workload}"
            )
        return baseline.runtime_ns / self.runtime_ns

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`.

        Besides the raw fields, the top level carries the derived
        ``hit_rate`` / ``prediction_accuracy`` / ``runtime_ns`` values so
        exported records are self-describing, plus a ``payload_digest``
        (:func:`repro.verify.digest.result_digest`) that the store and
        ``repro audit`` verify on read; :meth:`from_dict` ignores them
        (they are recomputed from the counters).
        """
        return {
            "design": asdict(self.design),
            "workload": self.workload,
            "stats": self.stats.to_dict(),
            "timing": asdict(self.timing),
            "instructions": self.instructions,
            "phases": self.phases.to_dict() if self.phases is not None else None,
            "hit_rate": self.hit_rate,
            "prediction_accuracy": self.prediction_accuracy,
            "runtime_ns": self.runtime_ns,
            "payload_digest": result_digest(self),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            timing_data = dict(data["timing"])
            known = {f.name for f in fields(TimingBreakdown)}
            unknown = set(timing_data) - known
            if unknown:
                raise SimulationError(
                    f"unknown TimingBreakdown fields: {sorted(unknown)}"
                )
            phases_data = data.get("phases")
            return cls(
                design=AccordDesign(**data["design"]),
                workload=str(data["workload"]),
                stats=CacheStats.from_dict(data["stats"]),
                timing=TimingBreakdown(**timing_data),
                instructions=float(data["instructions"]),
                phases=(
                    PhaseSeries.from_dict(phases_data)
                    if phases_data is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed RunResult record: {exc}") from exc


class Simulator:
    """Runs one design against traces under one system configuration."""

    def __init__(self, config: SystemConfig, design: AccordDesign, seed: int = 1):
        self.config = config
        self.design = design
        self.seed = seed
        self.cache = build_dram_cache(design, config, seed=seed)
        self.timing_model = IntervalTimingModel(config)
        self._driven = False

    def run(
        self,
        trace: Trace,
        warmup_fraction: float = 0.25,
        epoch: Optional[int] = None,
        fast_path: bool = True,
        phase_sink=None,
        engine: str = "auto",
        engine_strict: bool = False,
    ) -> RunResult:
        """Simulate a trace; statistics cover only the post-warmup part.

        With ``epoch`` set, per-epoch time series are recorded over the
        measurement window (warmup is excluded), returned as
        :attr:`RunResult.phases`. Caches without an event-emitting
        access path (the CA-cache baseline) ignore the request and
        report ``phases=None``. ``phase_sink`` receives each
        :class:`PhaseSample` live as its epoch closes (incremental
        streaming for in-process consumers such as the sweep service).

        The drive itself is delegated to an engine
        (:mod:`repro.sim.engines`): ``engine="auto"`` picks the fastest
        one supporting the cache — the whole-trace vector kernel for
        deterministic set-local designs, the batched ``run_stream`` loop
        otherwise, the per-address reference loop as the floor. An
        explicit request that cannot drive the cache falls back with a
        one-time warning, or raises under ``engine_strict``. All engines
        are bit-identical (asserted by the equivalence tests), so the
        choice never changes results. ``fast_path=False`` forces the
        reference loop (kept for those tests).
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError("warmup fraction must be in [0, 1)")
        if not fast_path:
            engine = "loop"
        if self._driven:
            # Engines own warmup from a freshly built cache (the vector
            # kernel replays build-time state); a second run() must not
            # see the first run's residue.
            self.cache = build_dram_cache(self.design, self.config, seed=self.seed)
        self._driven = True
        cache = self.cache
        n = len(trace)
        warm = int(n * warmup_fraction)
        eng = resolve_engine(
            cache, requested=engine, strict=engine_strict, design=self.design
        )
        stream = TraceStream(trace, cache.geometry)
        segments = serial_segments(trace, warm, epoch)
        phases = eng.drive(
            cache, stream, warm, segments, epoch, phase_sink=phase_sink
        )

        stats = cache.stats
        instructions = stats.demand_reads * trace.instructions_per_access
        if instructions <= 0:
            raise SimulationError(
                f"trace {trace.name!r} produced no post-warmup demand reads"
            )
        timing = self.timing_model.evaluate(stats, instructions)
        return RunResult(
            design=self.design,
            workload=trace.name,
            stats=stats,
            timing=timing,
            instructions=instructions,
            phases=phases,
        )
