"""Deterministic job model for the sweep engine.

A :class:`JobKey` captures everything that determines one simulation's
outcome: the design, the workload name, and the scalar knobs feeding
trace generation and the timing model. Trace generation is seeded, so
any process that holds the same key rebuilds the same trace and the
same simulator — which is what lets results be executed on an arbitrary
worker process and memoized on disk, content-addressed by the key's
digest (:mod:`repro.exec.store`).

The cosmetic ``label`` field of :class:`AccordDesign` is excluded from
the canonical form: relabelling a design must not change its identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.core.accord import DESIGN_KINDS, AccordDesign
from repro.errors import ConfigError
from repro.exec.faults import SITE_ENGINE_RESULT, SITE_JOB, fault_point
from repro.exec.resilience import complete_claim, write_claim
from repro.params.system import scaled_system
from repro.sim.runner import DEFAULT_WARMUP, TraceFactory, run_design
from repro.sim.system import RunResult

#: Bump whenever simulation semantics or the stored RunResult layout
#: change in a way that invalidates previously memoized results.
#: v2: access-event pipeline — RunResult carries optional phase-resolved
#: metrics and JobKey gained the ``epoch`` knob.
#: v3: randomized policies draw from per-set counter-based streams
#: (:class:`repro.utils.rng.SetLocalRng`) instead of one sequential
#: stream, so every random-policy result changed. The sharding knob
#: itself is deliberately *not* part of the key: sharded execution is
#: bit-identical to serial, so both populate the same store slot.
#: v4: stored results carry a ``payload_digest`` (sha256 over the
#: canonical stats + phases payload, :mod:`repro.verify.digest`) that
#: :meth:`ResultStore.get` verifies on read — older records lack it,
#: so they re-run rather than dodge the integrity check.
RESULT_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class JobKey:
    """Names one (design, workload, knobs) simulation deterministically."""

    design: AccordDesign
    workload: str
    num_accesses: int
    warmup: float = DEFAULT_WARMUP
    seed: int = 7
    scale: float = 1.0 / 128.0
    # None normalizes to ``scale``; cache-size sweeps pin it elsewhere.
    footprint_scale: Optional[float] = None
    # Demand reads per phase-metrics sample; None disables the observer.
    epoch: Optional[int] = None
    # Drive engine request. Excluded from canonical(): engines are
    # bit-identical, so the choice never forks the memo space — a result
    # computed under any engine satisfies the same key.
    engine: str = "auto"

    def __post_init__(self):
        if self.num_accesses <= 0:
            raise ConfigError("num_accesses must be positive")
        if not 0.0 <= self.warmup < 1.0:
            raise ConfigError("warmup fraction must be in [0, 1)")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")
        if self.epoch is not None and self.epoch <= 0:
            raise ConfigError(f"epoch must be positive, got {self.epoch}")
        from repro.sim.engines import ENGINE_NAMES

        if self.engine not in ENGINE_NAMES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if self.footprint_scale is None:
            object.__setattr__(self, "footprint_scale", self.scale)

    def canonical(self) -> Dict[str, Any]:
        """JSON-safe dict of everything that determines the result."""
        design = asdict(self.design)
        design.pop("label")
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "design": design,
            "workload": self.workload,
            "num_accesses": self.num_accesses,
            "warmup": self.warmup,
            "seed": self.seed,
            "scale": self.scale,
            "footprint_scale": self.footprint_scale,
            "epoch": self.epoch,
        }

    def digest(self) -> str:
        """Content address: SHA-256 over the canonical form (memoized)."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = json.dumps(
                self.canonical(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("ascii")).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def display(self) -> str:
        return f"{self.design.display_name} / {self.workload}"


# Per-process trace memo: workers (and the serial in-process path) reuse
# one TraceFactory per knob tuple so a workload's trace is generated once
# no matter how many designs replay it.
_FACTORY_CACHE: Dict[Tuple[float, int, int, float], TraceFactory] = {}
_FACTORY_CACHE_MAX = 4


def _trace_factory(key: JobKey) -> TraceFactory:
    cache_key = (key.scale, key.num_accesses, key.seed, key.footprint_scale)
    factory = _FACTORY_CACHE.get(cache_key)
    if factory is None:
        if len(_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
            _FACTORY_CACHE.pop(next(iter(_FACTORY_CACHE)))
        factory = TraceFactory(
            scaled_system(ways=1, scale=key.scale),
            key.num_accesses,
            key.seed,
            footprint_scale=key.footprint_scale,
        )
        _FACTORY_CACHE[cache_key] = factory
    return factory


@dataclass(frozen=True)
class ShardTask:
    """One set-range shard of a :class:`JobKey`'s simulation.

    The parallel executor flattens shardable jobs into these so one
    job's shards spread over the worker pool; shard outcomes are merged
    back into the job's :class:`RunResult` by
    :func:`repro.sim.shard.merge_outcomes`. Mirrors JobKey's
    ``digest()``/``display`` surface so claims, retries, the watchdog
    and the journal handle both item kinds uniformly.
    """

    job: JobKey
    index: int
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"shard count must be >= 2, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ConfigError(
                f"shard index {self.index} out of range for {self.count} shards"
            )

    def digest(self) -> str:
        return f"{self.job.digest()}-s{self.index}of{self.count}"

    @property
    def display(self) -> str:
        return f"{self.job.display} [shard {self.index + 1}/{self.count}]"


def plan_shards(key: JobKey, shards: int) -> int:
    """Effective shard count for a job: 1 means run it whole.

    A job shards when the vector kernel has a plan for a fresh cache of
    its design (:func:`repro.sim.shard.shard_block`); a design with
    global policy state gets 1 (after a one-time fallback warning
    naming the declined role — never sharded silently wrong), and a
    shardable one gets at most one shard per cache set. The answer
    comes from :func:`_probe`, so a 16-design sweep probes each design
    once, not once per workload.

    Also the parent-side home of the engine-fallback warning: workers
    suppress it (warn-once state is per-process, so N workers would
    each print a copy), so an explicitly requested engine is resolved
    here, in the planning process, exactly once per design.
    """
    if key.engine != "auto":
        _probe(key)  # parent-side resolve; fallback warns here
    if shards <= 1:
        return 1
    from repro.sim.shard import effective_shard_count, warn_serial_fallback

    probe = _probe(key)
    if probe.shard_block is not None:
        warn_serial_fallback(key.design, probe.shard_block)
        return 1
    return effective_shard_count(shards, probe.num_sets)


class _DesignProbe(NamedTuple):
    """What one probe cache says about a design (see :func:`_probe`)."""

    engine: str  # the concrete engine the request resolves to
    num_sets: int
    shard_block: Optional[str]  # role keeping it off set-sharding


def _probe(key: JobKey) -> _DesignProbe:
    """Resolve ``key``'s engine request and shard eligibility on one
    fresh probe cache, memoized per (design, scale, engine request).

    Engine-fallback warnings fire here, in whichever process plans or
    executes first, and at most once.
    """
    from repro.sim.engines import resolve_engine
    from repro.sim.shard import shard_block
    from repro.sim.system import build_dram_cache

    memo_key = (repr(key.design), key.scale, key.engine)
    probe = _PROBES.get(memo_key)
    if probe is None:
        config = scaled_system(ways=key.design.ways, scale=key.scale)
        cache = build_dram_cache(key.design, config, seed=key.seed)
        engine = resolve_engine(cache, requested=key.engine, design=key.design)
        probe = _DesignProbe(
            engine.name, cache.geometry.num_sets, shard_block(cache)
        )
        _PROBES[memo_key] = probe
    return probe


_PROBES: Dict[Tuple[str, float, str], _DesignProbe] = {}


def execute_shard(task: ShardTask):
    """Run one shard of a job (worker entry point; picklable).

    Rebuilds the trace through the per-process factory memo (shared
    disk trace cache underneath), slices out this shard's records, and
    returns the picklable :class:`~repro.sim.shard.ShardOutcome`.
    """
    from repro.sim.shard import run_shard

    key = task.job
    fault_point(SITE_JOB, token=task.digest())
    config = scaled_system(ways=key.design.ways, scale=key.scale)
    trace = _trace_factory(key).trace_for(key.workload)
    return run_shard(
        config,
        key.design,
        trace,
        task.index,
        task.count,
        warmup=key.warmup,
        epoch=key.epoch,
        seed=key.seed,
        engine=_shard_engine(key),
    )


def _shard_engine(key: JobKey) -> str:
    """Concrete engine name for one shard of ``key``'s simulation.

    Shard workers need a non-"auto" engine (drive_shard does not
    resolve), so the request is resolved on the design's probe cache.
    """
    return _probe(key).engine


def clear_engine_plans() -> None:
    """Flush the per-process design-probe memo.

    The circuit breaker (:mod:`repro.verify.breaker`) calls this when
    it demotes an engine: the memo caches pre-trip resolutions, and a
    stale entry would keep routing jobs onto the engine that was just
    caught producing a wrong answer.
    """
    _PROBES.clear()


def execute_shard_traced(task: ShardTask, claims_dir: str):
    """Shard worker entry with claim markers (see execute_job_traced)."""
    digest = task.digest()
    write_claim(claims_dir, digest)
    result = execute_shard(task)
    complete_claim(claims_dir, digest)
    return result


def execute_job(key: JobKey) -> RunResult:
    """Run the simulation a key names (worker entry point; picklable)."""
    fault_point(SITE_JOB, token=key.digest())
    config = scaled_system(ways=key.design.ways, scale=key.scale)
    result = run_design(
        key.design,
        key.workload,
        config=config,
        traces=_trace_factory(key),
        num_accesses=key.num_accesses,
        warmup=key.warmup,
        seed=key.seed,
        epoch=key.epoch,
        engine=key.engine,
    )
    fault_point(SITE_ENGINE_RESULT, token=key.digest(), obj=result)
    return result


def execute_job_sharded(key: JobKey, shards: int) -> RunResult:
    """Run one job split over an intra-run shard pool.

    Entry point for the ``jobs=1, shards>1`` configuration: the single
    simulation itself fans out over ``shards`` worker processes
    (:func:`repro.sim.shard.run_sharded`). Falls back to the exact
    serial path for non-shardable designs and never nests pools (the
    worker-process guard runs shards inline there). Bit-identical to
    :func:`execute_job`.
    """
    from repro.sim.shard import run_sharded

    fault_point(SITE_JOB, token=key.digest())
    config = scaled_system(ways=key.design.ways, scale=key.scale)
    trace = _trace_factory(key).trace_for(key.workload)
    result = run_sharded(
        config,
        key.design,
        trace,
        warmup=key.warmup,
        epoch=key.epoch,
        shards=shards,
        seed=key.seed,
        engine=key.engine,
    )
    fault_point(SITE_ENGINE_RESULT, token=key.digest(), obj=result)
    return result


def execute_job_traced(key: JobKey, claims_dir: str) -> RunResult:
    """Worker entry recording start/done claim markers around the job.

    The markers (``<digest>.started`` holding ``pid started_at``, and
    ``<digest>.done``) let the parallel executor's watchdog attribute a
    pool break or a wall-clock timeout to the specific jobs that were
    in flight on the dead worker, instead of penalizing the whole
    remaining batch.
    """
    digest = key.digest()
    write_claim(claims_dir, digest)
    result = execute_job(key)
    complete_claim(claims_dir, digest)
    return result


# Field coercions for ``key=value`` parts of a design spec string.
_SPEC_FIELD_TYPES = {
    "ways": int,
    "pip": float,
    "hashes": int,
    "rit_entries": int,
    "rlt_entries": int,
    "region_size": int,
    "replacement": str,
    "partial_tag_bits": int,
    "dcp": str,
    "label": str,
}


def parse_design_spec(spec: str) -> AccordDesign:
    """Parse a CLI design spec into an :class:`AccordDesign`.

    Grammar: ``kind[:ways[:hashes]][:key=value...]`` — e.g. ``direct``,
    ``accord:2``, ``sws:8:4``, ``pws:2:pip=0.9``. The bare ``hashes``
    position is only meaningful for ``sws``.
    """
    parts = [p.strip() for p in spec.strip().split(":") if p.strip()]
    if not parts:
        raise ConfigError(f"empty design spec {spec!r}")
    kind, rest = parts[0], parts[1:]
    if kind not in DESIGN_KINDS:
        raise ConfigError(
            f"unknown design kind {kind!r}; expected one of {', '.join(DESIGN_KINDS)}"
        )
    kwargs: Dict[str, Any] = {}
    positional = ("ways", "hashes") if kind == "sws" else ("ways",)
    for name in positional:
        if rest and "=" not in rest[0]:
            try:
                kwargs[name] = int(rest.pop(0))
            except ValueError as exc:
                raise ConfigError(f"bad {name} in design spec {spec!r}") from exc
    for part in rest:
        if "=" not in part:
            raise ConfigError(
                f"design spec {spec!r}: expected key=value, got {part!r}"
            )
        name, value = part.split("=", 1)
        coerce = _SPEC_FIELD_TYPES.get(name)
        if coerce is None:
            raise ConfigError(f"design spec {spec!r}: unknown field {name!r}")
        try:
            kwargs[name] = coerce(value)
        except ValueError as exc:
            raise ConfigError(f"design spec {spec!r}: bad value for {name}") from exc
    return AccordDesign(kind=kind, **kwargs)
