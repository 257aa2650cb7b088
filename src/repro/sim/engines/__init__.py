"""Pluggable drive engines and the plan-based resolver.

Four engines implement the :class:`~repro.sim.engines.base.Engine`
contract, ordered fastest-first:

* ``vector`` — whole-trace numpy kernel; deterministic set-local
  designs only (those :func:`repro.sim.engines.vector.build_plan`
  accepts).
* ``replay`` — vectorized precompute around a fused scalar replay of
  the sparse global-state events; the GWS/ACCORD/dueling stacks and
  the column-associative cache (those the replay engine's
  ``_build_replay_plan`` accepts).
* ``stream`` — the batched ``run_stream`` hot loop; any cache with an
  access path.
* ``loop`` — the per-address reference loop; every cache.

The two array engines' plan builders are the only eligibility
declaration: they dispatch on exact policy types, check the
fresh-cache contract, and on decline name the role they rejected
(``steering``, ``predictor``, ``replacement``, ``dcp``, ``lookup`` or
``cache``), which the fallback warning prints.

:func:`resolve_engine` replaces the old scattered ``hasattr`` probes:
``auto`` silently picks the fastest supported engine; an explicitly
requested engine that cannot drive the cache falls down the same chain
with a one-time warning (mirroring the shard driver's serial fallback),
or raises under ``strict``. All engines are bit-identical where they
overlap, so the choice never changes results — which is why
:class:`~repro.exec.jobs.JobKey` excludes the engine from its canonical
identity.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engines.base import Engine, Segment, TraceStream, serial_segments
from repro.verify.breaker import is_tripped
from repro.sim.engines.loop import PerAccessEngine
from repro.sim.engines.replay import SparseReplayEngine, _build_replay_plan
from repro.sim.engines.stream import StreamEngine
from repro.sim.engines.vector import VectorEngine, build_plan

#: Accepted ``--engine`` values, resolver preference order after "auto".
ENGINE_NAMES: Tuple[str, ...] = ("auto", "vector", "replay", "stream", "loop")

ENGINES = {
    "vector": VectorEngine(),
    "replay": SparseReplayEngine(),
    "stream": StreamEngine(),
    "loop": PerAccessEngine(),
}

#: Fallback chain: an unsupported explicit request degrades in this
#: order until an engine supports the cache (loop always does).
_CHAIN = ("vector", "replay", "stream", "loop")

_ENGINE_FALLBACK_WARNED: set = set()

#: Plan builders of the engines that can decline a cache with an access
#: path; each returns its plan or the name of the role it rejected.
_PLAN_BUILDERS = {"vector": build_plan, "replay": _build_replay_plan}


def get_engine(name: str) -> Engine:
    """The engine registered under ``name`` (not "auto")."""
    try:
        return ENGINES[name]
    except KeyError:
        raise SimulationError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
        ) from None


def warn_engine_fallback(design, cache, requested: str, fallback: str) -> None:
    """One-time warning that an explicit engine request was downgraded.

    Names the role the requested engine's plan builder rejected (the
    stream engine declines only caches without an access path, so its
    role is always ``cache``). Inside shard/job pool workers the
    warning is suppressed entirely: warn-once state is per-process, so
    N workers would each print their own copy. The parent resolves
    (and warns) once when it plans the run — see
    :func:`repro.sim.shard.run_sharded` and
    :func:`repro.exec.jobs.plan_shards`.
    """
    builder = _PLAN_BUILDERS.get(requested)
    role = builder(cache) if builder is not None else "cache"
    if design is not None:
        label = design.display_name
    else:
        label = type(cache).__name__
    key = (requested, label, role)
    if key in _ENGINE_FALLBACK_WARNED:
        return
    _ENGINE_FALLBACK_WARNED.add(key)
    from repro.sim.shard import in_worker_process  # deferred: shard imports us

    if in_worker_process():
        return
    warnings.warn(
        f"design {label!r}: the {requested} engine declines its {role}; "
        f"--engine {requested} ignored, running {fallback} "
        f"(results stay exact)",
        RuntimeWarning,
        stacklevel=3,
    )


def _warn_breaker_fallback(design, cache, requested: str, fallback: str) -> None:
    """One-time warning that a request hit a circuit-broken engine."""
    key = ("breaker", requested, fallback)
    if key in _ENGINE_FALLBACK_WARNED:
        return
    _ENGINE_FALLBACK_WARNED.add(key)
    from repro.sim.shard import in_worker_process  # deferred: shard imports us

    if in_worker_process():
        return
    warnings.warn(
        f"--engine {requested} is circuit-broken after a verification "
        f"mismatch; running {fallback} instead (results stay exact)",
        RuntimeWarning,
        stacklevel=3,
    )


def _first_supported(cache, names) -> Optional[str]:
    """First engine of ``names`` not circuit-broken that supports ``cache``."""
    for name in names:
        if not is_tripped(name) and ENGINES[name].supports(cache):
            return name
    return None


def resolve_engine(
    cache,
    requested: str = "auto",
    strict: bool = False,
    design=None,
) -> Engine:
    """Pick the engine that drives ``cache``, honoring the request.

    ``auto`` returns the fastest supported engine, silently. An explicit
    request is honored when supported; otherwise ``strict`` raises
    :class:`SimulationError`, and the default falls down the chain
    (vector → replay → stream → loop) with a one-time
    :func:`warn_engine_fallback` warning.

    Engines demoted by the verification circuit breaker
    (:mod:`repro.verify.breaker`) are skipped everywhere: ``auto``
    silently resolves past them, and an explicit request for a tripped
    engine degrades down the chain with a one-time warning (or raises
    under ``strict``) — the sweep finishes on a trusted engine.
    """
    if requested not in ENGINE_NAMES:
        raise SimulationError(
            f"unknown engine {requested!r}; expected one of {ENGINE_NAMES}"
        )
    if requested == "auto":
        return ENGINES[_first_supported(cache, _CHAIN) or "loop"]
    if is_tripped(requested):
        if strict:
            raise SimulationError(
                f"engine {requested!r} is circuit-broken after a "
                f"verification mismatch (--engine-strict); use --engine "
                f"auto to fall back"
            )
        warn = _warn_breaker_fallback
    else:
        engine = ENGINES[requested]
        if engine.supports(cache):
            return engine
        if strict:
            label = design.label or design.kind if design is not None else type(cache).__name__
            raise SimulationError(
                f"engine {requested!r} cannot drive design {label!r} exactly "
                f"(--engine-strict); use --engine auto to fall back"
            )
        warn = warn_engine_fallback
    name = _first_supported(cache, _CHAIN[_CHAIN.index(requested) + 1:])
    if name is None:
        return ENGINES["loop"]
    warn(design, cache, requested, name)
    return ENGINES[name]


__all__ = [
    "ENGINES",
    "ENGINE_NAMES",
    "Engine",
    "PerAccessEngine",
    "Segment",
    "SparseReplayEngine",
    "StreamEngine",
    "TraceStream",
    "VectorEngine",
    "get_engine",
    "resolve_engine",
    "serial_segments",
    "warn_engine_fallback",
]
