"""Structural interfaces for every pluggable cache policy.

The access path (:mod:`repro.cache.access_path`) composes four policy
roles — install steering, way prediction, victim replacement, and the
DCP writeback directory. Historically the roles were defined by base
classes plus duck-typed probes (``getattr(dcp, "authoritative",
True)``); these :class:`typing.Protocol` definitions make the contracts
explicit and runtime-checkable, so a policy either conforms or fails
loudly at design-construction time instead of deep inside a run.

All protocols are structural: conformance needs no inheritance, only
the right members. The concrete policies in :mod:`repro.core` and
:mod:`repro.cache` all satisfy them (asserted by the test suite and by
:func:`ensure_policy_conformance`, which :func:`repro.core.accord.make_design`
calls on every cache it assembles).

Conformance says nothing about execution: which array engine can drive
a cache, and whether a run may be split into set shards, is decided by
the engines' plan builders (:func:`repro.sim.engines.vector.build_plan`
and the replay engine's ``_build_replay_plan``). They dispatch on exact
policy types and, on decline, name the role they rejected.

Import direction note: core -> cache imports are the allowed direction,
so this module may import :mod:`repro.cache.replacement`; the cache
package, however, must never import this module at runtime (that would
cycle through ``repro.core.__init__``) — cache modules name these types
in annotations only.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.cache.replacement import ReplacementPolicy
from repro.errors import PolicyError

if TYPE_CHECKING:  # hints only; keeps the module cheap to import
    from repro.cache.geometry import CacheGeometry
    from repro.cache.storage import TagStore


@runtime_checkable
class InstallSteeringPolicy(Protocol):
    """Decides where lines may live and where fills land.

    ``candidate_ways`` defines the legal residence set for a tag (what
    miss confirmation must probe); ``choose_install_way`` picks the fill
    target from that set. ``on_install`` lets stateful policies (GWS's
    RIT) observe committed installs.
    """

    name: str
    geometry: "CacheGeometry"
    ways: int
    #: Constant candidate set, or None when candidates vary per tag.
    #: Required: every steering policy must declare the attribute (the
    #: access path reads it directly — no runtime probe). Validated by
    #: :func:`ensure_policy_conformance` at design-build time.
    static_candidates: Optional[Sequence[int]]

    def candidate_ways(self, set_index: int, tag: int) -> Sequence[int]: ...

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: "TagStore",
        replacement: ReplacementPolicy,
    ) -> int: ...

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None: ...

    def storage_bits(self) -> int: ...


@runtime_checkable
class WayPredictorPolicy(Protocol):
    """Names the way to probe first on a read.

    ``on_access``/``on_install``/``on_evict`` are the observation hooks
    stateful predictors (MRU, partial-tag, GWS's RLT) learn from; the
    stateless predictors inherit no-op implementations.
    """

    name: str
    geometry: "CacheGeometry"
    ways: int

    def predict(self, set_index: int, tag: int, addr: int) -> int: ...

    def on_access(
        self, set_index: int, tag: int, addr: int, way: Optional[int], hit: bool
    ) -> None: ...

    def on_install(self, set_index: int, tag: int, addr: int, way: int) -> None: ...

    def on_evict(self, set_index: int, tag: int, way: int) -> None: ...

    def storage_bits(self) -> int: ...


@runtime_checkable
class DcpDirectoryPolicy(Protocol):
    """Writeback way-information source (the paper's extended DCP).

    ``authoritative`` is the contract the access path branches on: True
    means a ``lookup`` miss *proves* the line is absent, so a writeback
    may bypass straight to NVM; False (a finite directory that forgets)
    means a miss is inconclusive and the writeback must probe. This
    replaces the old ``getattr(dcp, "authoritative", True)`` duck-typed
    probe — every directory must declare the attribute.
    """

    authoritative: bool

    def lookup(self, line_addr: int) -> Optional[int]: ...

    def insert(self, line_addr: int, way: int) -> None: ...

    def remove(self, line_addr: int) -> None: ...

    def hit_rate(self) -> float: ...


def ensure_policy_conformance(cache) -> None:
    """Validate a cache's policies against the protocols.

    Raises :class:`~repro.errors.PolicyError` naming the offending role.
    Called by :func:`repro.core.accord.make_design` after assembly so a
    malformed custom policy fails at build time, not mid-simulation.
    """
    checks = (
        ("steering", getattr(cache, "steering", None), InstallSteeringPolicy, False),
        ("predictor", getattr(cache, "predictor", None), WayPredictorPolicy, True),
        ("replacement", getattr(cache, "replacement", None), ReplacementPolicy, False),
        ("dcp", getattr(cache, "dcp", None), DcpDirectoryPolicy, True),
    )
    for role, policy, protocol, optional in checks:
        if policy is None:
            if optional:
                continue
            raise PolicyError(f"cache has no {role} policy")
        if not isinstance(policy, protocol):
            raise PolicyError(
                f"{role} policy {type(policy).__name__} does not conform to "
                f"{protocol.__name__}"
            )
    _check_static_candidates(cache.steering)


def _check_static_candidates(steering) -> None:
    """Validate the steering policy's ``static_candidates`` declaration.

    ``static_candidates`` (required attribute, None allowed) is the
    hot-loop contract the access path relies on: when not None,
    ``candidate_ways`` must return exactly that sequence for every
    (set, tag). The access path reads the attribute directly — no
    runtime probe — so a policy must declare it (None means "candidates
    vary per tag, call ``candidate_ways``"). This one build-time check
    replaces millions of run-time ones, so a policy that lies here
    would silently corrupt candidate accounting. Checked once, at
    design-build time, with a representative probe.
    """
    try:
        static = steering.static_candidates
    except AttributeError:
        raise PolicyError(
            f"steering policy {type(steering).__name__} does not declare "
            f"static_candidates (set it to None when candidate sets vary "
            f"per tag)"
        ) from None
    if static is None:
        return
    declared = tuple(static)
    probe = tuple(steering.candidate_ways(0, 0))
    if probe != declared:
        raise PolicyError(
            f"steering policy {type(steering).__name__} declares "
            f"static_candidates={declared} but candidate_ways(0, 0) "
            f"returned {probe}"
        )


__all__ = [
    "InstallSteeringPolicy",
    "WayPredictorPolicy",
    "ReplacementPolicy",
    "DcpDirectoryPolicy",
    "ensure_policy_conformance",
]
