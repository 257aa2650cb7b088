"""Set-dueling adaptive PIP — an extension beyond the paper.

The paper fixes PIP at 85% after a static sweep (Table V), noting that
PIP trades hit-rate (flexibility) for way-predictability. The best
trade-off is workload-dependent: insensitive workloads would rather run
direct-mapped-like (PIP→1: fewer mispredicts) while conflict-heavy
workloads want flexibility (lower PIP). Set-dueling (Qureshi et al.'s
DIP mechanism) resolves this at runtime with zero extra way-prediction
state:

* a few *leader sets* always steer with ``pip_low``, an equal group
  always with ``pip_high``;
* a saturating counter (PSEL) scores which leader group suffers fewer
  misses;
* all *follower sets* adopt the winning PIP.

Storage: the PSEL counter (10 bits) — leader-set membership is a pure
address decode, as in DIP.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import ReplacementPolicy
from repro.cache.storage import TagStore
from repro.core.pws import ProbabilisticWaySteering
from repro.core.steering import InstallSteering
from repro.errors import PolicyError
from repro.utils.rng import XorShift64

PSEL_BITS = 10
_LEADER_STRIDE_BITS = 5  # 1 in 32 sets leads for each policy


class DuelingPwsSteering(InstallSteering):
    """PWS whose PIP is chosen at runtime by set-dueling."""

    name = "dueling-pws"

    def __init__(
        self,
        geometry: CacheGeometry,
        pip_low: float = 0.70,
        pip_high: float = 0.95,
        rng: Optional[XorShift64] = None,
        psel_bits: int = PSEL_BITS,
    ):
        super().__init__(geometry)
        if not 0.0 <= pip_low < pip_high <= 1.0:
            raise PolicyError(
                f"need 0 <= pip_low < pip_high <= 1, got {pip_low}, {pip_high}"
            )
        if geometry.num_sets < (1 << (_LEADER_STRIDE_BITS + 1)):
            raise PolicyError("too few sets to dedicate dueling leaders")
        rng = rng or XorShift64(0xD0E1)
        self._low = ProbabilisticWaySteering(geometry, pip=pip_low, rng=rng.fork(1))
        self._high = ProbabilisticWaySteering(geometry, pip=pip_high, rng=rng.fork(2))
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        self._stride_mask = (1 << _LEADER_STRIDE_BITS) - 1

    # -- leader-set decode ---------------------------------------------------

    def is_low_leader(self, set_index: int) -> bool:
        """Sets 0, 64, 128... (even leader slots) duel for pip_low."""
        return (set_index & self._stride_mask) == 0 and not (
            set_index >> _LEADER_STRIDE_BITS
        ) & 1

    def is_high_leader(self, set_index: int) -> bool:
        """Sets 32, 96, 160... (odd leader slots) duel for pip_high."""
        return (set_index & self._stride_mask) == 0 and (
            set_index >> _LEADER_STRIDE_BITS
        ) & 1

    @property
    def followers_use_low(self) -> bool:
        """PSEL above midpoint means the low-PIP leaders miss less."""
        return self.psel > self.psel_max // 2

    def current_pip(self, set_index: int) -> float:
        if self.is_low_leader(set_index):
            return self._low.pip
        if self.is_high_leader(set_index):
            return self._high.pip
        return self._low.pip if self.followers_use_low else self._high.pip

    # -- PSEL updates ----------------------------------------------------------

    def observe_miss(self, set_index: int) -> None:
        """Called by the cache on every demand miss (leader sets vote)."""
        if self.is_low_leader(set_index):
            # Low-PIP leaders missing is evidence against low PIP.
            self.psel = max(self.psel - 1, 0)
        elif self.is_high_leader(set_index):
            self.psel = min(self.psel + 1, self.psel_max)

    # -- InstallSteering API ----------------------------------------------------

    def choose_install_way(
        self,
        set_index: int,
        tag: int,
        addr: int,
        store: TagStore,
        replacement: ReplacementPolicy,
    ) -> int:
        self.observe_miss(set_index)  # installs happen on misses
        if self.current_pip(set_index) == self._low.pip:
            return self._low.choose_install_way(set_index, tag, addr, store,
                                                replacement)
        return self._high.choose_install_way(set_index, tag, addr, store,
                                             replacement)

    def storage_bits(self) -> int:
        return PSEL_BITS  # leader decode is combinational
