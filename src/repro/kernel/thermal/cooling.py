"""Cooling devices: the actuators of thermal governors.

A cooling device maps an integer state (0 = no cooling) onto a frequency cap
of one DVFS policy, exactly like the kernel's ``cpufreq_cooling`` /
``devfreq_cooling`` drivers: state ``s`` disallows the top ``s`` OPPs.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.kernel.cpufreq.policy import DvfsPolicy


class CoolingDevice:
    """Abstract cooling device with a bounded integer state."""

    def __init__(self, name: str, max_state: int) -> None:
        if max_state < 1:
            raise ConfigurationError(f"cooling device {name!r}: max_state must be >= 1")
        self.name = name
        self.max_state = max_state
        self._cur_state = 0
        self._frozen = False

    @property
    def cur_state(self) -> int:
        """Current throttle state (0 = unthrottled)."""
        return self._cur_state

    @property
    def frozen(self) -> bool:
        """Whether the device is ignoring state changes (fault injection)."""
        return self._frozen

    def freeze(self) -> None:
        """Stop accepting state changes — a stuck cooling actuator."""
        self._frozen = True

    def unfreeze(self) -> None:
        """Resume accepting state changes."""
        self._frozen = False

    def set_state(self, state: int) -> None:
        """Set the throttle state, clamped to [0, max_state].

        A frozen device ignores the request, exactly like a fan whose
        control line is dead: the governor keeps commanding, nothing moves.
        """
        if self._frozen:
            return
        self._cur_state = min(max(int(state), 0), self.max_state)
        self._apply()

    def _apply(self) -> None:
        raise NotImplementedError


class DvfsCoolingDevice(CoolingDevice):
    """Caps a :class:`DvfsPolicy` — state ``s`` removes the top ``s`` OPPs."""

    def __init__(self, name: str, policy: DvfsPolicy) -> None:
        super().__init__(name, max_state=len(policy.opps) - 1)
        self._policy = policy
        self._apply()

    @property
    def policy(self) -> DvfsPolicy:
        """The capped policy."""
        return self._policy

    def cap_hz(self) -> float:
        """Frequency cap implied by the current state."""
        freqs = self._policy.opps.frequencies_hz()
        return freqs[len(freqs) - 1 - self._cur_state]

    def _apply(self) -> None:
        self._policy.set_thermal_max(self.cap_hz())

    def state_for_cap(self, freq_hz: float) -> int:
        """State whose cap is the highest OPP at or below ``freq_hz``."""
        freqs = self._policy.opps.frequencies_hz()
        capped = self._policy.opps.floor(max(freq_hz, freqs[0])).freq_hz
        return len(freqs) - 1 - self._policy.opps.index_of(capped)

    def state_for_power(self, budget_w: float, powers_w: Sequence[float]) -> int:
        """State capping at the fastest OPP whose power fits ``budget_w``.

        ``powers_w`` holds the power at every OPP, ascending (an IPA power
        table); it must be non-decreasing in frequency (guaranteed by OPP
        monotonicity).
        """
        freqs = self._policy.opps.frequencies_hz()
        chosen = freqs[0]
        for f, power_w in zip(freqs, powers_w):
            if power_w <= budget_w:
                chosen = f
            else:
                break
        return self.state_for_cap(chosen)
