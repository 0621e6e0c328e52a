"""DVFS policy objects (cpufreq policies and the GPU devfreq policy).

A :class:`DvfsPolicy` owns the current frequency of one frequency domain,
the user min/max limits, the *thermal* cap imposed by cooling devices, the
``time_in_state`` residency accounting that the paper's Figures 2/4/6 are
built from, and the utilisation window its governor consumes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.soc.opp import OppTable
from repro.units import hz_to_khz


class DvfsPolicy:
    """Frequency-domain state: current OPP, limits, residency, utilisation."""

    def __init__(
        self,
        name: str,
        opps: OppTable,
        initial_freq_hz: float | None = None,
    ) -> None:
        self.name = name
        self.opps = opps
        self._user_min_hz = opps.min_freq_hz
        self._user_max_hz = opps.max_freq_hz
        self._thermal_max_hz = opps.max_freq_hz
        start = opps.max_freq_hz if initial_freq_hz is None else initial_freq_hz
        self._cur_freq_hz = opps.floor(opps.clamp(start)).freq_hz
        # The residency key of the current frequency, kept in step with it.
        self._cur_khz = hz_to_khz(self._cur_freq_hz)
        self._time_in_state: dict[int, float] = {
            khz: 0.0 for khz in opps.frequencies_khz()
        }
        self._total_transitions = 0
        self._transitions: dict[tuple[int, int], int] = {}
        self._busy_integral_s = 0.0
        self._elapsed_s = 0.0
        self._last_util = 0.0
        self._last_mean_util = 0.0
        self._boost_until_s = -1.0
        self._last_raise_s = -1.0

    # -------------------------------------------------------------- limits

    @property
    def cur_freq_hz(self) -> float:
        """Current operating frequency."""
        return self._cur_freq_hz

    @property
    def user_min_hz(self) -> float:
        """scaling_min_freq."""
        return self._user_min_hz

    @property
    def user_max_hz(self) -> float:
        """scaling_max_freq."""
        return self._user_max_hz

    @property
    def thermal_max_hz(self) -> float:
        """Cap currently imposed by cooling devices."""
        return self._thermal_max_hz

    @property
    def effective_max_hz(self) -> float:
        """Lowest of the user and thermal caps."""
        return min(self._user_max_hz, self._thermal_max_hz)

    def set_user_limits(self, min_hz: float, max_hz: float) -> None:
        """Set scaling_min_freq / scaling_max_freq."""
        if min_hz > max_hz:
            raise ConfigurationError(
                f"policy {self.name!r}: min {min_hz} above max {max_hz}"
            )
        self._user_min_hz = self.opps.clamp(min_hz)
        self._user_max_hz = self.opps.clamp(max_hz)
        self._reclamp()

    def set_thermal_max(self, max_hz: float) -> None:
        """Apply a cooling-device cap (use table max to lift it)."""
        self._thermal_max_hz = self.opps.clamp(max_hz)
        self._reclamp()

    def _reclamp(self) -> None:
        target = self._cur_freq_hz
        if target > self.effective_max_hz:
            target = self.opps.floor(self.effective_max_hz).freq_hz
        if target < self._user_min_hz:
            target = self.opps.ceil(self._user_min_hz).freq_hz
        self._commit(target)

    def _commit(self, target_hz: float) -> None:
        """Record and apply a frequency change."""
        if abs(target_hz - self._cur_freq_hz) > 0.5:
            self._total_transitions += 1
            key = (hz_to_khz(self._cur_freq_hz), hz_to_khz(target_hz))
            self._transitions[key] = self._transitions.get(key, 0) + 1
        self._cur_freq_hz = target_hz
        self._cur_khz = hz_to_khz(target_hz)

    def set_target(self, freq_hz: float, now_s: float | None = None) -> float:
        """Request a frequency; it is clamped to limits and snapped to an OPP.

        Returns the frequency actually set.  ``now_s`` lets the policy track
        when the frequency was last raised (used by interactive-style
        hysteresis).
        """
        effective_max_hz = min(self._user_max_hz, self._thermal_max_hz)
        clamped = min(max(freq_hz, self._user_min_hz), effective_max_hz)
        # Snap up so a demand between OPPs is satisfied, then re-clamp.
        target = self.opps.ceil(clamped).freq_hz
        if target > effective_max_hz:
            target = self.opps.floor(effective_max_hz).freq_hz
        if now_s is not None and target > self._cur_freq_hz:
            self._last_raise_s = now_s
        self._commit(target)
        return target

    @property
    def last_raise_s(self) -> float:
        """Time of the most recent frequency increase (-1 if never)."""
        return self._last_raise_s

    # --------------------------------------------------------- accounting

    def account(
        self, dt_s: float, busy_fraction: float, mean_util: float | None = None
    ) -> None:
        """Record one tick of residency and utilisation at the current OPP.

        ``busy_fraction`` is what per-CPU governors react to (the busiest
        core); ``mean_util`` is the whole-domain average used for power
        estimation (defaults to ``busy_fraction`` for single-unit domains).
        """
        khz = self._cur_khz
        self._time_in_state[khz] = self._time_in_state.get(khz, 0.0) + dt_s
        self._busy_integral_s += busy_fraction * dt_s
        self._elapsed_s += dt_s
        self._last_util = busy_fraction
        self._last_mean_util = busy_fraction if mean_util is None else mean_util

    def take_utilization(self) -> float:
        """Average busy fraction since the last call (and reset the window)."""
        if self._elapsed_s <= 0.0:
            return self._last_util
        util = self._busy_integral_s / self._elapsed_s
        self._busy_integral_s = 0.0
        self._elapsed_s = 0.0
        return util

    @property
    def last_util(self) -> float:
        """Busy fraction of the most recent accounted tick (busiest core)."""
        return self._last_util

    @property
    def last_mean_util(self) -> float:
        """Whole-domain mean utilisation of the most recent tick."""
        return self._last_mean_util

    @property
    def time_in_state(self) -> dict[int, float]:
        """Seconds spent at each frequency, keyed by kHz (sysfs format)."""
        return dict(self._time_in_state)

    def reset_time_in_state(self) -> None:
        """Zero the residency counters (e.g. at measurement start)."""
        for khz in self._time_in_state:
            self._time_in_state[khz] = 0.0

    @property
    def total_transitions(self) -> int:
        """Number of frequency changes so far (cpufreq stats/total_trans)."""
        return self._total_transitions

    @property
    def transitions(self) -> dict[tuple[int, int], int]:
        """(from_khz, to_khz) -> count, the devfreq trans_stat matrix."""
        return dict(self._transitions)

    # -------------------------------------------------------------- boost

    def notify_input(self, now_s: float, duration_s: float = 0.5) -> None:
        """Signal a user-input event (interactive governor boost)."""
        self._boost_until_s = max(self._boost_until_s, now_s + duration_s)

    def boosted(self, now_s: float) -> bool:
        """Whether an input boost is currently active."""
        return now_s < self._boost_until_s
