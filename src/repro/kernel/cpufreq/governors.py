"""Frequency governors.

Reimplementations of the Linux/Android governor policies the paper's
experiments depend on:

* ``performance`` / ``powersave`` / ``userspace`` — trivial anchors.
* ``ondemand`` — jump to max above an up-threshold, else track demand.
* ``interactive`` — the Android governor the paper calls out in the
  introduction: input events boost to ``hispeed_freq``; otherwise the
  frequency tracks utilisation against a target load, with a minimum dwell
  time before lowering.
* ``adreno_tz`` / ``simple_ondemand`` — step-based GPU devfreq policies:
  step up while busy exceeds an up-threshold, step down below a low
  threshold.  Step policies are what produce the *spread* of GPU-frequency
  residencies seen in the paper's Figures 2 and 4.

Every governor manipulates its policy only through
:meth:`repro.kernel.cpufreq.policy.DvfsPolicy.set_target`, so user and
thermal caps are always honoured.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.kernel.cpufreq.policy import DvfsPolicy


class FreqGovernor:
    """Base class: periodic ``update`` calls decide the next frequency."""

    #: registry name (sysfs ``scaling_governor`` string)
    name = "base"

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        """Evaluate the policy and set the next target frequency."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state (on governor switch)."""


class PerformanceGovernor(FreqGovernor):
    """Always run at the highest allowed frequency."""

    name = "performance"

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        policy.take_utilization()
        policy.set_target(policy.effective_max_hz, now_s)


class PowersaveGovernor(FreqGovernor):
    """Always run at the lowest frequency."""

    name = "powersave"

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        policy.take_utilization()
        policy.set_target(policy.user_min_hz, now_s)


class UserspaceGovernor(FreqGovernor):
    """Frequency chosen externally via ``set_speed`` (sysfs scaling_setspeed)."""

    name = "userspace"

    def __init__(self) -> None:
        self._speed_hz: float | None = None

    def set_speed(self, freq_hz: float) -> None:
        """Request a specific frequency."""
        if freq_hz <= 0.0:
            raise ConfigurationError(f"userspace speed must be positive: {freq_hz}")
        self._speed_hz = freq_hz

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        policy.take_utilization()
        if self._speed_hz is not None:
            policy.set_target(self._speed_hz, now_s)


class OndemandGovernor(FreqGovernor):
    """Classic ondemand: jump to max when busy, track demand when not."""

    name = "ondemand"

    def __init__(self, up_threshold: float = 0.90) -> None:
        if not 0.0 < up_threshold <= 1.0:
            raise ConfigurationError(f"up_threshold must be in (0, 1]: {up_threshold}")
        self.up_threshold = up_threshold

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        util = policy.take_utilization()
        if util > self.up_threshold:
            policy.set_target(policy.effective_max_hz, now_s)
        else:
            demand_hz = policy.cur_freq_hz * util / self.up_threshold
            policy.set_target(demand_hz, now_s)


class InteractiveGovernor(FreqGovernor):
    """Android 'interactive' governor.

    On input events (``DvfsPolicy.notify_input``) the frequency is boosted to
    at least ``hispeed_freq``.  Between boosts the frequency tracks
    utilisation so that the busy fraction lands near ``target_load``; a
    frequency decrease is allowed only ``min_sample_time`` after the last
    raise, which is the behaviour that keeps phones at high frequency during
    interaction — and which the paper identifies as a thermal liability.
    """

    name = "interactive"

    def __init__(
        self,
        hispeed_freq_hz: float | None = None,
        go_hispeed_load: float = 0.85,
        target_load: float = 0.80,
        min_sample_time_s: float = 0.08,
    ) -> None:
        if not 0.0 < target_load <= 1.0:
            raise ConfigurationError(f"target_load must be in (0, 1]: {target_load}")
        if not 0.0 < go_hispeed_load <= 1.0:
            raise ConfigurationError(
                f"go_hispeed_load must be in (0, 1]: {go_hispeed_load}"
            )
        self.hispeed_freq_hz = hispeed_freq_hz
        self.go_hispeed_load = go_hispeed_load
        self.target_load = target_load
        self.min_sample_time_s = min_sample_time_s

    def _hispeed(self, policy: DvfsPolicy) -> float:
        if self.hispeed_freq_hz is None:
            return policy.effective_max_hz
        return self.hispeed_freq_hz

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        util = policy.take_utilization()
        cur_hz = policy.cur_freq_hz
        demand_hz = cur_hz * util / self.target_load
        if policy.boosted(now_s) or util >= self.go_hispeed_load:
            demand_hz = max(demand_hz, self._hispeed(policy))
        if demand_hz < cur_hz:
            last_raise_s = policy.last_raise_s
            if last_raise_s >= 0.0 and now_s - last_raise_s < self.min_sample_time_s:
                return
        policy.set_target(demand_hz, now_s)


class ConservativeGovernor(FreqGovernor):
    """Classic Linux 'conservative': gradual proportional steps.

    Unlike ondemand it never jumps straight to the maximum: above the up
    threshold the frequency grows by ``freq_step`` (a fraction of the max),
    below the down threshold it shrinks by the same step.
    """

    name = "conservative"

    def __init__(
        self,
        up_threshold: float = 0.80,
        down_threshold: float = 0.20,
        freq_step: float = 0.05,
    ) -> None:
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise ConfigurationError(
                f"need 0 < down ({down_threshold}) < up ({up_threshold}) <= 1"
            )
        if not 0.0 < freq_step <= 1.0:
            raise ConfigurationError(f"freq_step must be in (0, 1]: {freq_step}")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.freq_step = freq_step

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        util = policy.take_utilization()
        step_hz = self.freq_step * policy.opps.max_freq_hz
        if util > self.up_threshold:
            policy.set_target(policy.cur_freq_hz + step_hz, now_s)
        elif util < self.down_threshold:
            target = policy.cur_freq_hz - step_hz
            # Step down through the floor of the table, not the ceil.
            policy.set_target(
                policy.opps.floor(max(target, policy.opps.min_freq_hz)).freq_hz,
                now_s,
            )


class SchedutilGovernor(FreqGovernor):
    """Modern kernel default: frequency proportional to utilisation.

    f = C * util * f_max with the kernel's C = 1.25 headroom, evaluated
    every period with no hysteresis — fast up, fast down.
    """

    name = "schedutil"

    def __init__(self, headroom: float = 1.25) -> None:
        if headroom < 1.0:
            raise ConfigurationError(f"headroom must be >= 1: {headroom}")
        self.headroom = headroom

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        util = policy.take_utilization()
        # util is measured at the *current* frequency; convert to an
        # absolute demand before applying the headroom.
        demand_hz = util * policy.cur_freq_hz
        policy.set_target(self.headroom * demand_hz, now_s)


class StepGovernor(FreqGovernor):
    """Step-based devfreq policy (msm-adreno-tz / mali simple_ondemand).

    Busy fraction above ``up_threshold`` raises the frequency one OPP per
    evaluation; below ``down_threshold`` lowers it one OPP.  In between the
    frequency holds, producing dwell at intermediate OPPs.
    """

    name = "adreno_tz"

    def __init__(
        self, up_threshold: float = 0.90, down_threshold: float = 0.75
    ) -> None:
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise ConfigurationError(
                f"need 0 < down ({down_threshold}) < up ({up_threshold}) <= 1"
            )
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold

    def update(self, policy: DvfsPolicy, now_s: float) -> None:
        util = policy.take_utilization()
        freqs = policy.opps.frequencies_hz()
        idx = policy.opps.index_of(policy.opps.floor(policy.cur_freq_hz).freq_hz)
        if util > self.up_threshold and idx < len(freqs) - 1:
            policy.set_target(freqs[idx + 1], now_s)
        elif util < self.down_threshold and idx > 0:
            policy.set_target(freqs[idx - 1], now_s)
        else:
            # Re-assert the current target so thermal caps re-apply promptly.
            policy.set_target(policy.cur_freq_hz, now_s)


class SimpleOndemandGovernor(StepGovernor):
    """Mali devfreq alias of the step policy with its default thresholds."""

    name = "simple_ondemand"

    def __init__(self) -> None:
        super().__init__(up_threshold=0.90, down_threshold=0.70)


GOVERNOR_FACTORIES = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "userspace": UserspaceGovernor,
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "schedutil": SchedutilGovernor,
    "interactive": InteractiveGovernor,
    "adreno_tz": StepGovernor,
    "simple_ondemand": SimpleOndemandGovernor,
}


def make_governor(name: str, **kwargs) -> FreqGovernor:
    """Instantiate a governor by its sysfs name."""
    try:
        factory = GOVERNOR_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown governor {name!r}; have {sorted(GOVERNOR_FACTORIES)}"
        ) from None
    return factory(**kwargs)
