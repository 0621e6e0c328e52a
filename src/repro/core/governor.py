"""The application-aware thermal governor (Section IV.B).

Every control period (100 ms by default) the governor, running as a
*userspace* daemon against /sys and /proc:

1. reads the per-rail power sensors and totals the draw;
2. subtracts the modelled leakage at the current hotspot temperature to
   estimate the dynamic power, and runs the fixed-point stability analysis;
3. if the stable fixed-point temperature exceeds the thermal limit (or no
   fixed point exists at all) *and* the predicted time to violation is
   below the user horizon, it identifies the most power-hungry process over
   a one-second utilisation window — skipping processes registered as
   real-time — and migrates it to the LITTLE cluster.

Unlike the stock governors of Section III, nothing else is throttled: every
other app keeps running at full performance.

An optional extension (off by default, matching the paper) migrates
processes back to the big cluster once ample thermal headroom returns.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.calibration import lump_platform
from repro.core.fixed_point import StabilityClass, analyze
from repro.core.registry import RealTimeRegistry
from repro.core.stability import LumpedThermalParams
from repro.core.time_to_fixed_point import time_to_temperature_s
from repro.errors import ConfigurationError, SysfsError
from repro.kernel.kernel import UserspaceApi
from repro.kernel.tracing import SlottedRecord
from repro.obs.metrics import DETECTION_LATENCY_BUCKETS_S
from repro.units import (
    celsius_to_kelvin,
    kelvin_to_celsius,
    millicelsius_to_celsius,
    milliseconds_to_seconds,
)

#: Hysteresis band below the failsafe throttle target: caps only relax once
#: the (trusted) temperature is this far under ``t_limit_c - margin``.
FAILSAFE_HYST_C = 2.0

#: Consecutive cool control periods before the failsafe relaxes one step.
FAILSAFE_RELAX_PERIODS = 5

#: Cap on the exponential -EIO backoff, as a multiple of ``eio_backoff_s``.
EIO_BACKOFF_CAP = 8

#: Control-period predictions the governor keeps (a ring; older ones drop
#: and are counted).  At the default 0.1 s period that is over 800 s,
#: longer than any preset or paper run.
PREDICTION_CAPACITY = 8192


@dataclass(frozen=True)
class GovernorConfig:
    """Tunables of the application-aware governor."""

    t_limit_c: float = 85.0
    horizon_s: float = 60.0
    window_s: float = 1.0
    period_s: float = 0.1
    #: False turns off the fixed-point prediction: the governor then acts
    #: only once the measured temperature crosses the limit (the reactive
    #: baseline the ablation benchmarks compare against).
    predictive: bool = True
    #: How to throttle the offender: "migrate" moves it to the LITTLE
    #: cluster (the paper's mechanism); "duty_cycle" halves its CPU
    #: bandwidth quota in place (an in-place selective-throttling variant).
    action: str = "migrate"
    #: Lowest quota the duty-cycle action may impose.
    min_quota: float = 0.125
    migrate_back: bool = False
    back_margin_c: float = 8.0
    back_dwell_s: float = 5.0
    #: Staleness watchdog: a sensor repeating the same raw millidegree
    #: value for this long is flagged as stuck.
    sensor_staleness_s: float = 1.0
    #: Plausibility filter: readings implying a faster |dT/dt| than this
    #: are rejected and the last good value held.
    max_temp_rate_c_per_s: float = 20.0
    #: Bounded retry on sysfs -EIO: extra read attempts per control period.
    eio_retries: int = 3
    #: Initial read backoff after exhausting the retries; doubles on each
    #: consecutive failing period (capped at 8x).
    eio_backoff_s: float = 0.2
    #: Continuous fault time after which the governor enters failsafe mode.
    failsafe_after_s: float = 3.0
    #: Continuous time the *measured* temperature may sit at or above
    #: ``t_limit_c`` before the governor concludes its calibrated model no
    #: longer matches reality (dead fan, blocked vents) and escalates to
    #: failsafe.  Shorter than ``failsafe_after_s``: the die is already hot.
    breach_after_s: float = 0.5
    #: Continuous healthy time required before failsafe mode is left
    #: (the exit half of the hysteresis; entry is ``failsafe_after_s``).
    failsafe_exit_s: float = 5.0
    #: Failsafe throttling targets ``t_limit_c`` minus this margin.
    failsafe_margin_c: float = 5.0

    def __post_init__(self) -> None:
        if self.period_s <= 0.0 or self.window_s <= 0.0 or self.horizon_s <= 0.0:
            raise ConfigurationError("governor periods must be positive")
        if self.window_s < self.period_s:
            raise ConfigurationError("window must be at least one period")
        if self.action not in ("migrate", "duty_cycle"):
            raise ConfigurationError(f"unknown governor action {self.action!r}")
        if not 0.0 < self.min_quota <= 1.0:
            raise ConfigurationError("min_quota must be in (0, 1]")
        if self.sensor_staleness_s <= 0.0 or self.max_temp_rate_c_per_s <= 0.0:
            raise ConfigurationError(
                "staleness window and plausibility rate must be positive"
            )
        if self.eio_retries < 0 or self.eio_backoff_s < 0.0:
            raise ConfigurationError(
                "eio_retries and eio_backoff_s must be non-negative"
            )
        if self.failsafe_after_s < 0.0 or self.failsafe_exit_s < 0.0:
            raise ConfigurationError("failsafe deadlines must be non-negative")
        if self.breach_after_s < 0.0:
            raise ConfigurationError("breach_after_s must be non-negative")
        if self.failsafe_margin_c <= 0.0:
            raise ConfigurationError("failsafe_margin_c must be positive")

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "GovernorConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown GovernorConfig field(s) {sorted(unknown)}; "
                f"have {sorted(known)}"
            )
        return cls(**dict(data))


@dataclass(frozen=True)
class MigrationEvent(SlottedRecord):
    """One governor action, for post-hoc analysis."""

    __slots__ = (
        "time_s", "pid", "name", "direction", "attributed_power_w",
        "predicted_stable_temp_c", "time_to_violation_s",
    )

    time_s: float
    pid: int
    name: str
    direction: str  # "to_little" or "to_big"
    attributed_power_w: float
    predicted_stable_temp_c: float | None
    time_to_violation_s: float


@dataclass(frozen=True)
class FaultDetection(SlottedRecord):
    """One flagged sensor/sysfs anomaly, for post-hoc analysis."""

    __slots__ = ("time_s", "kind", "detail")

    time_s: float
    kind: str  # "stale" | "implausible" | "eio" | "stall" | "breach"
    detail: str


@dataclass(frozen=True)
class FailsafeEvent:
    """A failsafe-mode transition, logged like a :class:`MigrationEvent`."""

    time_s: float
    action: str  # "enter" or "exit"
    reason: str
    held_temp_c: float | None


@dataclass(frozen=True)
class Prediction(SlottedRecord):
    """One control-period analysis outcome."""

    __slots__ = (
        "time_s", "p_total_w", "p_dyn_w", "temp_c", "classification",
        "stable_temp_c", "time_to_violation_s",
    )

    time_s: float
    p_total_w: float
    p_dyn_w: float
    temp_c: float
    classification: StabilityClass
    stable_temp_c: float | None
    time_to_violation_s: float


@dataclass
class _UtilSample:
    time_s: float
    runtime_s: Mapping[int, float]
    cluster: Mapping[int, str]


class ApplicationAwareGovernor:
    """Userspace daemon implementing the paper's proposed control algorithm."""

    def __init__(
        self,
        api: UserspaceApi,
        params: LumpedThermalParams,
        power_paths: Mapping[str, str],
        cluster_rails: Mapping[str, str],
        temp_path: str,
        config: GovernorConfig | None = None,
    ) -> None:
        if not power_paths:
            raise ConfigurationError("governor needs at least one power sensor path")
        self._api = api
        self.params = params
        self.config = config or GovernorConfig()
        self._power_paths = dict(power_paths)
        self._cluster_rails = dict(cluster_rails)
        self._temp_path = temp_path
        self.registry = RealTimeRegistry()
        self._samples: deque[_UtilSample] = deque()
        self._migrated: list[int] = []
        self._cool_since_s: float | None = None
        self.events: list[MigrationEvent] = []
        self.predictions: deque[Prediction] = deque(maxlen=PREDICTION_CAPACITY)
        self._predictions_dropped = 0
        self._obs_metrics = None
        self._obs_spans = None
        self._m_runs = None
        self._m_latency = None
        # --- hardening state (see "graceful degradation" in docs/FAULTS.md)
        self.detections: list[FaultDetection] = []
        self.failsafe_events: list[FailsafeEvent] = []
        self.failsafe_s = 0.0
        self._failsafe = False
        self._fault_since_s: float | None = None
        self._healthy_since_s: float | None = None
        self._last_run_s: float | None = None
        self._last_good_temp_c: float | None = None
        self._last_good_time_s: float | None = None
        self._last_raw_millicelsius: int | None = None
        self._raw_first_seen_s: float | None = None
        self._eio_streak = 0
        self._eio_backoff_until_s: float | None = None
        self._breach_since_s: float | None = None
        self._last_good_powers: dict[str, float] = {}
        self._failsafe_domains: list[tuple[str, list[int]]] = []
        self._failsafe_state = 0
        self._failsafe_relax = 0
        self._m_failsafe_seconds = None

    @property
    def predictions_dropped(self) -> int:
        """Predictions lost to the :data:`PREDICTION_CAPACITY` ring bound."""
        return self._predictions_dropped

    # ------------------------------------------------------------- helpers

    @classmethod
    def for_simulation(
        cls,
        sim,
        config: GovernorConfig | None = None,
        sensor: str | None = None,
        params: LumpedThermalParams | None = None,
    ) -> "ApplicationAwareGovernor":
        """Build a governor wired to a :class:`repro.sim.engine.Simulation`.

        Discovers the power-sensor and thermal-zone paths exactly the way a
        deployment script would: by scanning /sys.
        """
        platform = sim.platform
        api = sim.kernel.userspace_api()
        rails = [c.rail for c in platform.clusters]
        rails += [platform.gpu.rail, platform.memory.rail]
        power_paths = {
            rail: f"/sys/class/power_sensors/{rail}/power_w" for rail in rails
        }
        sensor_name = sensor or platform.sensors[0].name
        for spec in platform.sensors:
            if spec.node == platform.big_cluster.thermal_node:
                sensor_name = sensor or spec.name
                break
        temp_path = None
        for i in range(32):
            path = f"/sys/class/thermal/thermal_zone{i}/type"
            if not api.fs.exists(path):
                break
            if api.fs.read(path).strip() == sensor_name:
                temp_path = f"/sys/class/thermal/thermal_zone{i}/temp"
                break
        if temp_path is None:
            raise ConfigurationError(f"no thermal zone of type {sensor_name!r}")
        lumped = params or lump_platform(platform, sim.thermal)
        cluster_rails = {c.name: c.rail for c in platform.clusters}
        return cls(api, lumped, power_paths, cluster_rails, temp_path, config)

    def install(self, kernel) -> None:
        """Register as a periodic userspace daemon on ``kernel``.

        Installation also wires the governor into the kernel's metrics
        registry and span tracer: each control period is counted, its
        wall-clock latency observed, and wrapped in an ``app_governor.run``
        span (so the migrations it causes nest under it).
        """
        self._obs_metrics = kernel.metrics
        self._obs_spans = kernel.spans
        self._m_runs = kernel.metrics.counter(
            "repro_app_governor_runs_total",
            "Control periods of the application-aware governor",
        )
        self._m_latency = kernel.metrics.histogram(
            "repro_app_governor_latency_seconds",
            "Wall-clock latency of one control period",
            wall_clock=True,
        )
        kernel.metrics.declare(
            "repro_app_governor_actions_total",
            "counter",
            "Throttling actions taken (migrations, quota cuts)",
        )
        self._m_failsafe_seconds = kernel.metrics.counter(
            "repro_governor_failsafe_seconds_total",
            "Simulated seconds the governor spent in failsafe mode",
        )
        kernel.metrics.declare(
            "repro_faults_detected_total",
            "counter",
            "Sensor/sysfs anomalies flagged by the hardened governor",
        )
        kernel.metrics.declare(
            "repro_faults_injected_total",
            "counter",
            "Fault-plan events activated by the fault controller",
        )
        kernel.metrics.declare(
            "repro_fault_detection_latency_seconds",
            "histogram",
            "Sim-time from fault activation to first governor detection",
            buckets=DETECTION_LATENCY_BUCKETS_S,
        )
        self._failsafe_domains = self._discover_failsafe_domains()
        kernel.register_daemon(
            "app-aware-governor", self.config.period_s, self._instrumented_run
        )

    def _instrumented_run(self, now_s: float) -> None:
        with self._obs_spans.span("app_governor.run"):
            t0 = time.perf_counter()
            self.run(now_s)
            elapsed_s = time.perf_counter() - t0
        self._m_runs.inc()
        self._m_latency.observe(elapsed_s)

    def _discover_failsafe_domains(self) -> list[tuple[str, list[int]]]:
        """Frequency ladders for the stock-style failsafe fallback.

        Scans sysfs the way a deployment script would: every cpufreq policy's
        ``scaling_max_freq`` plus the GPU devfreq ``max_freq`` when present.
        Each entry is ``(cap path, ascending frequency ladder)``.
        """
        fs = self._api.fs
        domains: list[tuple[str, list[int]]] = []
        cpu_base = "/sys/devices/system/cpu/cpufreq"
        try:
            policies = fs.listdir(cpu_base)
        except SysfsError:
            policies = []
        for policy in policies:
            base = f"{cpu_base}/{policy}"
            try:
                tokens = fs.read(f"{base}/scaling_available_frequencies").split()
            except SysfsError:
                continue
            freqs = sorted(int(t) for t in tokens)
            if freqs:
                domains.append((f"{base}/scaling_max_freq", freqs))
        gpu_avail = "/sys/class/devfreq/gpu/available_frequencies"
        if fs.exists(gpu_avail):
            freqs = sorted(int(float(t)) for t in fs.read(gpu_avail).split())
            if freqs:
                domains.append(("/sys/class/devfreq/gpu/max_freq", freqs))
        return domains

    # ------------------------------------------------------- measurements

    def _read_rail_powers_w(self) -> dict[str, float]:
        powers = {}
        for rail, path in self._power_paths.items():
            powers[rail] = self._api.fs.read_float(path)
        return powers

    def _read_temp_c(self) -> float:
        return millicelsius_to_celsius(self._api.fs.read_int(self._temp_path))

    # ------------------------------------------------- hardened measurement

    def _note_fault(self, now_s: float, kind: str, detail: str) -> None:
        self.detections.append(FaultDetection(now_s, kind, detail))
        if self._obs_metrics is not None:
            self._obs_metrics.counter(
                "repro_faults_detected_total", labels={"kind": kind}
            ).inc()

    def _read_rail_powers_safe(
        self,
    ) -> tuple[dict[str, float], list[tuple[str, str]]]:
        """Rail powers with last-good-value hold on per-rail -EIO."""
        powers: dict[str, float] = {}
        failed: list[str] = []
        for rail, path in self._power_paths.items():
            try:
                value = self._api.fs.read_float(path)
                self._last_good_powers[rail] = value
            except SysfsError:
                failed.append(rail)
                value = self._last_good_powers.get(rail, 0.0)
            powers[rail] = value
        if failed:
            return powers, [("eio", f"power rail read failed: {', '.join(failed)}")]
        return powers, []

    def _read_temp_hardened(
        self, now_s: float
    ) -> tuple[float | None, list[tuple[str, str]]]:
        """Temperature with retry, staleness watchdog and plausibility filter.

        Returns ``(temp_c, faults)``: on any fault the last *good* reading is
        held (None until one exists) and ``faults`` names what went wrong.
        """
        cfg = self.config
        held = self._last_good_temp_c
        if (
            self._eio_backoff_until_s is not None
            and now_s < self._eio_backoff_until_s
        ):
            return held, [("eio", "in read backoff window")]
        raw_mc: int | None = None
        for _attempt in range(cfg.eio_retries + 1):
            try:
                raw_mc = self._api.fs.read_int(self._temp_path)
                break
            except SysfsError:
                continue
        if raw_mc is None:
            self._eio_streak += 1
            backoff = min(
                cfg.eio_backoff_s * 2 ** (self._eio_streak - 1),
                EIO_BACKOFF_CAP * cfg.eio_backoff_s,
            )
            self._eio_backoff_until_s = now_s + backoff
            return held, [
                ("eio", f"temp read failed after {cfg.eio_retries + 1} attempts")
            ]
        self._eio_streak = 0
        self._eio_backoff_until_s = None
        if raw_mc != self._last_raw_millicelsius:
            self._last_raw_millicelsius = raw_mc
            self._raw_first_seen_s = now_s
        elif (
            self._raw_first_seen_s is not None
            and now_s - self._raw_first_seen_s >= cfg.sensor_staleness_s
        ):
            return held, [
                ("stale", f"sensor pinned at {raw_mc} millidegrees")
            ]
        temp_c = millicelsius_to_celsius(raw_mc)
        if held is not None and self._last_good_time_s is not None:
            dt = max(now_s - self._last_good_time_s, cfg.period_s)
            rate = abs(temp_c - held) / dt
            if rate > cfg.max_temp_rate_c_per_s:
                return held, [
                    ("implausible", f"|dT/dt| of {rate:.1f} C/s rejected")
                ]
        self._last_good_temp_c = temp_c
        self._last_good_time_s = now_s
        return temp_c, []

    # --------------------------------------------------- failsafe machinery

    def _update_health(
        self, now_s: float, faults: list[tuple[str, str]]
    ) -> None:
        """Hysteretic failsafe entry/exit from the period's fault verdict."""
        cfg = self.config
        if faults:
            self._healthy_since_s = None
            if self._fault_since_s is None:
                self._fault_since_s = now_s
            if (
                not self._failsafe
                and now_s - self._fault_since_s >= cfg.failsafe_after_s
            ):
                self._enter_failsafe(now_s, faults[0][0])
        else:
            self._fault_since_s = None
            if self._failsafe:
                if self._healthy_since_s is None:
                    self._healthy_since_s = now_s
                if now_s - self._healthy_since_s >= cfg.failsafe_exit_s:
                    self._exit_failsafe(now_s)

    def _enter_failsafe(self, now_s: float, reason: str) -> None:
        self._failsafe = True
        self._failsafe_state = 0
        self._failsafe_relax = 0
        self.failsafe_events.append(
            FailsafeEvent(now_s, "enter", reason, self._last_good_temp_c)
        )
        if self._obs_metrics is not None:
            self._obs_metrics.counter(
                "repro_app_governor_actions_total",
                labels={"action": "failsafe_enter"},
            ).inc()

    def _exit_failsafe(self, now_s: float) -> None:
        self._failsafe = False
        self._healthy_since_s = None
        self._failsafe_state = 0
        self._failsafe_relax = 0
        for path, freqs in self._failsafe_domains:
            try:
                self._api.fs.write(path, freqs[-1])
            except SysfsError:
                pass  # leave the cap; the node may itself be faulted
        self.failsafe_events.append(
            FailsafeEvent(now_s, "exit", "recovered", self._last_good_temp_c)
        )
        if self._obs_metrics is not None:
            self._obs_metrics.counter(
                "repro_app_governor_actions_total",
                labels={"action": "failsafe_exit"},
            ).inc()

    def _failsafe_throttle(self, trusted_temp_c: float | None) -> None:
        """Stock-style step-wise fallback while measurements are untrusted.

        With no trustworthy reading the caps ratchet down one step per
        period towards the floor — the safe direction.  When a trusted
        reading exists, caps tighten above ``t_limit_c - margin`` and relax
        (slowly, hysteretically) once well below it.
        """
        if not self._failsafe_domains:
            return
        cfg = self.config
        max_state = max(len(f) - 1 for _p, f in self._failsafe_domains)
        target_c = cfg.t_limit_c - cfg.failsafe_margin_c
        if trusted_temp_c is None or trusted_temp_c >= target_c:
            self._failsafe_state = min(self._failsafe_state + 1, max_state)
            self._failsafe_relax = 0
        elif trusted_temp_c < target_c - FAILSAFE_HYST_C:
            self._failsafe_relax += 1
            if self._failsafe_relax >= FAILSAFE_RELAX_PERIODS:
                self._failsafe_relax = 0
                self._failsafe_state = max(self._failsafe_state - 1, 0)
        for path, freqs in self._failsafe_domains:
            index = len(freqs) - 1 - min(self._failsafe_state, len(freqs) - 1)
            try:
                self._api.fs.write(path, freqs[index])
            except SysfsError:
                pass  # the cap node itself is faulted; retry next period

    def _snapshot_utilization(self, now_s: float) -> None:
        runtime: dict[int, float] = {}
        cluster: dict[int, str] = {}
        for pid in self._api.pids():
            try:
                text = self._api.fs.read(f"/proc/{pid}/sched")
            except SysfsError:
                continue
            rt_ms = None
            cl = None
            for line in text.splitlines():
                if line.startswith("se.sum_exec_runtime"):
                    rt_ms = float(line.split(":", 1)[1])
                elif line.startswith("current_cluster"):
                    cl = line.split(":", 1)[1].strip()
            if rt_ms is None or cl is None:
                continue
            runtime[pid] = milliseconds_to_seconds(rt_ms)
            cluster[pid] = cl
        self._samples.append(_UtilSample(now_s, runtime, cluster))
        horizon = now_s - self.config.window_s - 1e-9
        while len(self._samples) > 2 and self._samples[1].time_s <= horizon:
            self._samples.popleft()

    def _window_deltas(self) -> tuple[dict[int, float], dict[int, str]]:
        """Per-pid busy core-seconds over the window, plus current cluster."""
        if len(self._samples) < 2:
            return {}, {}
        first, last = self._samples[0], self._samples[-1]
        deltas = {}
        for pid, runtime in last.runtime_s.items():
            before = first.runtime_s.get(pid, 0.0)
            delta = runtime - before
            if delta > 0.0:
                deltas[pid] = delta
        return deltas, dict(last.cluster)

    def _attribute_power_w(
        self, rail_powers: Mapping[str, float]
    ) -> dict[int, float]:
        """Average-utilisation power attribution over the window (paper's
        one-second filter against momentary peaks)."""
        deltas, clusters = self._window_deltas()
        if not deltas:
            return {}
        by_cluster: dict[str, float] = {}
        for pid, delta in deltas.items():
            by_cluster[clusters[pid]] = by_cluster.get(clusters[pid], 0.0) + delta
        attributed = {}
        for pid, delta in deltas.items():
            cl = clusters[pid]
            rail = self._cluster_rails.get(cl)
            if rail is None or by_cluster[cl] <= 0.0:
                continue
            attributed[pid] = rail_powers.get(rail, 0.0) * delta / by_cluster[cl]
        return attributed

    # ------------------------------------------------------------ control

    def run(self, now_s: float) -> None:
        """One control period: measure defensively, analyse, act.

        The measurement phase never raises: sysfs -EIO is retried then
        absorbed by last-good-value holds, stuck and implausible sensor
        readings are rejected by the watchdog/plausibility filters, and
        persistent faults push the governor into a stock-style failsafe
        throttle until readings stay healthy for the exit dwell.
        """
        cfg = self.config
        if (
            self._last_run_s is not None
            and now_s - self._last_run_s > 1.5 * cfg.period_s
        ):
            self._note_fault(
                now_s,
                "stall",
                f"no control tick for {now_s - self._last_run_s:.2f} s",
            )
        self._last_run_s = now_s
        self._snapshot_utilization(now_s)
        rail_powers, power_faults = self._read_rail_powers_safe()
        temp_c, temp_faults = self._read_temp_hardened(now_s)
        faults = power_faults + temp_faults
        # A *trusted* reading at or above the limit means the calibrated
        # model has stopped matching reality (the plant itself degraded);
        # sustained, that escalates to failsafe on its own fast deadline.
        breach = not temp_faults and temp_c is not None and temp_c >= cfg.t_limit_c
        if breach:
            if self._breach_since_s is None:
                self._breach_since_s = now_s
            self._note_fault(
                now_s,
                "breach",
                f"measured {temp_c:.2f} C at/above the "
                f"{cfg.t_limit_c:.2f} C limit",
            )
        else:
            self._breach_since_s = None
        for kind, detail in faults:
            self._note_fault(now_s, kind, detail)
        health_faults = faults + (
            [("breach", "measured temperature at/above the limit")]
            if breach else []
        )
        self._update_health(now_s, health_faults)
        if (
            breach
            and not self._failsafe
            and now_s - self._breach_since_s >= cfg.breach_after_s
        ):
            self._enter_failsafe(now_s, "breach")
        if self._failsafe:
            self.failsafe_s += cfg.period_s
            if self._m_failsafe_seconds is not None:
                self._m_failsafe_seconds.inc(cfg.period_s)
            self._failsafe_throttle(None if faults else temp_c)
            return
        if temp_c is None:
            return  # no trustworthy reading yet: take no action
        p_total = sum(rail_powers.values())
        temp_k = celsius_to_kelvin(temp_c)
        p_dyn = max(p_total - self.params.leakage_w(temp_k), 0.01)

        report = analyze(self.params, p_dyn)
        t_limit_k = celsius_to_kelvin(self.config.t_limit_c)
        violation_predicted = (
            report.classification is StabilityClass.RUNAWAY
            or (report.stable_temp_k is not None and report.stable_temp_k > t_limit_k)
        )
        t_violation = float("inf")
        if violation_predicted:
            if temp_k >= t_limit_k:
                t_violation = 0.0
            else:
                t_violation = time_to_temperature_s(
                    self.params, p_dyn, temp_k, t_limit_k
                )
        stable_c = (
            kelvin_to_celsius(report.stable_temp_k)
            if report.stable_temp_k is not None
            else None
        )
        if len(self.predictions) == self.predictions.maxlen:
            self._predictions_dropped += 1
        self.predictions.append(
            Prediction(
                now_s, p_total, p_dyn, temp_c, report.classification,
                stable_c, t_violation,
            )
        )

        if self.config.predictive:
            must_act = violation_predicted and t_violation < self.config.horizon_s
        else:
            must_act = temp_c >= self.config.t_limit_c
        if must_act:
            self._cool_since_s = None
            self._act(now_s, stable_c, t_violation, rail_powers)
            return
        if self.config.migrate_back and self._migrated:
            self._maybe_migrate_back(now_s, temp_c, stable_c, t_violation)

    def _act(
        self,
        now_s: float,
        stable_c: float | None,
        t_violation: float,
        rail_powers: Mapping[str, float],
    ) -> None:
        attributed = self._attribute_power_w(rail_powers)
        big = self._api.big_cluster
        little = self._api.little_cluster
        candidates = [
            (watts, pid)
            for pid, watts in attributed.items()
            if not self.registry.is_protected(pid)
        ]
        # Only processes on the big cluster can be demoted further.
        deltas, clusters = self._window_deltas()
        candidates = [
            (w, pid) for (w, pid) in candidates if clusters.get(pid) == big
        ]
        if not candidates:
            return
        watts, pid = max(candidates)
        if self.config.action == "duty_cycle":
            current = self._api.cpu_quota(pid)
            new_quota = max(current / 2.0, self.config.min_quota)
            if new_quota >= current - 1e-12:
                return  # already at the floor: nothing more to take
            self._api.set_cpu_quota(pid, new_quota)
            direction = f"quota_{new_quota:g}"
        else:
            self._api.set_affinity(pid, little)
            self._migrated.append(pid)
            direction = "to_little"
        if self._obs_metrics is not None:
            self._obs_metrics.counter(
                "repro_app_governor_actions_total",
                labels={"action": self.config.action},
            ).inc()
        self.events.append(
            MigrationEvent(
                time_s=now_s,
                pid=pid,
                name=self._api.process_name(pid),
                direction=direction,
                attributed_power_w=watts,
                predicted_stable_temp_c=stable_c,
                time_to_violation_s=t_violation,
            )
        )

    def _maybe_migrate_back(
        self, now_s: float, temp_c: float, stable_c: float | None,
        t_violation: float,
    ) -> None:
        cool = (
            stable_c is not None
            and stable_c < self.config.t_limit_c - self.config.back_margin_c
            and temp_c < self.config.t_limit_c - self.config.back_margin_c
        )
        if not cool:
            self._cool_since_s = None
            return
        if self._cool_since_s is None:
            self._cool_since_s = now_s
            return
        if now_s - self._cool_since_s < self.config.back_dwell_s:
            return
        pid = self._migrated.pop()
        self._cool_since_s = None
        try:
            self._api.set_affinity(pid, self._api.big_cluster)
        except Exception:
            return  # the process exited; nothing to undo
        if self._obs_metrics is not None:
            self._obs_metrics.counter(
                "repro_app_governor_actions_total",
                labels={"action": "migrate_back"},
            ).inc()
        self.events.append(
            MigrationEvent(
                time_s=now_s,
                pid=pid,
                name=self._api.process_name(pid),
                direction="to_big",
                attributed_power_w=0.0,
                predicted_stable_temp_c=stable_c,
                time_to_violation_s=t_violation,
            )
        )
