"""The kernel facade: scheduler, DVFS, thermal framework, sysfs, daemons.

A :class:`Kernel` owns every OS-side object of one simulated device and
advances them in lock-step with the simulation engine:

1. frequency governors run at their evaluation periods;
2. thermal zones poll their sensors and run thermal governors;
3. registered userspace daemons (e.g. the paper's proposed governor) run;
4. the scheduler and GPU dispatch one tick of work at the chosen clocks.

The engine then computes power from the resulting activity and steps the
thermal model; :meth:`Kernel.update_power_readings` feeds the measured rail
powers back into the INA231-style sensors that userspace reads.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Hashable, Mapping

from repro.errors import ConfigurationError, SchedulingError
from repro.kernel.cpufreq.governors import (
    FreqGovernor,
    UserspaceGovernor,
    make_governor,
)
from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.kernel.gpu import GpuDevice, GpuTickResult
from repro.kernel.scheduler import ClusterUsage, Scheduler
from repro.kernel.sysfs import VirtualFs
from repro.kernel.task import Task
from repro.kernel.thermal.cooling import DvfsCoolingDevice
from repro.kernel.thermal.ipa import PowerActor, PowerAllocatorGovernor
from repro.kernel.thermal.step_wise import StepWiseGovernor
from repro.kernel.thermal.zone import ThermalZone, TripPoint
from repro.power.sensors import RailPowerSensor
from repro.sim.clock import Clock, PeriodicTimer
from repro.sim.rng import RngRegistry
from repro.soc.platform import PlatformSpec
from repro.thermal.model import ThermalModel
from repro.thermal.sensors import TemperatureSensor

GPU_DOMAIN = "gpu"

#: Attributes of a ``governor.update`` span, in the order they are set.
_GOVERNOR_SPAN_KEYS = ("domain", "freq_before_hz", "freq_after_hz")


@dataclass(frozen=True)
class ThermalConfig:
    """Which thermal policy runs, where it senses, and what it cools."""

    kind: str  # "step_wise" or "ipa"
    sensor: str
    cooled: tuple[str, ...]
    polling_s: float = 0.1
    trips: tuple[TripPoint, ...] = ()
    sustainable_power_w: float = 2.5
    switch_on_temp_c: float = 70.0
    control_temp_c: float = 90.0

    def __post_init__(self) -> None:
        if self.kind not in ("step_wise", "ipa"):
            raise ConfigurationError(f"unknown thermal policy kind {self.kind!r}")
        if self.kind == "step_wise" and not self.trips:
            raise ConfigurationError("step_wise thermal policy needs trip points")
        if not self.cooled:
            raise ConfigurationError("thermal policy needs at least one cooled domain")


@dataclass(frozen=True)
class HotplugConfig:
    """Last-resort thermal protection: power a cluster off above a trip.

    The paper's Section I: "In extreme cases, the governors resort to
    powering the cores off to reduce the temperature of the device."
    """

    sensor: str
    cluster: str
    trip_c: float
    hyst_c: float = 10.0
    polling_s: float = 0.25

    def __post_init__(self) -> None:
        if self.hyst_c <= 0.0 or self.polling_s <= 0.0:
            raise ConfigurationError("hotplug hysteresis/polling must be positive")


@dataclass(frozen=True)
class KernelConfig:
    """Software configuration of a simulated device."""

    cpu_governor: str = "interactive"
    cpu_governor_params: Mapping = field(default_factory=dict)
    gpu_governor: str = "adreno_tz"
    gpu_governor_params: Mapping = field(default_factory=dict)
    cpu_governor_period_s: float = 0.02
    gpu_governor_period_s: float = 0.05
    thermal: ThermalConfig | None = None
    hotplug: HotplugConfig | None = None


@dataclass
class KernelTickResult:
    """Everything that happened OS-side during one tick."""

    usage: dict[str, ClusterUsage]
    gpu: GpuTickResult
    freqs_hz: dict[str, float]
    completed_cpu_tags: list[Hashable]


class LoadScaledActor(PowerActor):
    """IPA actor with *load-scaled* power tables, as in the kernel.

    Both the requested power and the budget-to-frequency conversion use
    the power the domain would draw at its current load, not the
    all-cores-busy worst case — otherwise IPA over-throttles lightly
    loaded clusters.  Power at an OPP is the worst case at the domain's
    temperature times ``max(mean utilisation, 0.1)``.

    Temperature and load are fixed within one zone poll, so
    :meth:`power_table_w` takes the worst-case table from the power model
    in one call (one leakage factor for every OPP) and scales it; each
    entry equals ``max_power_w`` at that OPP bit for bit.
    """

    def __init__(
        self,
        device: DvfsCoolingDevice,
        policy: DvfsPolicy,
        worst_w: Callable[[float, float], float],
        worst_table_w: Callable[[float], list[float]],
        temp_k: Callable[[], float],
    ) -> None:
        # The estimators are methods, not stored callables: a bound method
        # kept on its own instance would be a reference cycle.
        self.device = device
        self.weight = 1.0
        self._policy = policy
        self._worst_w = worst_w
        self._worst_table_w = worst_table_w
        self._temp_k = temp_k

    def _load(self) -> float:
        return max(self._policy.last_mean_util, 0.1)

    def max_power_w(self, freq_hz: float) -> float:
        load = self._load()
        return load * self._worst_w(freq_hz, self._temp_k())

    def requested_power_w(self) -> float:
        # A fully loaded domain asks for the power of its fastest OPP,
        # not of the capped one it is stuck at — otherwise a throttled
        # actor's request (and hence its grant) spirals to zero.
        policy = self._policy
        freq = policy.cur_freq_hz
        if policy.last_util >= 0.95:
            freq = policy.opps.max_freq_hz
        return self.max_power_w(freq)

    def power_table_w(self) -> list[float]:
        load = self._load()
        return [load * w for w in self._worst_table_w(self._temp_k())]


class UserspaceApi:
    """The narrow interface a userspace daemon gets: files + a few syscalls."""

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel

    @property
    def fs(self) -> VirtualFs:
        """The /sys and /proc virtual file tree."""
        return self._kernel.fs

    def pids(self) -> list[int]:
        """Pids of all live tasks (like listing /proc)."""
        return [t.pid for t in self._kernel.scheduler.tasks()]

    def process_name(self, pid: int) -> str:
        """comm of a pid."""
        return self._kernel.scheduler.task(pid).name

    def set_affinity(self, pid: int, cluster: str) -> None:
        """sched_setaffinity to one cluster."""
        self._kernel.migrate(pid, cluster)

    def set_cpu_quota(self, pid: int, quota: float) -> None:
        """Limit a pid's CPU bandwidth (cgroup cpu.max analogue)."""
        self._kernel.scheduler.task(pid).set_cpu_quota(quota)
        self._kernel.tracer.emit(
            self._kernel._clock.now, "cgroup", "cpu_quota",
            f"pid={pid} -> {quota:g}",
        )

    def cpu_quota(self, pid: int) -> float:
        """Current CPU bandwidth quota of a pid."""
        return self._kernel.scheduler.task(pid).cpu_quota

    @property
    def big_cluster(self) -> str:
        """Name of the big cluster."""
        return self._kernel.platform.big_cluster.name

    @property
    def little_cluster(self) -> str:
        """Name of the LITTLE cluster."""
        return self._kernel.platform.little_cluster.name


class Kernel:
    """OS layer of one simulated device."""

    def __init__(
        self,
        platform: PlatformSpec,
        thermal_model: ThermalModel,
        clock: Clock,
        rng: RngRegistry,
        config: KernelConfig | None = None,
        metrics=None,
        spans=None,
    ) -> None:
        self.platform = platform
        self.config = config or KernelConfig()
        self._thermal_model = thermal_model
        self._clock = clock
        self.power_model = platform.power_model()

        from repro.kernel.tracing import EventTracer
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanTracer

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = (
            spans
            if spans is not None
            else SpanTracer(sim_time_fn=lambda: clock.now)
        )
        self.tracer = EventTracer(metrics=self.metrics)
        self.scheduler = Scheduler({c.name: c for c in platform.clusters})
        self.gpu = GpuDevice()

        # --- DVFS policies and governors -------------------------------
        self.policies: dict[str, DvfsPolicy] = {}
        self.governors: dict[str, FreqGovernor] = {}
        self._governor_timers: dict[str, PeriodicTimer] = {}
        for cluster in platform.clusters:
            policy = DvfsPolicy(
                cluster.name, cluster.opps, initial_freq_hz=cluster.opps.min_freq_hz
            )
            self.policies[cluster.name] = policy
            self.governors[cluster.name] = make_governor(
                self.config.cpu_governor, **dict(self.config.cpu_governor_params)
            )
            self._governor_timers[cluster.name] = PeriodicTimer(
                clock, self.config.cpu_governor_period_s
            )
        gpu_policy = DvfsPolicy(
            GPU_DOMAIN, platform.gpu.opps, initial_freq_hz=platform.gpu.opps.min_freq_hz
        )
        self.policies[GPU_DOMAIN] = gpu_policy
        self.governors[GPU_DOMAIN] = make_governor(
            self.config.gpu_governor, **dict(self.config.gpu_governor_params)
        )
        self._governor_timers[GPU_DOMAIN] = PeriodicTimer(
            clock, self.config.gpu_governor_period_s
        )

        # --- sensors ----------------------------------------------------
        self.sensors: dict[str, TemperatureSensor] = {
            spec.name: TemperatureSensor(
                spec, thermal_model, rng.stream(f"sensor.{spec.name}")
            )
            for spec in platform.sensors
        }
        self.power_sensors: dict[str, RailPowerSensor] = {}
        rails = [c.rail for c in platform.clusters]
        rails += [platform.gpu.rail, platform.memory.rail]
        for rail in rails:
            self.power_sensors[rail] = RailPowerSensor(
                rail, rng.stream(f"ina.{rail}")
            )

        # --- thermal zones ----------------------------------------------
        self.cooling_devices: list[DvfsCoolingDevice] = []
        self.zones: dict[str, ThermalZone] = {}
        self._zone_timers: dict[str, PeriodicTimer] = {}
        self._build_thermal()

        # --- cpuidle --------------------------------------------------------
        from repro.kernel.cpuidle import ClusterIdleGovernor

        self.idle_governors: dict[str, ClusterIdleGovernor] = {
            c.name: ClusterIdleGovernor() for c in platform.clusters
        }
        self.idle_governors[GPU_DOMAIN] = ClusterIdleGovernor()
        self._idle_scales: dict[str, float] = {
            name: 1.0 for name in self.idle_governors
        }
        # Per-tick accounting targets, resolved once.
        self._cluster_slots = tuple(
            (c.name, c.n_cores, self.policies[c.name], self.idle_governors[c.name])
            for c in platform.clusters
        )
        self._gpu_policy = self.policies[GPU_DOMAIN]
        self._gpu_idle_governor = self.idle_governors[GPU_DOMAIN]

        # --- hotplug ------------------------------------------------------
        self._cluster_online: dict[str, bool] = {
            c.name: True for c in platform.clusters
        }
        #: Live read-only views of the idle scales (clusters and the GPU)
        #: and the cluster power states, for readers that run every tick.
        self.idle_scales: Mapping[str, float] = MappingProxyType(self._idle_scales)
        self.clusters_online: Mapping[str, bool] = MappingProxyType(
            self._cluster_online
        )
        self._cooling_states: dict[str, int] = {}
        self._throttle_since_s: dict[str, float] = {}
        self._daemons: list[tuple[str, PeriodicTimer, Callable[[float], None]]] = []
        if self.config.hotplug is not None:
            self._install_hotplug(self.config.hotplug)

        self._register_metrics()

        from repro.kernel.wiring import build_fs  # deferred: avoids import cycle

        # The tree's getters reach back into the kernel; through a weak
        # proxy they do not form a reference cycle with it.
        self.fs = build_fs(weakref.proxy(self))

    def _register_metrics(self) -> None:
        """Create every kernel metric family up front.

        Eager registration keeps the emitted catalogue identical whether or
        not a given event ever fires, which is what the documentation test
        asserts against.
        """
        from repro.obs.metrics import DURATION_BUCKETS_S, LATENCY_BUCKETS_S

        m = self.metrics
        self._m_gov_updates = {}
        self._m_gov_latency = {}
        self._m_gov_freq_changes = {}
        for domain in self.policies:
            labels = {"domain": domain}
            self._m_gov_updates[domain] = m.counter(
                "repro_governor_updates_total",
                "DVFS governor evaluations",
                labels=labels,
            )
            self._m_gov_latency[domain] = m.histogram(
                "repro_governor_decision_latency_seconds",
                "Wall-clock latency of one governor evaluation",
                buckets=LATENCY_BUCKETS_S,
                labels=labels,
                wall_clock=True,
            )
            self._m_gov_freq_changes[domain] = m.counter(
                "repro_governor_freq_changes_total",
                "Governor evaluations that changed the target frequency",
                labels=labels,
            )
        self._m_migrations = m.counter(
            "repro_migrations_total", "Task migrations between clusters"
        )
        self._m_spawns = m.counter(
            "repro_tasks_spawned_total", "Tasks created"
        )
        m.declare(
            "repro_hotplug_transitions_total",
            "counter",
            "Cluster power-state transitions",
        )
        self._m_cooling_changes = {}
        self._m_throttle_duration = {}
        for device in self.cooling_devices:
            self._m_cooling_changes[device.name] = m.counter(
                "repro_cooling_state_changes_total",
                "Cooling-device state transitions",
                labels={"device": device.name},
            )
            self._m_throttle_duration[device.name] = m.histogram(
                "repro_throttle_duration_seconds",
                "Simulated duration of one throttling episode",
                buckets=DURATION_BUCKETS_S,
                labels={"device": device.name},
            )
        m.declare(
            "repro_cooling_state_changes_total",
            "counter",
            "Cooling-device state transitions",
        )
        m.declare(
            "repro_throttle_duration_seconds",
            "histogram",
            "Simulated duration of one throttling episode",
            buckets=DURATION_BUCKETS_S,
        )
        m.declare(
            "repro_thermal_zone_temp_celsius", "gauge", "Last polled zone temperature"
        )
        m.declare(
            "repro_thermal_trips_total",
            "counter",
            "Rising crossings of a zone trip point",
        )
        for zone in self.zones.values():
            zone.attach_observability(m, self.spans)
        # What one tick touches per timer, resolved once.
        self._governor_slots = tuple(
            (
                domain, timer, self.policies[domain], self._m_gov_updates[domain],
                self._m_gov_latency[domain], self._m_gov_freq_changes[domain],
            )
            for domain, timer in self._governor_timers.items()
        )
        self._zone_slots = tuple(
            (name, timer, self.zones[name]) for name, timer in self._zone_timers.items()
        )

    # ------------------------------------------------------------ assembly

    def _make_actor(self, domain: str, device: DvfsCoolingDevice) -> PowerActor:
        """IPA actor of one DVFS domain, at the true temperature of the
        thermal node behind it."""
        model = self.power_model
        if domain == GPU_DOMAIN:
            node = self.platform.gpu.thermal_node
            worst_w = model.max_gpu_power_w
            worst_table_w = model.max_gpu_power_table_w
        else:
            node = self.platform.cluster(domain).thermal_node
            worst_w = functools.partial(model.max_cluster_power_w, domain)
            worst_table_w = functools.partial(model.max_cluster_power_table_w, domain)
        return LoadScaledActor(
            device,
            self.policies[domain],
            worst_w,
            worst_table_w,
            functools.partial(
                self._thermal_model.temperature_at,
                self._thermal_model.node_index(node),
            ),
        )

    def _build_thermal(self) -> None:
        cfg = self.config.thermal
        governed_sensor = cfg.sensor if cfg is not None else None
        if cfg is not None:
            devices = []
            for domain in cfg.cooled:
                if domain not in self.policies:
                    raise ConfigurationError(
                        f"thermal config cools unknown domain {domain!r}"
                    )
                device = DvfsCoolingDevice(
                    f"thermal-{domain}", self.policies[domain]
                )
                devices.append(device)
                self.cooling_devices.append(device)
            if cfg.sensor not in self.sensors:
                raise ConfigurationError(
                    f"thermal config uses unknown sensor {cfg.sensor!r}"
                )
            if cfg.kind == "step_wise":
                governor = StepWiseGovernor()
            else:
                actors = [
                    self._make_actor(domain, device)
                    for domain, device in zip(cfg.cooled, devices)
                ]
                governor = PowerAllocatorGovernor(
                    actors,
                    sustainable_power_w=cfg.sustainable_power_w,
                    switch_on_temp_c=cfg.switch_on_temp_c,
                    control_temp_c=cfg.control_temp_c,
                )
            zone = ThermalZone(
                cfg.sensor,
                self.sensors[cfg.sensor],
                trips=cfg.trips,
                governor=governor,
                bindings=devices,
                polling_s=cfg.polling_s,
            )
            self.zones[cfg.sensor] = zone
            self._zone_timers[cfg.sensor] = PeriodicTimer(self._clock, cfg.polling_s)
        # Ungoverned zones: every other sensor is still readable.
        for name, sensor in self.sensors.items():
            if name == governed_sensor:
                continue
            zone = ThermalZone(name, sensor, polling_s=0.1)
            self.zones[name] = zone
            self._zone_timers[name] = PeriodicTimer(self._clock, zone.polling_s)

    # ------------------------------------------------------------- control

    def set_cpu_governor(self, domain: str, name: str, **params) -> None:
        """Switch the governor of one DVFS domain at runtime."""
        if domain not in self.policies:
            raise ConfigurationError(f"unknown DVFS domain {domain!r}")
        self.governors[domain] = make_governor(name, **params)

    def userspace_set_speed(self, domain: str, freq_hz: float) -> None:
        """scaling_setspeed: only valid while the userspace governor runs."""
        governor = self.governors[domain]
        if not isinstance(governor, UserspaceGovernor):
            raise ConfigurationError(
                f"domain {domain!r} is not running the userspace governor"
            )
        governor.set_speed(freq_hz)

    def input_event(self, now_s: float, duration_s: float = 0.5) -> None:
        """A touch event: boost every CPU policy (interactive governor)."""
        for cluster in self.platform.clusters:
            self.policies[cluster.name].notify_input(now_s, duration_s)

    def register_daemon(
        self, name: str, period_s: float, fn: Callable[[float], None]
    ) -> None:
        """Run ``fn(now_s)`` every ``period_s`` seconds (userspace service)."""
        timer = PeriodicTimer(self._clock, period_s)
        self._daemons.append((name, timer, fn))

    def daemon_names(self) -> list[str]:
        """Names of the registered userspace daemons, in registration order."""
        return [name for name, _timer, _fn in self._daemons]

    def wrap_daemon(
        self, name: str, wrap: Callable[[Callable[[float], None]], Callable[[float], None]]
    ) -> None:
        """Replace a daemon's callback with ``wrap(original)``.

        The fault-injection layer uses this to model missed control ticks
        (scheduler starvation) without the daemon's knowledge; the timer and
        its phase are untouched.
        """
        for i, (daemon, timer, fn) in enumerate(self._daemons):
            if daemon == name:
                self._daemons[i] = (daemon, timer, wrap(fn))
                return
        raise ConfigurationError(
            f"no daemon named {name!r}; have {self.daemon_names()}"
        )

    def userspace_api(self) -> UserspaceApi:
        """The interface handed to userspace daemons.

        It reaches the kernel through a weak proxy: a daemon the kernel
        runs, and so keeps alive, must not keep the kernel alive in turn.
        """
        return UserspaceApi(weakref.proxy(self))

    # ------------------------------------------------------------- hotplug

    def idle_scale(self, name: str) -> float:
        """Current idle power scale of a domain (clusters and the GPU)."""
        try:
            return self._idle_scales[name]
        except KeyError:
            raise ConfigurationError(f"unknown cluster {name!r}") from None

    def cluster_online(self, name: str) -> bool:
        """Whether a CPU cluster is powered."""
        try:
            return self._cluster_online[name]
        except KeyError:
            raise ConfigurationError(f"unknown cluster {name!r}") from None

    def _fallback_cluster(self, offline: str) -> str:
        for name, online in self._cluster_online.items():
            if online and name != offline:
                return name
        raise ConfigurationError("cannot power off the last online cluster")

    def set_cluster_online(self, name: str, online: bool) -> None:
        """Power a cluster on/off; offlining migrates its tasks away."""
        if name not in self._cluster_online:
            raise ConfigurationError(f"unknown cluster {name!r}")
        if not online:
            fallback = self._fallback_cluster(name)
            for task in self.scheduler.tasks():
                if task.cluster == name:
                    task.migrate(fallback)
        if self._cluster_online[name] != online:
            state = "online" if online else "offline"
            self.tracer.emit(self._clock.now, "hotplug", state, name)
            self.metrics.counter(
                "repro_hotplug_transitions_total",
                labels={"cluster": name, "state": state},
            ).inc()
            self.spans.instant("hotplug.transition", cluster=name, state=state)
        self._cluster_online[name] = online

    def _install_hotplug(self, cfg: HotplugConfig) -> None:
        if cfg.sensor not in self.sensors:
            raise ConfigurationError(f"hotplug uses unknown sensor {cfg.sensor!r}")
        if cfg.cluster not in self._cluster_online:
            raise ConfigurationError(
                f"hotplug targets unknown cluster {cfg.cluster!r}"
            )
        sensor = self.sensors[cfg.sensor]
        online = self._cluster_online
        kernel = weakref.proxy(self)  # the daemon must not keep its kernel alive

        def poll(now_s: float) -> None:
            temp_c = sensor.read_c()
            if online[cfg.cluster] and temp_c > cfg.trip_c:
                kernel.set_cluster_online(cfg.cluster, False)
            elif not online[cfg.cluster] and temp_c < cfg.trip_c - cfg.hyst_c:
                kernel.set_cluster_online(cfg.cluster, True)

        self.register_daemon("thermal-hotplug", cfg.polling_s, poll)

    def spawn(
        self,
        name: str,
        cluster: str | None = None,
        n_threads: int = 1,
        unbounded: bool = False,
    ) -> Task:
        """Create a task; defaults to the big cluster like a busy new thread.

        Falls back to an online cluster when the requested one is powered off.
        """
        target = cluster or self.platform.big_cluster.name
        if not self._cluster_online.get(target, True):
            target = self._fallback_cluster(target)
        task = self.scheduler.spawn(
            name, target, n_threads=n_threads, unbounded=unbounded
        )
        self.tracer.emit(
            self._clock.now, "sched", "spawn", f"{name} pid={task.pid} on {target}"
        )
        self._m_spawns.inc()
        return task

    # --------------------------------------------------------------- tick

    def current_freqs_hz(self) -> dict[str, float]:
        """Current frequency of every DVFS domain."""
        return {name: p.cur_freq_hz for name, p in self.policies.items()}

    def tick(self, now_s: float, dt_s: float) -> KernelTickResult:
        """Advance the OS by one simulation step."""
        # Every kernel timer runs on the kernel's clock; one that is not due
        # yet would return False from poll(), so the call is skipped.
        due_s = self._clock.now + 1e-12
        spans = self.spans
        wall_time = spans.wall_time
        for domain, timer, policy, updates, latency, changes in self._governor_slots:
            if timer.next_deadline <= due_s and timer.poll():
                before_hz = policy.cur_freq_hz
                t0 = wall_time()
                self.governors[domain].update(policy, now_s)
                t1 = wall_time()
                after_hz = policy.cur_freq_hz
                spans.record(
                    "governor.update", t0, t1, _GOVERNOR_SPAN_KEYS,
                    (domain, before_hz, after_hz),
                )
                updates.inc()
                latency.observe(t1 - t0)
                # Snapshot identity check: either the governor changed the
                # frequency or it did not; no arithmetic dust can creep in.
                if after_hz != before_hz:  # repro-lint: disable=R401
                    changes.inc()
        for name, timer, zone in self._zone_slots:
            if timer.next_deadline <= due_s and timer.poll():
                if zone.governor is not None:
                    with spans.span("thermal.zone_poll", zone=name):
                        zone.poll(now_s)
                else:
                    zone.poll(now_s)
        for _, timer, fn in self._daemons:
            if timer.next_deadline <= due_s and timer.poll():
                fn(now_s)
        states = self._cooling_states
        for device in self.cooling_devices:
            cur = device.cur_state
            last = states.get(device.name)
            if cur != last:
                if last is not None:
                    self._cooling_state_changed(device.name, last, cur, now_s)
                states[device.name] = cur

        freqs = self.current_freqs_hz()
        online = self._cluster_online
        # The scheduler reads only its clusters' entries of the dict.
        cluster_freqs = freqs if all(online.values()) else {
            name: freqs[name] if up else 0.0 for name, up in online.items()
        }
        sched = self.scheduler.run_tick(cluster_freqs, dt_s)
        gpu = self.gpu.run_tick(freqs[GPU_DOMAIN], dt_s)

        usage = sched.usage
        idle_scales = self._idle_scales
        for name, n_cores, policy, idle_governor in self._cluster_slots:
            cluster_usage = usage[name]
            busy_cores = cluster_usage.busy_cores
            # Per-CPU governors react to the busiest core; power estimation
            # needs the whole-cluster mean.
            policy.account(dt_s, cluster_usage.max_core_load, busy_cores / n_cores)
            idle_scales[name] = idle_governor.update(busy_cores, n_cores, dt_s)
        busy_fraction = gpu.busy_fraction
        idle_scales[GPU_DOMAIN] = self._gpu_idle_governor.update(busy_fraction, 1, dt_s)
        self._gpu_policy.account(dt_s, busy_fraction)

        return KernelTickResult(usage, gpu, freqs, sched.completed_tags)

    def _cooling_state_changed(
        self, device: str, last: int, cur: int, now_s: float
    ) -> None:
        self.tracer.emit(now_s, "thermal", "cooling_state", f"{device} {last} -> {cur}")
        self._m_cooling_changes[device].inc()
        self.spans.instant(
            "thermal.cooling_state", device=device, from_state=last, to_state=cur,
        )
        if last == 0 and cur > 0:
            self._throttle_since_s[device] = now_s
        elif cur == 0:
            start = self._throttle_since_s.pop(device, None)
            if start is not None:
                self._m_throttle_duration[device].observe(now_s - start)

    def update_power_readings(
        self, rail_powers_w: Mapping[str, float], dt_s: float
    ) -> None:
        """Feed measured rail powers into the INA231-style sensors."""
        for rail, sensor in self.power_sensors.items():
            if rail in rail_powers_w:
                sensor.update(rail_powers_w[rail], dt_s)

    def cputime_s(self, pid: int) -> float:
        """Total busy core-seconds of ``pid`` (sum over clusters)."""
        return self.scheduler.task(pid).total_core_seconds()

    def task_cluster(self, pid: int) -> str:
        """Cluster a pid currently runs on."""
        return self.scheduler.task(pid).cluster

    def migrate(self, pid: int, cluster: str) -> None:
        """Move a pid to another cluster."""
        before = self.scheduler.task(pid).cluster
        self.scheduler.set_affinity(pid, cluster)
        if before != cluster:
            self.tracer.emit(
                self._clock.now, "sched", "migrate",
                f"pid={pid} {before} -> {cluster}",
            )
            self._m_migrations.inc()
            self.spans.instant(
                "sched.migrate", pid=pid, from_cluster=before, to_cluster=cluster
            )

    def task_by_name(self, name: str) -> Task:
        """First live task with the given name."""
        for task in self.scheduler.tasks():
            if task.name == name:
                return task
        raise SchedulingError(f"no live task named {name!r}")
