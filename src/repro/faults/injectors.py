"""Injectors: replay a :class:`~repro.faults.plan.FaultPlan` against a sim.

A :class:`FaultController` attaches to a running
:class:`~repro.sim.engine.Simulation` as a kernel daemon ticking at the
simulation step, opening and closing each event's fault window at the
declared sim times.  All probabilistic behaviour draws from dedicated
``faults.<plan>.<index>`` streams of the scenario's
:class:`~repro.sim.rng.RngRegistry`, so a fault run is byte-reproducible at
a fixed seed and independent of how many other streams exist.

Injection mechanics per kind (see :mod:`repro.faults.plan` for semantics):

* sensor kinds wrap the targeted thermal zones' ``sensor`` attribute with
  the wrappers of :mod:`repro.faults.sensors` — which also covers the
  zones' sysfs ``temp`` nodes — and restore the original sensor when the
  window closes;
* ``sysfs_eio`` installs a :meth:`VirtualFs.add_read_fault` hook raising
  :class:`~repro.errors.SysfsError` on matching reads;
* ``governor_stall`` wraps the target daemon via
  :meth:`~repro.kernel.kernel.Kernel.wrap_daemon`;
* ``cooling_stuck`` freezes the bound cooling devices;
* ``fan_stop`` scales the thermal network's ambient conductances.

An injector whose target does not exist in the scenario (a governor stall
under the ``stock`` policy, a cooling fault under ``proposed``) arms as a
no-op: the plan still runs, nothing is injected, and the controller's
summary records zero injections for it.
"""

from __future__ import annotations

import weakref

from repro.errors import FaultInjectionError, SysfsError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.sensors import DroppingSensor, SpikySensor, StuckSensor
from repro.obs.metrics import DETECTION_LATENCY_BUCKETS_S

#: Default sysfs prefix hit by ``sysfs_eio`` events without a target.
DEFAULT_EIO_PREFIX = "/sys/class/thermal"

#: Default daemon stalled by ``governor_stall`` events without a target.
DEFAULT_STALL_TARGET = "app-aware-governor"


class _Injector:
    """One event's actuator: open/close its fault window."""

    def __init__(self, event: FaultEvent, sim, rng) -> None:
        self.event = event
        self.active = False
        self._sim = sim
        self._rng = rng

    def prepare(self) -> None:
        """One-time hookup before the simulation runs (optional)."""

    def activate(self, now_s: float) -> bool:
        """Open the window; returns whether anything was actually armed."""
        raise NotImplementedError

    def deactivate(self, now_s: float) -> None:
        """Close the window and restore the pre-fault state."""
        raise NotImplementedError


class _SensorInjector(_Injector):
    """sensor_stuck / sensor_spike / sensor_dropout on thermal zones."""

    def __init__(self, event: FaultEvent, sim, rng) -> None:
        super().__init__(event, sim, rng)
        zones = sim.kernel.zones
        if event.target is not None:
            if event.target not in zones:
                raise FaultInjectionError(
                    f"{event.kind}: no thermal zone named {event.target!r}; "
                    f"have {sorted(zones)}"
                )
            self._zones = [zones[event.target]]
        else:
            self._zones = list(zones.values())
        self._saved: list[tuple[object, object]] = []

    def _wrap(self, inner):
        ev = self.event
        if ev.kind == "sensor_stuck":
            wrapper = StuckSensor(inner)
            wrapper.trigger()
            return wrapper
        if ev.kind == "sensor_spike":
            return SpikySensor(
                inner, self._rng,
                spike_probability=ev.probability,
                spike_magnitude_c=ev.magnitude_c,
            )
        return DroppingSensor(inner, self._rng, drop_probability=ev.probability)

    def activate(self, now_s: float) -> bool:
        self._saved = [(zone, zone.sensor) for zone in self._zones]
        for zone in self._zones:
            zone.sensor = self._wrap(zone.sensor)
        return True

    def deactivate(self, now_s: float) -> None:
        for zone, sensor in self._saved:
            zone.sensor = sensor
        self._saved = []


class _SysfsEioInjector(_Injector):
    """Transient -EIO on userspace reads under a path prefix."""

    def __init__(self, event: FaultEvent, sim, rng) -> None:
        super().__init__(event, sim, rng)
        self._prefix = (event.target or DEFAULT_EIO_PREFIX).rstrip("/")
        self._remove = None

    def activate(self, now_s: float) -> bool:
        prefix = self._prefix
        subtree = prefix + "/"
        probability = self.event.probability
        rng = self._rng

        def hook(path: str) -> None:
            if path == prefix or path.startswith(subtree):
                if rng.random() < probability:
                    raise SysfsError(f"[Errno 5] I/O error: {path}")

        self._remove = self._sim.kernel.fs.add_read_fault(hook)
        return True

    def deactivate(self, now_s: float) -> None:
        if self._remove is not None:
            self._remove()
            self._remove = None


class _GovernorStallInjector(_Injector):
    """The target daemon misses every tick inside the window."""

    def __init__(self, event: FaultEvent, sim, rng) -> None:
        super().__init__(event, sim, rng)
        self._target = event.target or DEFAULT_STALL_TARGET
        self._wrapped = False
        self.missed_ticks = 0

    def prepare(self) -> None:
        kernel = self._sim.kernel
        if self._target not in kernel.daemon_names():
            return  # no such daemon in this scenario: the event is inert

        def wrap(fn):
            def stalled(now_s: float) -> None:
                if self.active:
                    self.missed_ticks += 1
                    return
                fn(now_s)

            return stalled

        kernel.wrap_daemon(self._target, wrap)
        self._wrapped = True

    def activate(self, now_s: float) -> bool:
        return self._wrapped

    def deactivate(self, now_s: float) -> None:
        pass  # the wrapper keys off ``self.active``; nothing to restore


class _CoolingStuckInjector(_Injector):
    """Freeze cooling devices at their current state."""

    def __init__(self, event: FaultEvent, sim, rng) -> None:
        super().__init__(event, sim, rng)
        devices = sim.kernel.cooling_devices
        if event.target is not None:
            self._devices = [d for d in devices if d.name == event.target]
        else:
            self._devices = list(devices)

    def activate(self, now_s: float) -> bool:
        for device in self._devices:
            device.freeze()
        return bool(self._devices)

    def deactivate(self, now_s: float) -> None:
        for device in self._devices:
            device.unfreeze()


class _FanStopInjector(_Injector):
    """Degrade every node-to-ambient heat path by the event's scale."""

    def activate(self, now_s: float) -> bool:
        self._sim.thermal.set_ambient_conductance_scale(self.event.scale)
        return True

    def deactivate(self, now_s: float) -> None:
        self._sim.thermal.set_ambient_conductance_scale(1.0)


_INJECTORS = {
    "sensor_stuck": _SensorInjector,
    "sensor_spike": _SensorInjector,
    "sensor_dropout": _SensorInjector,
    "sysfs_eio": _SysfsEioInjector,
    "governor_stall": _GovernorStallInjector,
    "cooling_stuck": _CoolingStuckInjector,
    "fan_stop": _FanStopInjector,
}


class FaultController:
    """Drives a plan's fault windows from the simulation clock.

    Parameters
    ----------
    plan:
        The fault plan to replay.
    sim:
        The simulation to attach to (before ``sim.run``).
    governor:
        The scenario's :class:`~repro.core.governor.ApplicationAwareGovernor`
        when one is installed; used after the run to compute detection
        latencies from its :attr:`detections` log.
    """

    def __init__(self, plan: FaultPlan, sim, governor=None) -> None:
        self.plan = plan
        # The controller runs as one of the simulation's kernel daemons, so
        # it (and its injectors) hold the simulation weakly: no reference
        # cycle keeps a finished run alive until the cycle collector runs.
        sim = weakref.proxy(sim)
        self._sim = sim
        self._governor = governor
        self._injectors = [
            _INJECTORS[event.kind](
                event, sim, sim.rng.stream(f"faults.{plan.name}.{index}")
            )
            for index, event in enumerate(plan.events)
        ]
        #: (activation sim time, kind) of every armed event, in order.
        self.injected: list[tuple[float, str]] = []
        #: Sim-seconds from each armed activation to the governor's first
        #: subsequent detection (filled by :meth:`finalize`).
        self.detection_latencies_s: list[float] = []
        self._metrics = sim.metrics
        self._m_latency = sim.metrics.histogram(
            "repro_fault_detection_latency_seconds",
            "Sim-time from fault activation to first governor detection",
            buckets=DETECTION_LATENCY_BUCKETS_S,
        )

    def attach(self) -> None:
        """Register the controller daemon; call before ``sim.run``."""
        for injector in self._injectors:
            injector.prepare()
        self._sim.kernel.register_daemon(
            "fault-controller", self._sim.clock.dt, self._tick
        )

    def _tick(self, now_s: float) -> None:
        for injector in self._injectors:
            event = injector.event
            if not injector.active and event.start_s <= now_s < event.end_s:
                armed = injector.activate(now_s)
                injector.active = True
                if armed:
                    self.injected.append((now_s, event.kind))
                    self._metrics.counter(
                        "repro_faults_injected_total",
                        "Fault-plan events activated by the fault controller",
                        labels={"kind": event.kind},
                    ).inc()
            elif injector.active and now_s >= event.end_s:
                injector.deactivate(now_s)
                injector.active = False

    def finalize(self, now_s: float) -> None:
        """Close any still-open windows and compute detection latencies."""
        for injector in self._injectors:
            if injector.active:
                injector.deactivate(now_s)
                injector.active = False
        if self._governor is None:
            return
        detections = self._governor.detections
        for start_s, _kind in self.injected:
            first = next(
                (d.time_s for d in detections if d.time_s >= start_s), None
            )
            if first is not None:
                latency = first - start_s
                self.detection_latencies_s.append(latency)
                self._m_latency.observe(latency)

    def summary(self) -> dict:
        """Post-run facts for :class:`~repro.sim.experiment.ScenarioResult`."""
        return {
            "fault_plan": self.plan.name,
            "faults_injected": tuple(self.injected),
        }
