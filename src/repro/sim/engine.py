"""The simulation engine: device + OS + workloads advancing in lock-step.

Per tick:

1. every application steps (starts frames, emits touches, queues work);
2. the kernel runs governors/zones/daemons, then dispatches CPU + GPU work;
3. completion tags are routed back to their applications;
4. the power model converts activity + temperatures into per-rail watts;
5. the thermal model integrates one step; sensors and meters are fed;
6. traces are recorded at the recording period.

The power→temperature→leakage loop closes across ticks (explicit coupling),
which is accurate at a 10 ms step against thermal time constants of seconds
and allows genuine thermal runaway to occur when the operating point is
beyond the critical power of Section IV.A.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.apps.base import AppContext, Application
from repro.errors import ConfigurationError, SimulationError
from repro.kernel.kernel import Kernel, KernelConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import STEP_PHASES, StepProfiler
from repro.obs.spans import SpanTracer
from repro.power.daq import PowerDaq
from repro.power.energy import EnergyMeter
from repro.sim.clock import Clock, PeriodicTimer, ticks_for_duration
from repro.sim.power_stage import PowerStage
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.soc.platform import BOARD_RAIL, PlatformSpec
from repro.thermal.model import ThermalModel
from repro.units import celsius_to_kelvin, kelvin_to_celsius


class Simulation:
    """One simulated device running a set of applications."""

    def __init__(
        self,
        platform: PlatformSpec,
        apps: Sequence[Application] = (),
        kernel_config: KernelConfig | None = None,
        seed: int = 0,
        dt_s: float = 0.01,
        ambient_c: float | None = None,
        initial_temp_c: float | None = None,
        record_period_s: float = 0.1,
        enable_daq: bool = False,
        daq_rate_hz: float = 1000.0,
        battery=None,
        profile: bool = False,
    ) -> None:
        self.platform = platform
        self.seed = seed
        self.clock = Clock(dt_s)
        self._dt = self.clock.dt
        self.rng = RngRegistry(seed)
        self.metrics = MetricsRegistry()
        clock = self.clock
        self.spans = SpanTracer(sim_time_fn=lambda: clock.now)
        self.profiler = StepProfiler() if profile else None
        # Phase boundaries of step(), in STEP_PHASES order; no timer at all
        # when profiling is off.
        self._laps = self.profiler.laps(STEP_PHASES) if profile else None
        ambient_k = (
            platform.default_ambient_k
            if ambient_c is None
            else celsius_to_kelvin(ambient_c)
        )
        initial_k = (
            platform.initial_temp_k
            if initial_temp_c is None
            else celsius_to_kelvin(initial_temp_c)
        )
        self.thermal = ThermalModel(
            platform.thermal, dt_s, ambient_k=ambient_k, initial_k=initial_k,
        )
        self.kernel = Kernel(
            platform, self.thermal, self.clock, self.rng, kernel_config,
            metrics=self.metrics, spans=self.spans,
        )
        self.power_stage = PowerStage(platform, self.kernel, self.thermal)
        rails = [c.rail for c in platform.clusters]
        rails += [platform.gpu.rail, platform.memory.rail, BOARD_RAIL]
        # Trace channel names, formatted once per node, domain and rail.
        self._temp_channels = {n: f"temp.{n}" for n in self.thermal.node_names}
        self._freq_channels = {d: f"freq.{d}" for d in self.kernel.policies}
        self._power_channels = {r: f"power.{r}" for r in rails}
        self._busy_channels = {c.name: f"busy.{c.name}" for c in platform.clusters}
        self.traces = TraceRecorder()
        self._m_steps = self.metrics.counter(
            "repro_sim_steps_total", "Simulation ticks executed"
        )
        self._m_sim_time = self.metrics.gauge(
            "repro_sim_time_seconds", "Current simulated time"
        )
        self._m_power = self.metrics.gauge(
            "repro_power_total_watts", "Battery-side total power, last record"
        )
        self._m_temp_max = self.metrics.gauge(
            "repro_temp_max_celsius", "Hottest thermal node, last record"
        )
        self.energy = EnergyMeter()
        self.daq = (
            PowerDaq(self.rng.stream("daq"), sample_rate_hz=daq_rate_hz)
            if enable_daq
            else None
        )
        self.battery = battery
        self._record_timer = PeriodicTimer(self.clock, record_period_s)
        self._apps: dict[str, Application] = {}
        for app in apps:
            self.add_app(app)

    # -------------------------------------------------------------- set-up

    def add_app(self, app: Application) -> None:
        """Attach an application to this simulation."""
        if app.name in self._apps:
            raise ConfigurationError(f"duplicate app name {app.name!r}")
        app.attach(AppContext(kernel=self.kernel, rng=self.rng.stream(f"app.{app.name}")))
        self._apps[app.name] = app

    @property
    def apps(self) -> dict[str, Application]:
        """Attached applications by name."""
        return dict(self._apps)

    def app(self, name: str) -> Application:
        """Look up an attached application."""
        try:
            return self._apps[name]
        except KeyError:
            raise SimulationError(
                f"no app {name!r}; have {sorted(self._apps)}"
            ) from None

    # ---------------------------------------------------------------- step

    def step(self) -> None:
        """Advance the whole system by one tick.

        With ``profile=True`` the body is timed as the phases of
        :data:`repro.obs.profiler.STEP_PHASES`, one lap per phase.
        """
        laps = self._laps
        if laps is not None:
            laps.start()
        now = self.clock.now
        dt = self._dt

        for app in self._apps.values():
            app.step(now, dt)
        if laps is not None:
            laps.lap()  # apps

        kres = self.kernel.tick(now, dt)
        # Completion tags are (app name, ...) tuples; others have no owner.
        owner = self._apps.get
        for tag in kres.completed_cpu_tags:
            app = owner(tag[0]) if isinstance(tag, tuple) and tag else None
            if app is not None:
                app.on_cpu_complete(tag, now)
        for tag in kres.gpu.completed_tags:
            app = owner(tag[0]) if isinstance(tag, tuple) and tag else None
            if app is not None:
                app.on_gpu_complete(tag, now)
        if laps is not None:
            laps.lap()  # kernel

        rail_watts, battery_w = self.power_stage.assemble(kres)
        if laps is not None:
            laps.lap()  # power_assemble

        self.thermal.step(rail_watts)
        if laps is not None:
            laps.lap()  # thermal

        self.kernel.update_power_readings(rail_watts, dt)
        self.energy.accumulate(rail_watts, dt)
        if self.daq is not None:
            self.daq.capture(now, dt, battery_w)
        if self.battery is not None:
            self.battery.drain(battery_w, dt)
        if laps is not None:
            laps.lap()  # power_model

        self._m_steps.inc()
        if self._record_timer.poll():
            self._record(now, kres, rail_watts, battery_w)
        self.clock.advance()
        if laps is not None:
            laps.finish()  # record

    def _record(self, now, kres, rail_watts, battery_w) -> None:
        record = self.traces.record
        max_temp_c = kelvin_to_celsius(self.thermal.max_temperature_k())
        self._m_sim_time.set(now)
        self._m_power.set(battery_w)
        self._m_temp_max.set(max_temp_c)
        names = self._temp_channels
        for node, temp_k in self.thermal.temperatures_k().items():
            record(names[node], now, kelvin_to_celsius(temp_k))
        record("temp.max", now, max_temp_c)
        names = self._freq_channels
        for domain, freq in kres.freqs_hz.items():
            record(names[domain], now, freq / 1e6)
        names = self._power_channels
        for rail, watts in rail_watts.items():
            record(names[rail], now, watts)
        record("power.total", now, battery_w)
        usage = kres.usage
        for name, channel in self._busy_channels.items():
            record(channel, now, usage[name].busy_cores)
        record("busy.gpu", now, kres.gpu.busy_fraction)
        if self.battery is not None:
            record("battery.soc", now, self.battery.soc)

    # ----------------------------------------------------------------- run

    def run(
        self,
        duration_s: float,
        until: Callable[["Simulation"], bool] | None = None,
    ) -> None:
        """Run for ``duration_s`` seconds (or until the predicate is true).

        The loop is counted in whole clock ticks (not float end-time
        comparisons), so repeated or very long runs never gain or lose a
        step to accumulated float dust.
        """
        if duration_s <= 0.0:
            raise ConfigurationError("duration must be positive")
        for _ in range(ticks_for_duration(duration_s, self.clock.dt)):
            self.step()
            if until is not None and until(self):
                break

    @property
    def now_s(self) -> float:
        """Current simulation time."""
        return self.clock.now
