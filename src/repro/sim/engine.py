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
from repro.obs.profiler import NULL_PROFILER, StepProfiler
from repro.obs.spans import SpanTracer
from repro.power.daq import PowerDaq
from repro.power.energy import EnergyMeter
from repro.sim.clock import Clock, PeriodicTimer, ticks_for_duration
from repro.sim.power_stage import PowerStage
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.soc.platform import PlatformSpec
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
        thermal_integrator: str = "zoh",
    ) -> None:
        self.platform = platform
        self.seed = seed
        self.clock = Clock(dt_s)
        self.rng = RngRegistry(seed)
        self.metrics = MetricsRegistry()
        self.spans = SpanTracer(sim_time_fn=lambda: self.clock.now)
        self.profiler = StepProfiler() if profile else None
        prof = self.profiler if profile else NULL_PROFILER
        # Cached accumulators: no per-step lookups on the hot path.
        self._ph_step = prof.step()
        self._ph_apps = prof.phase("apps")
        self._ph_kernel = prof.phase("kernel")
        self._ph_assemble = prof.phase("power_assemble")
        self._ph_power = prof.phase("power_model")
        self._ph_thermal = prof.phase("thermal")
        self._ph_record = prof.phase("record")
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
            integrator=thermal_integrator,
        )
        self.kernel = Kernel(
            platform, self.thermal, self.clock, self.rng, kernel_config,
            metrics=self.metrics, spans=self.spans,
        )
        self.power_stage = PowerStage(platform, self.kernel, self.thermal)
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

    def _dispatch(self, tags, gpu: bool, now_s: float) -> None:
        for tag in tags:
            if not isinstance(tag, tuple) or not tag:
                continue
            app = self._apps.get(tag[0])
            if app is None:
                continue
            if gpu:
                app.on_gpu_complete(tag, now_s)
            else:
                app.on_cpu_complete(tag, now_s)

    def step(self) -> None:
        """Advance the whole system by one tick.

        The body is bracketed into the profiler phases of
        :data:`repro.obs.profiler.STEP_PHASES`; with ``profile=False`` the
        null profiler makes the brackets no-ops.
        """
        with self._ph_step:
            now = self.clock.now
            dt = self.clock.dt

            with self._ph_apps:
                for app in self._apps.values():
                    app.step(now, dt)

            with self._ph_kernel:
                kres = self.kernel.tick(now, dt)
                self._dispatch(kres.completed_cpu_tags, gpu=False, now_s=now)
                self._dispatch(kres.gpu.completed_tags, gpu=True, now_s=now)

            with self._ph_assemble:
                rail_watts, soc_watts, battery_w = self.power_stage.assemble(kres)

            with self._ph_thermal:
                self.thermal.step(rail_watts)

            with self._ph_power:
                self.kernel.update_power_readings(soc_watts, dt)
                self.energy.accumulate(rail_watts, dt)
                if self.daq is not None:
                    self.daq.capture(now, dt, battery_w)
                if self.battery is not None:
                    self.battery.drain(battery_w, dt)

            with self._ph_record:
                self._m_steps.inc()
                if self._record_timer.poll():
                    self._record(now, kres, rail_watts, battery_w)
                self.clock.advance()

    def _record(self, now, kres, rail_watts, battery_w) -> None:
        max_temp_c = kelvin_to_celsius(self.thermal.max_temperature_k())
        self._m_sim_time.set(now)
        self._m_power.set(battery_w)
        self._m_temp_max.set(max_temp_c)
        for node, temp_k in self.thermal.temperatures_k().items():
            self.traces.record(f"temp.{node}", now, kelvin_to_celsius(temp_k))
        self.traces.record("temp.max", now, max_temp_c)
        for domain, freq in kres.freqs_hz.items():
            self.traces.record(f"freq.{domain}", now, freq / 1e6)
        for rail, watts in rail_watts.items():
            self.traces.record(f"power.{rail}", now, watts)
        self.traces.record("power.total", now, battery_w)
        for cluster in self.platform.clusters:
            self.traces.record(
                f"busy.{cluster.name}", now, kres.usage[cluster.name].busy_cores
            )
        self.traces.record("busy.gpu", now, kres.gpu.busy_fraction)
        if self.battery is not None:
            self.traces.record("battery.soc", now, self.battery.soc)

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
