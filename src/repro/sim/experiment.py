"""Declarative scenario runner.

The experiment modules each assemble platform + apps + policy by hand; this
module packages that pattern into a single reusable entry point:

    result = Scenario(
        platform="pixel-xl",
        apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
        policy="proposed",
        duration_s=120.0,
    ).run()

Platforms resolve through :mod:`repro.soc.registry` — any registered
:class:`~repro.soc.defs.PlatformDef` runs here with no code changes.
Policies: ``none`` (no thermal management), ``stock`` (the platform's
registered default kernel policy: step-wise trips on the phones, IPA on
the Odroid), ``proposed`` (the paper's application-aware governor; every
non-batch app is registered as real-time, and the temperature limit
defaults to the platform definition's ``software.t_limit_c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.analysis.breakdown import PowerBreakdown, breakdown_from_traces
from repro.apps.base import Application
from repro.apps.catalog import CATALOG, make_app
from repro.apps.mibench import MIBENCH_SUITE
from repro.core.governor import ApplicationAwareGovernor, GovernorConfig
from repro.errors import ConfigurationError
from repro.faults.injectors import FaultController
from repro.faults.plan import FaultPlan, resolve_plan
from repro.kernel.kernel import KernelConfig
from repro.sim.engine import Simulation
from repro.soc import registry as platform_registry

POLICIES = ("none", "stock", "proposed")

#: A run's summary (power breakdown, DAQ mean power) skips the first
#: seconds of warm-up, so a scenario must run longer than this.
SUMMARY_START_S = 5.0


@dataclass(frozen=True)
class AppSpec:
    """One workload in a scenario."""

    kind: str  # "catalog" or "batch"
    name: str
    cluster: str | None = None

    @classmethod
    def catalog(cls, name: str, cluster: str | None = None) -> "AppSpec":
        """A Play-Store catalog app (foreground: registered under 'proposed')."""
        if name not in CATALOG:
            raise ConfigurationError(
                f"unknown catalog app {name!r}; have {sorted(CATALOG)}"
            )
        return cls("catalog", name, cluster)

    @classmethod
    def batch(cls, name: str, cluster: str | None = None) -> "AppSpec":
        """A MiBench batch kernel (background: migratable)."""
        if name not in MIBENCH_SUITE:
            raise ConfigurationError(
                f"unknown MiBench kernel {name!r}; have {sorted(MIBENCH_SUITE)}"
            )
        return cls("batch", name, cluster)

    def build(self) -> Application:
        """Instantiate the application."""
        if self.kind == "catalog":
            return make_app(self.name, cluster=self.cluster)
        return MIBENCH_SUITE[self.name](cluster=self.cluster)

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :meth:`from_dict`)."""
        return {"kind": self.kind, "name": self.name, "cluster": self.cluster}

    @classmethod
    def from_dict(cls, data: Mapping) -> "AppSpec":
        """Inverse of :meth:`to_dict`, re-running catalog validation."""
        kind = data.get("kind")
        cluster = data.get("cluster")
        if kind == "catalog":
            return cls.catalog(data["name"], cluster)
        if kind == "batch":
            return cls.batch(data["name"], cluster)
        raise ConfigurationError(
            f"unknown AppSpec kind {kind!r}; have ('catalog', 'batch')"
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Standardised outcome of one scenario run."""

    policy: str
    fps: dict[str, float]
    peak_temp_c: float
    end_temp_c: float
    breakdown: PowerBreakdown
    mean_power_w: float
    governor_events: tuple[tuple[float, str, str], ...]
    #: Name of the fault plan replayed during the run (None = fault-free).
    fault_plan: str | None = None
    #: (sim time, kind) of every fault-plan event that actually armed —
    #: distinguishes "the plan executed as designed" from a scenario crash.
    faults_injected: tuple[tuple[float, str], ...] = ()
    #: Simulated seconds the proposed governor spent in failsafe mode.
    failsafe_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form — the campaign store's wire format."""
        return {
            "policy": self.policy,
            "fps": dict(self.fps),
            "peak_temp_c": self.peak_temp_c,
            "end_temp_c": self.end_temp_c,
            "breakdown": self.breakdown.to_dict(),
            "mean_power_w": self.mean_power_w,
            "governor_events": [list(e) for e in self.governor_events],
            "fault_plan": self.fault_plan,
            "faults_injected": [list(e) for e in self.faults_injected],
            "failsafe_s": self.failsafe_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioResult":
        """Inverse of :meth:`to_dict` (fault fields optional, pre-1.1)."""
        fault_plan = data.get("fault_plan")
        return cls(
            policy=str(data["policy"]),
            fps={str(k): float(v) for k, v in data["fps"].items()},
            peak_temp_c=float(data["peak_temp_c"]),
            end_temp_c=float(data["end_temp_c"]),
            breakdown=PowerBreakdown.from_dict(data["breakdown"]),
            mean_power_w=float(data["mean_power_w"]),
            governor_events=tuple(
                (float(t), str(name), str(direction))
                for t, name, direction in data["governor_events"]
            ),
            fault_plan=None if fault_plan is None else str(fault_plan),
            faults_injected=tuple(
                (float(t), str(kind))
                for t, kind in data.get("faults_injected", ())
            ),
            failsafe_s=float(data.get("failsafe_s", 0.0)),
        )


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment: platform + apps + policy."""

    platform: str
    apps: tuple[AppSpec, ...]
    policy: str = "stock"
    duration_s: float = 120.0
    seed: int = 3
    t_limit_c: float | None = None
    governor: GovernorConfig | None = None
    ambient_c: float | None = None
    #: Fault plan to replay (a plan, a built-in plan name, or a plan dict).
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not platform_registry.is_registered(self.platform):
            raise ConfigurationError(
                f"unknown platform {self.platform!r}; "
                f"have {platform_registry.platform_names()}"
            )
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; have {POLICIES}"
            )
        if not self.apps:
            raise ConfigurationError("a scenario needs at least one app")
        if not self.duration_s > SUMMARY_START_S:
            raise ConfigurationError(
                f"duration must exceed the {SUMMARY_START_S:g} s warm-up the "
                f"summary skips, got {self.duration_s}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            object.__setattr__(self, "faults", resolve_plan(self.faults))

    def to_dict(self) -> dict:
        """Complete JSON-serialisable description — the cache-key input."""
        return {
            "platform": self.platform,
            "apps": [spec.to_dict() for spec in self.apps],
            "policy": self.policy,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "t_limit_c": self.t_limit_c,
            "governor": None if self.governor is None else self.governor.to_dict(),
            "ambient_c": self.ambient_c,
            "faults": None if self.faults is None else self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Inverse of :meth:`to_dict`; optional keys fall back to defaults."""
        known = {
            "platform", "apps", "policy", "duration_s", "seed",
            "t_limit_c", "governor", "ambient_c", "faults",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown Scenario field(s) {sorted(unknown)}; have {sorted(known)}"
            )
        governor = data.get("governor")
        if isinstance(governor, Mapping):
            governor = GovernorConfig.from_dict(governor)
        return cls(
            platform=data["platform"],
            apps=tuple(
                spec if isinstance(spec, AppSpec) else AppSpec.from_dict(spec)
                for spec in data["apps"]
            ),
            policy=data.get("policy", "stock"),
            duration_s=data.get("duration_s", 120.0),
            seed=data.get("seed", 3),
            t_limit_c=data.get("t_limit_c"),
            governor=governor,
            ambient_c=data.get("ambient_c"),
            faults=data.get("faults"),
        )

    def _platform(self):
        return platform_registry.build(self.platform)

    def _kernel_config(self) -> KernelConfig:
        if self.policy != "stock":
            return KernelConfig()
        thermal = platform_registry.get(self.platform).stock_thermal_config()
        return KernelConfig(thermal=thermal)

    def _default_limit_c(self) -> float:
        return platform_registry.get(self.platform).default_t_limit_c

    def run(self) -> ScenarioResult:
        """Build, run and summarise the scenario."""
        _, result = self._execute()
        return result

    def run_instrumented(self) -> tuple[ScenarioResult, dict]:
        """Run and also return the simulation's telemetry snapshot.

        The snapshot (see :meth:`repro.obs.metrics.MetricsRegistry.snapshot`)
        is stamped with the final simulation time and excludes wall-clock
        families, so it is byte-deterministic: campaign workers ship it to
        the parent for cross-process merging.
        """
        sim, result = self._execute()
        snapshot = sim.metrics.snapshot(
            as_of_s=sim.clock.now, include_wall_clock=False
        )
        return result, snapshot

    def _execute(self) -> tuple[Simulation, ScenarioResult]:
        platform = self._platform()
        apps = [spec.build() for spec in self.apps]
        sim = Simulation(
            platform, apps, kernel_config=self._kernel_config(), seed=self.seed,
            ambient_c=self.ambient_c, enable_daq=True,
        )
        governor = None
        if self.policy == "proposed":
            config = self.governor or GovernorConfig(
                t_limit_c=self.t_limit_c or self._default_limit_c(),
                horizon_s=60.0,
            )
            governor = ApplicationAwareGovernor.for_simulation(sim, config)
            for spec, app in zip(self.apps, apps):
                if spec.kind == "catalog":
                    for pid in app.pids():
                        governor.registry.register(pid, spec.name)
            governor.install(sim.kernel)
        controller = None
        if self.faults is not None:
            controller = FaultController(self.faults, sim, governor=governor)
            controller.attach()
        sim.run(self.duration_s)
        if controller is not None:
            controller.finalize(sim.clock.now)
        return sim, self._summarize(platform, apps, sim, governor, controller)

    def _summarize(self, platform, apps, sim, governor, controller) -> ScenarioResult:
        """Reduce a finished simulation to a :class:`ScenarioResult`."""
        fps = {}
        for spec, app in zip(self.apps, apps):
            metrics = app.metrics()
            if "median_fps" in metrics:
                fps[spec.name] = metrics["median_fps"]
        _, temps = sim.traces.series("temp.max")
        rails = [c.rail for c in platform.clusters]
        rails += [platform.gpu.rail, platform.memory.rail]
        events: tuple[tuple[float, str, str], ...] = ()
        failsafe_s = 0.0
        if governor is not None:
            merged = [(e.time_s, e.name, e.direction) for e in governor.events]
            merged += [
                (e.time_s, "failsafe", e.action) for e in governor.failsafe_events
            ]
            events = tuple(sorted(merged))
            failsafe_s = governor.failsafe_s
        fault_plan = None
        faults_injected: tuple[tuple[float, str], ...] = ()
        if controller is not None:
            fault_plan = controller.plan.name
            faults_injected = tuple(controller.injected)
        return ScenarioResult(
            policy=self.policy,
            fps=fps,
            peak_temp_c=float(np.max(temps)),
            end_temp_c=float(temps[-1]),
            breakdown=breakdown_from_traces(
                sim.traces, rails, start_s=SUMMARY_START_S
            ),
            mean_power_w=sim.daq.mean_power_w(start_s=SUMMARY_START_S),
            governor_events=events,
            fault_plan=fault_plan,
            faults_injected=faults_injected,
            failsafe_s=failsafe_s,
        )


def compare_policies(
    platform: str,
    apps: tuple[AppSpec, ...],
    duration_s: float = 120.0,
    seed: int = 3,
    t_limit_c: float | None = None,
) -> dict[str, ScenarioResult]:
    """Run the same app mix under all three policies."""
    return {
        policy: Scenario(
            platform=platform, apps=apps, policy=policy,
            duration_s=duration_s, seed=seed, t_limit_c=t_limit_c,
        ).run()
        for policy in POLICIES
    }
