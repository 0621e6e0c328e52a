"""Per-layer spans installed from outside the program.

The benchmark times calls into each layer's public functions by replacing
them, at class or module level, with wrappers that keep a span stack.
Nothing under ``src/`` knows about it: :class:`LayerTracer` swaps the
attributes in on entry and puts the identical original objects back on
exit, and :meth:`LayerTracer.restore` checks that it did.

A span's *self time* is its duration minus the durations of the spans
that ran inside it.  A call into a span that is already the innermost one
(``super().step`` in an ``Application`` subclass) stays part of the outer
call, so it counts once.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One named layer boundary.

    ``targets`` are ``(owner, attribute)`` pairs; an owner is
    ``"module:Class"`` for a method or ``"module"`` for a function bound in
    that module's namespace.  With ``subclasses`` the method is also wrapped
    on every loaded subclass that defines its own version.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    subclasses: bool = False
    keep_durations: bool = False


#: The root of the engine spans: one call per simulated tick.
STEP = Span("sim.step", (("repro.sim.engine:Simulation", "step"),), keep_durations=True)

ENGINE_SPANS = (
    Span("apps.step", (("repro.apps.base:Application", "step"),), subclasses=True),
    Span(
        "apps.complete",
        (
            ("repro.apps.base:Application", "on_cpu_complete"),
            ("repro.apps.base:Application", "on_gpu_complete"),
        ),
        subclasses=True,
    ),
    Span("kernel.tick", (("repro.kernel.kernel:Kernel", "tick"),)),
    Span(
        "kernel.cpufreq",
        (("repro.kernel.cpufreq.governors:FreqGovernor", "update"),),
        subclasses=True,
    ),
    Span("kernel.thermal_zone", (("repro.kernel.thermal.zone:ThermalZone", "poll"),)),
    Span("kernel.scheduler", (("repro.kernel.scheduler:Scheduler", "run_tick"),)),
    Span("kernel.gpu", (("repro.kernel.gpu:GpuDevice", "run_tick"),)),
    Span("core.governor", (("repro.core.governor:ApplicationAwareGovernor", "run"),)),
    Span("sim.power_stage", (("repro.sim.power_stage:PowerStage", "assemble"),)),
    Span("soc.power_model", (("repro.soc.power_model:SocPowerModel", "rail_powers"),)),
    Span("thermal.step", (("repro.thermal.model:ThermalModel", "step"),)),
    Span(
        "thermal.read",
        (
            ("repro.thermal.model:ThermalModel", "temperatures_k"),
            ("repro.thermal.model:ThermalModel", "max_temperature_k"),
        ),
    ),
    Span(
        "sim.clock",
        (("repro.sim.clock:Clock", "advance"), ("repro.sim.clock:PeriodicTimer", "poll")),
    ),
    Span(
        "obs.metrics",
        (
            ("repro.obs.metrics:Counter", "inc"),
            ("repro.obs.metrics:Gauge", "set"),
            ("repro.obs.metrics:Gauge", "inc"),
            ("repro.obs.metrics:Gauge", "dec"),
            ("repro.obs.metrics:Histogram", "observe"),
        ),
    ),
    Span("power.sensors", (("repro.kernel.kernel:Kernel", "update_power_readings"),)),
    Span("power.energy", (("repro.power.energy:EnergyMeter", "accumulate"),)),
    Span("power.daq", (("repro.power.daq:PowerDaq", "capture"),)),
    Span("sim.trace", (("repro.sim.trace:TraceRecorder", "record"),)),
)

CAMPAIGN_SPANS = (
    Span("campaign.expand", (("repro.campaign.spec:CampaignSpec", "expand"),)),
    Span(
        "campaign.scenario",
        (("repro.sim.experiment:Scenario", "run_instrumented"),),
        keep_durations=True,
    ),
    Span("campaign.store_save", (("repro.campaign.store:ResultStore", "save"),)),
    Span(
        "obs.aggregate",
        (
            ("repro.obs.telemetry.aggregate:CampaignAggregator", "ingest"),
            ("repro.obs.telemetry.aggregate:CampaignAggregator", "aggregate"),
        ),
    ),
    Span("campaign.runner", (("repro.campaign.runner:CampaignRunner", "run"),)),
)

CALIB_SPANS = (
    Span(
        "calib.fit_trace",
        (("repro.calib.fit", "fit_trace"), ("repro.calib.assemble", "fit_trace")),
    ),
    Span("calib.assemble", (("repro.calib.assemble", "assemble_platform_def"),)),
    Span("calib.robust.align", (("repro.calib.robust", "align_channels"),)),
    Span("calib.robust.hampel", (("repro.calib.robust", "hampel"),)),
    Span(
        "calib.robust.irls",
        (("repro.calib.robust", "irls_lstsq"), ("repro.calib.robust", "irls_nnls")),
    ),
    Span(
        "calib.leakage",
        (
            ("repro.calib.fit", "fit_log_linear_leakage"),
            ("repro.calib.robust", "fit_log_linear_leakage_robust"),
        ),
    ),
    Span("scipy.nnls", (("repro.calib.fit", "nnls"),)),
    Span("scipy.logm", (("repro.calib.fit", "logm"),)),
)

#: Modules whose subclasses must be loaded before wrapping, so that a
#: class first imported mid-run cannot escape its span.
_SUBCLASS_MODULES = (
    "repro.apps.catalog",
    "repro.apps.frames",
    "repro.apps.gfxbench",
    "repro.apps.mibench",
    "repro.apps.replay",
    "repro.kernel.cpufreq.governors",
)


def _resolve(owner: str):
    module_name, _, qualname = owner.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


def _all_subclasses(cls) -> list[type]:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in found:
            found.append(sub)
            todo.extend(sub.__subclasses__())
    return found


@dataclass(frozen=True)
class SpanStats:
    """What one span accumulated while the tracer was installed."""

    calls: int
    total_ns: int
    child_ns: int
    durations_ns: list[int]

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class LayerTracer:
    """Install span wrappers for a set of :class:`Span` s; restore on exit."""

    def __init__(self, spans) -> None:
        self.spans = tuple(spans)
        # Per span: [calls, total_ns, child_ns], and per-call durations.
        self._acc = {span.name: [0, 0, 0] for span in self.spans}
        self._durations = {span.name: [] for span in self.spans}
        self._keep = {span.name: span.keep_durations for span in self.spans}
        self._stack: list[list] = [[None, 0]]
        self._patched: list[tuple[object, str, object]] = []

    @property
    def stats(self) -> dict[str, SpanStats]:
        return {
            name: SpanStats(acc[0], acc[1], acc[2], self._durations[name])
            for name, acc in self._acc.items()
        }

    # ----------------------------------------------------------- wrappers

    def _wrap(self, fn, name: str):
        stack = self._stack
        push, pop = stack.append, stack.pop
        acc = self._acc[name]
        durations = self._durations[name] if self._keep[name] else None
        clock = time.perf_counter_ns

        # The clock is read first and last, and the bookkeeping sits between
        # the two reads, so the wrapper's own cost lands in the span it
        # wraps rather than in its caller's self time.
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            parent = stack[-1]
            if parent[0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
                acc[0] += 1
                acc[2] += frame[1]
                if durations is not None:
                    durations.append(clock() - t0)
                parent[1] -= t0
                acc[1] -= t0
                t1 = clock()
                parent[1] += t1
                acc[1] += t1

        return wrapped

    def _targets(self):
        if any(span.subclasses for span in self.spans):
            for module_name in _SUBCLASS_MODULES:
                importlib.import_module(module_name)
        for span in self.spans:
            for owner_name, attr in span.targets:
                owner = _resolve(owner_name)
                owners = [owner]
                if span.subclasses:
                    owners += [
                        sub for sub in _all_subclasses(owner) if attr in vars(sub)
                    ]
                for each in owners:
                    yield span.name, each, attr

    def install(self) -> None:
        """Swap every target attribute for its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for name, owner, attr in self._targets():
                original = vars(owner)[attr]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{owner!r}.{attr} is not a plain function")
                setattr(owner, attr, self._wrap(original, name))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back and check it is the identical object."""
        patched, self._patched = self._patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patched
            if vars(owner).get(attr) is not original
        ]
        if wrong:
            raise RuntimeError(f"not restored: {', '.join(wrong)}")

    def unwrapped_subclasses(self) -> list[str]:
        """Subclasses defining a wrapped method that were loaded only after
        :meth:`install` ran, so their calls escaped the span."""
        wrapped = {(owner, attr) for owner, attr, _ in self._patched}
        return sorted(
            f"{owner.__qualname__}.{attr}"
            for _, owner, attr in self._targets()
            if (owner, attr) not in wrapped
        )

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
