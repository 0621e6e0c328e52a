"""Per-phase wall-clock profiling of the simulation hot loop.

``Simulation(profile=True)`` wraps every :meth:`Simulation.step` in a
:class:`StepProfiler`: the whole step is timed, and each phase of the step
(``apps``, ``kernel``, ``power_assemble``, ``thermal``, ``power_model``,
``record``) accumulates its own wall-clock total.  The resulting
:class:`ProfileReport` says where the time goes — the measurement substrate
any optimisation of the hot loop must be benchmarked against.

Phases may be entered several times per step (the power-model phase brackets
the thermal integration); totals simply accumulate.  The profiler is
deliberately dependency-free and cheap: two ``perf_counter`` calls per
phase entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.units import seconds_to_microseconds, seconds_to_milliseconds

#: The canonical phases of one :meth:`Simulation.step`, in execution order.
#: ``power_assemble`` (activity construction + rail summation) and
#: ``power_model`` (sensor/energy/DAQ feeds) bracket the power path.
STEP_PHASES = (
    "apps",
    "kernel",
    "power_assemble",
    "thermal",
    "power_model",
    "record",
)


class _PhaseAccumulator:
    """Reusable context manager accumulating one phase's wall-clock.

    One accumulator exists per phase name; re-entering it re-arms the start
    stamp.  Zero allocation on the hot path — the engine brackets every
    phase of every tick with one of these.
    """

    __slots__ = ("name", "total_s", "calls", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_s = 0.0
        self.calls = 0
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseAccumulator":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total_s += time.perf_counter() - self._t0
        self.calls += 1


class _StepAccumulator:
    """Reusable context manager timing whole steps."""

    __slots__ = ("total_s", "count", "_t0")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self._t0 = 0.0

    def __enter__(self) -> "_StepAccumulator":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total_s += time.perf_counter() - self._t0
        self.count += 1


class StepProfiler:
    """Accumulates wall-clock time per step phase."""

    def __init__(self) -> None:
        self._phases: dict[str, _PhaseAccumulator] = {}
        self._step = _StepAccumulator()

    @property
    def step_total_s(self) -> float:
        """Total wall-clock spent inside profiled steps."""
        return self._step.total_s

    @property
    def step_count(self) -> int:
        """Number of profiled steps."""
        return self._step.count

    def step(self) -> _StepAccumulator:
        """Time one whole step (the denominator of phase shares)."""
        return self._step

    def phase(self, name: str) -> _PhaseAccumulator:
        """Time one phase entry; totals accumulate across entries."""
        acc = self._phases.get(name)
        if acc is None:
            acc = self._phases[name] = _PhaseAccumulator(name)
        return acc

    def reset(self) -> None:
        """Zero all accumulators in place (cached handles stay valid)."""
        for acc in self._phases.values():
            acc.total_s = 0.0
            acc.calls = 0
        self._step.total_s = 0.0
        self._step.count = 0

    def report(self) -> "ProfileReport":
        """Aggregate what has been measured so far."""
        if self.step_count == 0:
            raise AnalysisError("profiler has not timed any steps yet")
        rows = []
        for acc in self._phases.values():
            rows.append(
                PhaseStat(
                    name=acc.name,
                    calls=acc.calls,
                    total_s=acc.total_s,
                    share=(
                        acc.total_s / self.step_total_s if self.step_total_s else 0.0
                    ),
                )
            )
        order = {name: i for i, name in enumerate(STEP_PHASES)}
        rows.sort(key=lambda r: (order.get(r.name, len(order)), r.name))
        return ProfileReport(
            step_count=self.step_count,
            step_total_s=self.step_total_s,
            phases=tuple(rows),
        )


class NullProfiler:
    """No-op stand-in used when profiling is disabled (shared handles)."""

    class _Null:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    _HANDLE = _Null()

    def step(self):
        return self._HANDLE

    def phase(self, name: str):
        return self._HANDLE


NULL_PROFILER = NullProfiler()


@dataclass(frozen=True)
class PhaseStat:
    """Aggregate timing of one phase."""

    name: str
    calls: int
    total_s: float
    share: float  # fraction of total step wall-clock

    @property
    def mean_us(self) -> float:
        """Mean wall-clock per phase entry, microseconds."""
        if not self.calls:
            return 0.0
        return seconds_to_microseconds(self.total_s / self.calls)


@dataclass(frozen=True)
class ProfileReport:
    """Where the step wall-clock went."""

    step_count: int
    step_total_s: float
    phases: tuple[PhaseStat, ...]

    @property
    def coverage(self) -> float:
        """Fraction of step wall-clock attributed to a phase (target >= 0.95)."""
        if self.step_total_s <= 0.0:
            return 0.0
        return sum(p.total_s for p in self.phases) / self.step_total_s

    @property
    def mean_step_us(self) -> float:
        """Mean wall-clock per step, microseconds."""
        return seconds_to_microseconds(self.step_total_s / self.step_count)

    def phase(self, name: str) -> PhaseStat:
        """Look up one phase by name."""
        for stat in self.phases:
            if stat.name == name:
                return stat
        raise AnalysisError(f"no profiled phase {name!r}")

    def render(self) -> str:
        """Text table of the per-phase breakdown."""
        lines = [
            f"Step profile: {self.step_count} steps, "
            f"{seconds_to_milliseconds(self.step_total_s):.1f} ms total, "
            f"{self.mean_step_us:.1f} us/step, "
            f"coverage {self.coverage * 100.0:.1f}%",
            f"  {'phase':<12s} {'calls':>8s} {'total ms':>10s} "
            f"{'mean us':>9s} {'share':>7s}",
        ]
        for p in self.phases:
            lines.append(
                f"  {p.name:<12s} {p.calls:>8d} "
                f"{seconds_to_milliseconds(p.total_s):>10.2f} "
                f"{p.mean_us:>9.1f} {p.share * 100.0:>6.1f}%"
            )
        return "\n".join(lines)
