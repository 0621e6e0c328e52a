"""Stability classification, steady-state temperature, critical power.

This is the runtime analysis the paper's governor performs every control
period: given the lumped thermal parameters and the current dynamic power,
determine whether a stable temperature fixed point exists, where it is, and
at what power it disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.numeric import brentq
from repro.core.stability import FixedPointFunction, LumpedThermalParams
from repro.errors import StabilityError


class StabilityClass(Enum):
    """Outcome of the fixed-point analysis."""

    STABLE = "stable"          # two fixed points; the larger-x one attracts
    CRITICAL = "critical"      # the roots have merged: critically stable
    RUNAWAY = "runaway"        # no fixed points: thermal runaway


@dataclass(frozen=True)
class FixedPointReport:
    """Everything the analysis knows about one power level."""

    p_dyn_w: float
    classification: StabilityClass
    stable_aux: float | None
    unstable_aux: float | None
    stable_temp_k: float | None
    unstable_temp_k: float | None

    @property
    def is_stable(self) -> bool:
        """Whether a stable fixed point exists."""
        return self.classification is not StabilityClass.RUNAWAY


def analyze(params: LumpedThermalParams, p_dyn_w: float) -> FixedPointReport:
    """Classify the power-temperature dynamics at ``p_dyn_w``."""
    func = FixedPointFunction.from_lumped(params, p_dyn_w)
    roots = func.roots()
    if not roots:
        return FixedPointReport(
            p_dyn_w, StabilityClass.RUNAWAY, None, None, None, None
        )
    if len(roots) == 1:
        x = roots[0]
        t = params.temp_from_aux(x)
        return FixedPointReport(p_dyn_w, StabilityClass.CRITICAL, x, x, t, t)
    x_unstable, x_stable = roots
    return FixedPointReport(
        p_dyn_w,
        StabilityClass.STABLE,
        x_stable,
        x_unstable,
        params.temp_from_aux(x_stable),
        params.temp_from_aux(x_unstable),
    )


def steady_state_temp_k(params: LumpedThermalParams, p_dyn_w: float) -> float:
    """Stable fixed-point temperature; raises on runaway."""
    report = analyze(params, p_dyn_w)
    if report.stable_temp_k is None:
        raise StabilityError(
            f"no fixed point at {p_dyn_w} W (thermal runaway)"
        )
    return report.stable_temp_k


def critical_power_w(params: LumpedThermalParams) -> float:
    """The dynamic power at which the two fixed points merge.

    Above this power the system has no fixed point and runs away — the
    paper's Figure 7 shows 5.5 W for the Odroid-XU3 parameters.
    """

    def peak_value(p_dyn: float) -> float:
        func = FixedPointFunction.from_lumped(params, p_dyn)
        return func(func.argmax())

    lo, hi = 0.0, 1.0
    if peak_value(lo) <= 0.0:
        raise StabilityError("system is unstable even at zero dynamic power")
    while peak_value(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise StabilityError("failed to bracket the critical power")
    return brentq(peak_value, lo, hi, xtol=1e-9)
