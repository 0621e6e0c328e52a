"""Transient predictions: how long until the fixed point (or a limit) is hit.

In auxiliary-temperature space the lumped dynamics are separable:

    R*C dx/dt = f(x)   =>   t = R*C * integral dx / f(x)

so the time from the current state to any target along the trajectory is a
one-dimensional quadrature.  The governor uses this to decide whether a
predicted violation is *imminent* (time below its horizon) or far enough
away to keep waiting.
"""

from __future__ import annotations

import math

from repro.core.fixed_point import StabilityClass, analyze
from repro.core.numeric import quad
from repro.core.stability import FixedPointFunction, LumpedThermalParams
from repro.errors import StabilityError

_EPS_BALL_K = 0.5  # "reached" means within half a kelvin of the fixed point


def _travel_time_s(
    params: LumpedThermalParams, func: FixedPointFunction, x_from: float, x_to: float
) -> float:
    """Quadrature of R*C/f(x) between two auxiliary temperatures."""
    if abs(x_from - x_to) < 1e-12:
        return 0.0
    value = quad(lambda x: 1.0 / func(x), x_from, x_to)
    t = params.time_constant_s * value
    if t < 0.0:
        raise StabilityError(
            f"target x={x_to} is not on the trajectory from x={x_from}"
        )
    return t


def time_to_fixed_point_s(
    params: LumpedThermalParams,
    p_dyn_w: float,
    temp_now_k: float,
    tol_k: float = _EPS_BALL_K,
) -> float:
    """Time until the temperature settles within ``tol_k`` of the fixed point.

    Returns ``inf`` when the trajectory never reaches it: thermal runaway
    (no fixed point), or a start beyond the unstable fixed point (for a
    critical power, beyond the merged root: f < 0 on both sides of it).
    """
    if tol_k <= 0.0:
        raise StabilityError("tolerance must be positive")
    report = analyze(params, p_dyn_w)
    if report.classification is StabilityClass.RUNAWAY:
        return math.inf
    x_now = params.aux_from_temp(temp_now_k)
    if x_now < report.unstable_aux:
        return math.inf  # beyond the unstable point: diverging
    t_stable = report.stable_temp_k
    if abs(temp_now_k - t_stable) <= tol_k:
        return 0.0
    if temp_now_k < t_stable:
        x_target = params.aux_from_temp(t_stable - tol_k)
    else:
        x_target = params.aux_from_temp(t_stable + tol_k)
    func = FixedPointFunction.from_lumped(params, p_dyn_w)
    return _travel_time_s(params, func, x_now, x_target)


def time_to_temperature_s(
    params: LumpedThermalParams,
    p_dyn_w: float,
    temp_now_k: float,
    temp_target_k: float,
) -> float:
    """Time until the trajectory first crosses ``temp_target_k``.

    Returns ``inf`` when the target is not on the trajectory (e.g. the
    stable fixed point sits below the target, so it is never reached).
    """
    if abs(temp_target_k - temp_now_k) < 1e-9:
        return 0.0
    report = analyze(params, p_dyn_w)
    x_now = params.aux_from_temp(temp_now_k)
    x_target = params.aux_from_temp(temp_target_k)
    func = FixedPointFunction.from_lumped(params, p_dyn_w)

    if report.classification is StabilityClass.RUNAWAY:
        # x only ever decreases; any hotter target is eventually reached.
        if x_target < x_now:
            return _travel_time_s(params, func, x_now, x_target)
        return math.inf

    x_stable = report.stable_aux
    if x_now < report.unstable_aux:
        # Runaway branch: heading to x -> 0 (T -> inf).  At a critical
        # power the roots have merged and f < 0 on both sides, so a start
        # hotter than the merged root runs away too.
        if x_target < x_now:
            return _travel_time_s(params, func, x_now, x_target)
        return math.inf
    # Converging towards x_stable: the target must lie strictly between.
    heading_down = x_now > x_stable  # temperature rising
    if heading_down and (x_stable < x_target < x_now):
        return _travel_time_s(params, func, x_now, x_target)
    if not heading_down and (x_now < x_target < x_stable):
        return _travel_time_s(params, func, x_now, x_target)
    return math.inf
