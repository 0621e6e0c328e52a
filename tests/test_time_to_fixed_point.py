"""Transient time predictions and agreement with direct ODE integration."""

import math

import pytest

from repro.core.stability import ODROID_XU3_LUMPED
from repro.core.time_to_fixed_point import (
    time_to_fixed_point_s,
    time_to_temperature_s,
)
from repro.errors import StabilityError

P = ODROID_XU3_LUMPED


def integrate_ode(p_dyn, t0_k, duration_s, dt=0.01):
    """Direct Euler integration of the lumped dynamics."""
    t = t0_k
    steps = int(duration_s / dt)
    for _ in range(steps):
        dT = ((P.t_ambient_k - t) / P.r_k_per_w + p_dyn + P.leakage_w(t)) / P.c_j_per_k
        t += dT * dt
    return t


def crossing_time_ode(p_dyn, t0_k, target_k, dt=0.01, max_s=10000.0):
    t = t0_k
    elapsed = 0.0
    while elapsed < max_s:
        if (t0_k < target_k <= t) or (t0_k > target_k >= t):
            return elapsed
        dT = ((P.t_ambient_k - t) / P.r_k_per_w + p_dyn + P.leakage_w(t)) / P.c_j_per_k
        t += dT * dt
        elapsed += dt
    return math.inf


def test_time_to_temperature_matches_ode():
    predicted = time_to_temperature_s(P, 3.2, 320.0, 350.0)
    simulated = crossing_time_ode(3.2, 320.0, 350.0)
    assert predicted == pytest.approx(simulated, rel=0.02)


def test_time_to_temperature_runaway_matches_ode():
    predicted = time_to_temperature_s(P, 7.0, 320.0, 380.0)
    simulated = crossing_time_ode(7.0, 320.0, 380.0)
    assert predicted == pytest.approx(simulated, rel=0.02)


def test_time_to_fixed_point_reaches_it_in_ode():
    horizon = time_to_fixed_point_s(P, 3.0, 320.0, tol_k=1.0)
    from repro.core.fixed_point import steady_state_temp_k
    t_ss = steady_state_temp_k(P, 3.0)
    t_after = integrate_ode(3.0, 320.0, horizon)
    assert abs(t_after - t_ss) == pytest.approx(1.0, abs=0.1)


def test_zero_time_when_already_at_fixed_point():
    from repro.core.fixed_point import steady_state_temp_k
    t_ss = steady_state_temp_k(P, 3.0)
    assert time_to_fixed_point_s(P, 3.0, t_ss, tol_k=1.0) == 0.0


def test_cooling_towards_fixed_point():
    # Start above the stable temperature: trajectory cools down to it.
    from repro.core.fixed_point import steady_state_temp_k
    t_ss = steady_state_temp_k(P, 2.0)
    time = time_to_fixed_point_s(P, 2.0, t_ss + 20.0, tol_k=1.0)
    assert 0.0 < time < math.inf
    assert integrate_ode(2.0, t_ss + 20.0, time) == pytest.approx(
        t_ss + 1.0, abs=0.2
    )


def test_runaway_never_reaches_fixed_point():
    assert time_to_fixed_point_s(P, 8.0, 320.0) == math.inf


def test_beyond_unstable_point_diverges():
    from repro.core.fixed_point import analyze
    report = analyze(P, 2.0)
    hot = report.unstable_temp_k + 30.0
    assert time_to_fixed_point_s(P, 2.0, hot) == math.inf
    # ... but it does reach even hotter temperatures (runaway branch).
    assert time_to_temperature_s(P, 2.0, hot, hot + 50.0) < math.inf


def test_unreachable_target_is_inf():
    # Stable fixed point below the target: never crossed.
    from repro.core.fixed_point import steady_state_temp_k
    t_ss = steady_state_temp_k(P, 2.0)
    assert time_to_temperature_s(P, 2.0, 320.0, t_ss + 30.0) == math.inf


def test_cooling_target_below_start():
    from repro.core.fixed_point import steady_state_temp_k
    t_ss = steady_state_temp_k(P, 2.0)
    start = t_ss + 20.0
    target = t_ss + 5.0
    predicted = time_to_temperature_s(P, 2.0, start, target)
    simulated = crossing_time_ode(2.0, start, target)
    assert predicted == pytest.approx(simulated, rel=0.02)


def test_higher_power_reaches_limit_sooner():
    t1 = time_to_temperature_s(P, 3.0, 320.0, 350.0)
    t2 = time_to_temperature_s(P, 4.0, 320.0, 350.0)
    assert t2 < t1


def test_bad_tolerance_rejected():
    with pytest.raises(StabilityError):
        time_to_fixed_point_s(P, 3.0, 320.0, tol_k=0.0)


def _critical():
    from repro.core.fixed_point import StabilityClass, analyze, critical_power_w

    p_crit = critical_power_w(P)
    report = analyze(P, p_crit)
    assert report.classification is StabilityClass.CRITICAL
    return p_crit, report.stable_temp_k


def test_critical_power_above_merged_root_never_settles():
    # At the critical power f < 0 on both sides of the merged root: a start
    # hotter than it runs away instead of settling back.
    p_crit, t_merged = _critical()
    assert time_to_fixed_point_s(P, p_crit, t_merged + 5.0) == math.inf


def test_critical_power_above_merged_root_reaches_hotter_target():
    p_crit, t_merged = _critical()
    start, target = t_merged + 5.0, t_merged + 20.0
    predicted = time_to_temperature_s(P, p_crit, start, target)
    simulated = crossing_time_ode(p_crit, start, target)
    assert predicted == pytest.approx(simulated, rel=0.02)
    # ... and never a colder one.
    assert time_to_temperature_s(P, p_crit, start, t_merged + 1.0) == math.inf


def test_critical_power_below_merged_root_creeps_up_to_it():
    p_crit, t_merged = _critical()
    time = time_to_fixed_point_s(P, p_crit, t_merged - 5.0, tol_k=1.0)
    assert 0.0 < time < math.inf
    assert time == time_to_temperature_s(P, p_crit, t_merged - 5.0, t_merged - 1.0)
