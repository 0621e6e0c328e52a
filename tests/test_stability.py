"""Fixed-point function: concavity, roots, the paper's Figure 7 structure."""

import numpy as np
import pytest

from repro.core.fixed_point import (
    StabilityClass,
    analyze,
    critical_power_w,
    steady_state_temp_k,
)
from repro.core.stability import (
    ODROID_XU3_LUMPED,
    FixedPointFunction,
    LumpedThermalParams,
)
from repro.errors import StabilityError

P = ODROID_XU3_LUMPED


def test_params_validation():
    with pytest.raises(StabilityError):
        LumpedThermalParams(0.0, 1.0, 1e-3, 1650.0, 300.0)
    with pytest.raises(StabilityError):
        LumpedThermalParams(10.0, 1.0, -1e-3, 1650.0, 300.0)
    with pytest.raises(StabilityError):
        LumpedThermalParams(10.0, 1.0, 1e-3, 1650.0, -1.0)


def test_aux_temperature_inverse_relation():
    # Higher auxiliary temperature corresponds to a lower temperature.
    assert P.aux_from_temp(300.0) > P.aux_from_temp(400.0)
    assert P.temp_from_aux(P.aux_from_temp(333.0)) == pytest.approx(333.0)


def test_leakage_monotone_in_temperature():
    assert P.leakage_w(360.0) > P.leakage_w(320.0)


def test_function_concave_on_grid():
    func = FixedPointFunction.from_lumped(P, 3.0)
    x = np.linspace(0.5, 8.0, 400)
    f = np.array([func(xi) for xi in x])
    second = np.diff(f, 2)
    assert (second < 1e-9).all()


def test_derivative_matches_numeric():
    func = FixedPointFunction.from_lumped(P, 3.0)
    for x in (1.0, 3.0, 5.0):
        h = 1e-6
        numeric = (func(x + h) - func(x - h)) / (2 * h)
        assert func.derivative(x) == pytest.approx(numeric, rel=1e-5)


def test_two_roots_at_2w():
    report = analyze(P, 2.0)
    assert report.classification is StabilityClass.STABLE
    assert report.stable_aux > report.unstable_aux
    assert report.stable_temp_k < report.unstable_temp_k


def test_critical_at_5_5w():
    # The paper's Figure 7b: the roots merge at 5.5 W.
    assert critical_power_w(P) == pytest.approx(5.5, abs=0.01)


def test_no_roots_at_8w():
    report = analyze(P, 8.0)
    assert report.classification is StabilityClass.RUNAWAY
    assert report.stable_temp_k is None
    assert not report.is_stable


def test_function_moves_down_with_power():
    f_low = FixedPointFunction.from_lumped(P, 2.0)
    f_high = FixedPointFunction.from_lumped(P, 6.0)
    for x in np.linspace(1.0, 6.0, 20):
        assert f_high(x) < f_low(x)


def test_roots_are_actual_zeros():
    func = FixedPointFunction.from_lumped(P, 2.0)
    for root in func.roots():
        assert func(root) == pytest.approx(0.0, abs=1e-9)


def test_stable_root_has_negative_slope():
    func = FixedPointFunction.from_lumped(P, 2.0)
    x_unstable, x_stable = func.roots()
    assert func.derivative(x_stable) < 0.0
    assert func.derivative(x_unstable) > 0.0


def test_steady_state_temp_monotone_in_power():
    temps = [steady_state_temp_k(P, p) for p in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert all(b > a for a, b in zip(temps, temps[1:]))


def test_steady_state_above_ambient():
    assert steady_state_temp_k(P, 1.0) > P.t_ambient_k


def test_steady_state_raises_on_runaway():
    with pytest.raises(StabilityError):
        steady_state_temp_k(P, 8.0)


def test_steady_state_is_self_consistent():
    # T = T_a + R * (P_dyn + P_leak(T)) must hold at the fixed point.
    t_ss = steady_state_temp_k(P, 3.0)
    rhs = P.t_ambient_k + P.r_k_per_w * (3.0 + P.leakage_w(t_ss))
    assert t_ss == pytest.approx(rhs, abs=1e-6)


def test_critical_power_scales_inverse_with_resistance():
    import dataclasses
    better_cooling = dataclasses.replace(P, r_k_per_w=P.r_k_per_w / 2.0)
    assert critical_power_w(better_cooling) > critical_power_w(P)


def test_negative_power_rejected():
    with pytest.raises(StabilityError):
        FixedPointFunction.from_lumped(P, -1.0)


def test_paper_x_range_shows_both_roots_at_2w():
    # Figure 7a plots the auxiliary range [2, 6]; both roots lie inside it.
    func = FixedPointFunction.from_lumped(P, 2.0)
    x_unstable, x_stable = func.roots()
    assert 2.0 < x_unstable < 6.0
    assert 2.0 < x_stable < 6.0


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_params_reject_non_finite(field, bad):
    values = [10.0, 1.0, 1e-3, 1650.0, 300.0]
    values[field] = bad
    with pytest.raises(StabilityError, match="finite"):
        LumpedThermalParams(*values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_power_rejected(bad):
    with pytest.raises(StabilityError, match="finite"):
        FixedPointFunction.from_lumped(P, bad)
    with pytest.raises(StabilityError):
        FixedPointFunction(bad, 1.0)
