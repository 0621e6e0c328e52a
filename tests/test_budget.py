"""Safe power budgets."""

import dataclasses
import math

import pytest

from repro.core.budget import (
    headroom_w,
    safe_power_budget_w,
    sustainable_frequency_fraction,
)
from repro.core.fixed_point import critical_power_w, steady_state_temp_k
from repro.core.stability import ODROID_XU3_LUMPED
from repro.errors import StabilityError
from repro.units import celsius_to_kelvin

P = ODROID_XU3_LUMPED


def test_budget_is_tight():
    # Running exactly at the budget lands the steady state on the limit.
    limit = celsius_to_kelvin(85.0)
    budget = safe_power_budget_w(P, limit)
    assert steady_state_temp_k(P, budget) == pytest.approx(limit, abs=0.01)


def test_budget_monotone_in_limit():
    budgets = [
        safe_power_budget_w(P, celsius_to_kelvin(c)) for c in (70, 80, 90)
    ]
    assert budgets[0] < budgets[1] < budgets[2]


def test_budget_capped_by_critical_power():
    # Very permissive limits cannot exceed the critical power.
    huge = safe_power_budget_w(P, celsius_to_kelvin(300.0))
    assert huge <= critical_power_w(P) + 1e-9


def test_budget_zero_for_limit_barely_above_ambient():
    tiny = safe_power_budget_w(P, P.t_ambient_k + 0.01)
    assert tiny == pytest.approx(0.0, abs=0.01)


def test_limit_below_ambient_rejected():
    with pytest.raises(StabilityError):
        safe_power_budget_w(P, P.t_ambient_k - 5.0)


def test_headroom_sign():
    limit = celsius_to_kelvin(85.0)
    budget = safe_power_budget_w(P, limit)
    assert headroom_w(P, limit, budget - 0.5) == pytest.approx(0.5)
    assert headroom_w(P, limit, budget + 0.5) == pytest.approx(-0.5)


def test_headroom_rejects_negative_power():
    with pytest.raises(StabilityError):
        headroom_w(P, celsius_to_kelvin(85.0), -1.0)


def test_frequency_fraction_one_when_safe():
    limit = celsius_to_kelvin(85.0)
    assert sustainable_frequency_fraction(P, limit, 0.1) == 1.0


def test_frequency_fraction_cubic_when_over():
    limit = celsius_to_kelvin(85.0)
    budget = safe_power_budget_w(P, limit)
    frac = sustainable_frequency_fraction(P, limit, budget * 8.0)
    assert frac == pytest.approx(0.5, rel=1e-6)


def test_better_cooling_larger_budget():
    cooler = dataclasses.replace(P, r_k_per_w=P.r_k_per_w / 2.0)
    limit = celsius_to_kelvin(85.0)
    assert safe_power_budget_w(cooler, limit) > safe_power_budget_w(P, limit)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_limit_rejected(bad):
    with pytest.raises(StabilityError, match="finite"):
        safe_power_budget_w(P, bad)
