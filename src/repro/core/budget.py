"""Safe power budgets from the fixed-point analysis (extension).

Inverting the fixed-point condition gives the largest dynamic power whose
*stable* steady state stays at or below a thermal limit:

    T_lim = T_a + R * (P_dyn + P_leak(T_lim))
    P_safe(T_lim) = (T_lim - T_a)/R - kappa * T_lim^2 * exp(-beta/T_lim)

This is the natural budget a DTPM governor should enforce (cf. TSP, Pagani
et al.), and the quantity the paper's Section IV.A analysis makes cheap to
compute at runtime.  The budget is also capped by the critical power, above
which no fixed point exists at all.
"""

from __future__ import annotations

import math

from repro.core.fixed_point import critical_power_w, steady_state_temp_k
from repro.core.stability import LumpedThermalParams
from repro.errors import StabilityError


def safe_power_budget_w(
    params: LumpedThermalParams, t_limit_k: float
) -> float:
    """Largest dynamic power with a stable steady state <= ``t_limit_k``."""
    if not math.isfinite(t_limit_k):
        raise StabilityError(f"thermal limit must be finite, got {t_limit_k}")
    if t_limit_k <= params.t_ambient_k:
        raise StabilityError(
            f"thermal limit {t_limit_k} K is at or below ambient "
            f"{params.t_ambient_k} K"
        )
    direct = (
        (t_limit_k - params.t_ambient_k) / params.r_k_per_w
        - params.leakage_w(t_limit_k)
    )
    if direct <= 0.0:
        return 0.0
    p_crit = critical_power_w(params)
    budget = min(direct, p_crit)
    # When below critical power, make sure the *stable* root is the one at
    # the limit (for very high limits the relevant root can be unstable).
    if budget < p_crit:
        t_ss = steady_state_temp_k(params, budget)
        if t_ss > t_limit_k + 1e-6:
            return 0.0
    return budget


def headroom_w(
    params: LumpedThermalParams, t_limit_k: float, p_dyn_now_w: float
) -> float:
    """Remaining safe dynamic power (negative when over budget)."""
    if p_dyn_now_w < 0.0:
        raise StabilityError("current power must be non-negative")
    return safe_power_budget_w(params, t_limit_k) - p_dyn_now_w


def sustainable_frequency_fraction(
    params: LumpedThermalParams, t_limit_k: float, p_dyn_now_w: float
) -> float:
    """Crude DVFS hint: the cubic-law frequency scale that fits the budget.

    Dynamic power scales roughly with f^3 along a voltage/frequency ladder;
    the fraction returned is the frequency multiplier that brings
    ``p_dyn_now_w`` inside the safe budget (1.0 when already safe).
    """
    if p_dyn_now_w <= 0.0:
        return 1.0
    budget = safe_power_budget_w(params, t_limit_k)
    if p_dyn_now_w <= budget:
        return 1.0
    return float(math.pow(budget / p_dyn_now_w, 1.0 / 3.0))
