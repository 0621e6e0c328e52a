"""Power-temperature fixed-point function (Section IV.A, after Bhat et al.,
ACM TECS 2017).

Lumped dynamics with temperature-dependent leakage:

    C dT/dt = (T_a - T)/R + P_dyn + kappa * T^2 * exp(-beta/T)

Substituting the *auxiliary temperature* x = beta / T (inversely proportional
to the temperature in kelvin, as the paper states) gives, up to the positive
factor x^2/(beta*C),

    R*C dx/dt = f(x) = x - c1*x^2 - c2*exp(-x)
    c1 = (T_a + R*P_dyn) / beta        c2 = R * kappa * beta

``f`` is strictly concave (f'' = -2*c1 - c2*e^(-x) < 0), so it has zero, one
or two roots — the paper's Figure 7.  The larger root in x (the *lower*
temperature) is the stable fixed point; the smaller is unstable; no roots
means thermal runaway.  Raising P_dyn raises c1 and shifts f downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.core.numeric import brentq
from repro.errors import StabilityError


@dataclass(frozen=True)
class LumpedThermalParams:
    """Lumped hotspot model: R, C, leakage (kappa, beta), ambient."""

    r_k_per_w: float
    c_j_per_k: float
    kappa_w_per_k2: float
    beta_k: float
    t_ambient_k: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise StabilityError(f"{field.name} must be finite, got {value}")
        if self.r_k_per_w <= 0.0 or self.c_j_per_k <= 0.0:
            raise StabilityError("thermal R and C must be positive")
        if self.kappa_w_per_k2 <= 0.0 or self.beta_k <= 0.0:
            raise StabilityError("leakage kappa and beta must be positive")
        if self.t_ambient_k <= 0.0:
            raise StabilityError("ambient temperature must be positive kelvin")

    @property
    def time_constant_s(self) -> float:
        """R*C, the linear-part thermal time constant."""
        return self.r_k_per_w * self.c_j_per_k

    def leakage_w(self, temp_k: float) -> float:
        """Leakage power at ``temp_k``."""
        if temp_k <= 0.0:
            raise StabilityError(f"non-physical temperature {temp_k} K")
        return (
            self.kappa_w_per_k2 * temp_k * temp_k * math.exp(-self.beta_k / temp_k)
        )

    def aux_from_temp(self, temp_k: float) -> float:
        """Auxiliary temperature x = beta / T."""
        if temp_k <= 0.0:
            raise StabilityError(f"non-physical temperature {temp_k} K")
        return self.beta_k / temp_k

    def temp_from_aux(self, x: float) -> float:
        """Temperature T = beta / x."""
        if x <= 0.0:
            raise StabilityError(f"auxiliary temperature must be positive, got {x}")
        return self.beta_k / x


#: Canonical lumped parameters identified for the Odroid-XU3 with its fan
#: disabled — chosen so the critical power sits at the paper's 5.5 W
#: (Figure 7b) with a 27 degC ambient.
ODROID_XU3_LUMPED = LumpedThermalParams(
    r_k_per_w=14.0,
    c_j_per_k=5.0,
    kappa_w_per_k2=1.0103e-3,
    beta_k=1650.0,
    t_ambient_k=300.15,
)


class FixedPointFunction:
    """The concave fixed-point function f(x) = x - c1*x^2 - c2*exp(-x)."""

    def __init__(self, c1: float, c2: float) -> None:
        if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
            raise StabilityError(
                f"coefficients must be positive and finite: c1={c1}, c2={c2}"
            )
        self.c1 = c1
        self.c2 = c2

    @classmethod
    def from_lumped(
        cls, params: LumpedThermalParams, p_dyn_w: float
    ) -> "FixedPointFunction":
        """Build f for a dynamic-power level on a lumped model."""
        if not 0.0 <= p_dyn_w < math.inf:
            raise StabilityError(
                f"dynamic power must be finite and non-negative: {p_dyn_w}"
            )
        c1 = (params.t_ambient_k + params.r_k_per_w * p_dyn_w) / params.beta_k
        c2 = params.r_k_per_w * params.kappa_w_per_k2 * params.beta_k
        return cls(c1, c2)

    def __call__(self, x: float) -> float:
        """Evaluate f(x)."""
        return x - self.c1 * x * x - self.c2 * math.exp(-x)

    def derivative(self, x: float) -> float:
        """f'(x) = 1 - 2*c1*x + c2*exp(-x)."""
        return 1.0 - 2.0 * self.c1 * x + self.c2 * math.exp(-x)

    def argmax(self) -> float:
        """The unique maximiser of f (f' is strictly decreasing)."""
        lo, hi = 1e-9, 1.0
        # f'(0+) = 1 + c2 > 0; expand hi until f'(hi) < 0.
        while self.derivative(hi) > 0.0:
            hi *= 2.0
            if hi > 1e9:
                raise StabilityError("failed to bracket the maximiser")
        return brentq(self.derivative, lo, hi, xtol=1e-12)

    def roots(self) -> tuple[float, ...]:
        """All roots, ascending: () for runaway, (x,) critical, (xu, xs) stable.

        By concavity the number of roots equals 0, 1 or 2.  Note f(0) = -c2
        < 0 and f(x) -> -inf as x -> inf, so both roots (when they exist)
        bracket the maximiser.
        """
        x_peak = self.argmax()
        peak = self(x_peak)
        if peak < -1e-12:
            return ()
        if abs(peak) <= 1e-12:
            return (x_peak,)
        lo = 1e-12
        hi = x_peak
        left = brentq(self, lo, hi, xtol=1e-12)
        # Expand to the right until f < 0 again.
        hi2 = max(2.0 * x_peak, x_peak + 1.0)
        while self(hi2) > 0.0:
            hi2 *= 2.0
            if hi2 > 1e9:
                raise StabilityError("failed to bracket the stable root")
        right = brentq(self, x_peak, hi2, xtol=1e-12)
        return (left, right)
