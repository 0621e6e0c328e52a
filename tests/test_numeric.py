"""The pure-Python ``brentq`` and QUADPACK ports against SciPy, bit for bit.

SciPy is the oracle here and nowhere else: each property patches the port
into the analysis behind a wrapper that also calls the SciPy routine with
the same arguments, then requires every pair of answers to be the same
IEEE-754 double.
"""

import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fixed_point, numeric, stability, time_to_fixed_point
from repro.core.fixed_point import StabilityClass, analyze, critical_power_w
from repro.core.stability import ODROID_XU3_LUMPED
from repro.core.time_to_fixed_point import (
    time_to_fixed_point_s,
    time_to_temperature_s,
)
from repro.errors import StabilityError
from tests.test_properties_stability import params_strategy, power_strategy


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class _Oracle:
    """Calls the port, then the reference, and records both answers."""

    def __init__(self, port, reference):
        self.port = port
        self.reference = reference
        self.pairs = []
        self.callees = set()

    def __call__(self, f, a, b, **kwargs):
        ours = self.port(f, a, b, **kwargs)
        theirs = self.reference(f, a, b, **kwargs)
        self.pairs.append((ours, theirs, a, b))
        self.callees.add(getattr(f, "__name__", type(f).__name__))
        return ours

    def assert_identical(self):
        assert self.pairs, "the port was never called"
        for ours, theirs, a, b in self.pairs:
            assert _bits(ours) == _bits(theirs), (ours, theirs, a, b)


def _brentq_oracle() -> _Oracle:
    from scipy.optimize import brentq as scipy_brentq

    return _Oracle(numeric.brentq, scipy_brentq)


def _quad_oracle() -> _Oracle:
    from scipy.integrate import quad as scipy_quad

    return _Oracle(
        numeric.quad, lambda f, a, b: scipy_quad(f, a, b, limit=200)[0]
    )


@given(params=params_strategy, p_dyn=power_strategy)
@settings(max_examples=150, deadline=None)
def test_brentq_matches_scipy_on_fixed_point_function(params, p_dyn):
    oracle = _brentq_oracle()
    with mock.patch.object(stability, "brentq", oracle), \
            mock.patch.object(fixed_point, "brentq", oracle):
        report = analyze(params, p_dyn)
        try:
            critical_power_w(params)  # brentq over the peak of f, nested
        except StabilityError:
            pass  # unstable even at zero power
    oracle.assert_identical()
    assert "derivative" in oracle.callees  # the maximiser of f
    if report.classification is StabilityClass.STABLE:
        assert "FixedPointFunction" in oracle.callees  # both roots of f


def _bracketed_function(kind, r, k):
    if kind == "cubic":
        return lambda x: (x - r) ** 3 + k * (x - r)
    if kind == "steep":  # flat tails: interpolation steps get rejected
        return lambda x: math.tanh(k * (x - r))
    return lambda x: math.exp(k * (x - r)) - 1.0


@given(
    kind=st.sampled_from(["cubic", "steep", "exp"]),
    r=st.floats(-2.0, 2.0),
    k=st.floats(0.01, 50.0),
    left=st.floats(0.01, 5.0),
    right=st.floats(0.01, 5.0),
    xtol=st.sampled_from([2e-12, 1e-9, 1e-3]),
)
@settings(max_examples=200, deadline=None)
def test_brentq_matches_scipy_on_bracketed_functions(kind, r, k, left, right, xtol):
    # Beyond the fixed-point function: roots whose brackets make Brent's
    # method mix interpolation, extrapolation and bisection steps.
    from scipy.optimize import brentq as scipy_brentq

    f = _bracketed_function(kind, r, k)
    a, b = r - left, r + right
    ours = numeric.brentq(f, a, b, xtol=xtol)
    assert _bits(ours) == _bits(scipy_brentq(f, a, b, xtol=xtol))


_temp_offsets = st.floats(1.0, 80.0)
_near_fixed_point = st.floats(1e-3, 0.5)


@given(
    params=params_strategy,
    p_dyn=power_strategy,
    rise_k=_temp_offsets,
    target_rise_k=_temp_offsets,
    near_k=_near_fixed_point,
    from_above=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_quad_matches_scipy_on_trajectories(
    params, p_dyn, rise_k, target_rise_k, near_k, from_above
):
    temp_now = params.t_ambient_k + rise_k
    report = analyze(params, p_dyn)
    oracle = _quad_oracle()
    with mock.patch.object(time_to_fixed_point, "quad", oracle):
        time_to_temperature_s(
            params, p_dyn, temp_now, params.t_ambient_k + target_rise_k
        )
        if report.classification is StabilityClass.STABLE:
            # Targets within half a kelvin of the fixed point, where 1/f
            # nearly has a pole: these are the calls that subdivide.
            t_fixed = report.stable_temp_k
            start = t_fixed + rise_k if from_above else t_fixed - rise_k
            if start > 0.0 and start < report.unstable_temp_k:
                target = t_fixed + near_k if from_above else t_fixed - near_k
                time_to_temperature_s(params, p_dyn, start, target)
                time_to_fixed_point_s(params, p_dyn, start, tol_k=near_k)
    if oracle.pairs:
        oracle.assert_identical()


@pytest.mark.parametrize("p_dyn", [1.0, 3.0, 5.0])
@pytest.mark.parametrize("near_k", [0.5, 0.01, 0.001])
def test_quad_subdivides_near_the_fixed_point_and_still_matches(p_dyn, near_k):
    # The property above only counts if the dqagse branch beyond the first
    # 21-point pass runs: assert that it does on these trajectories.
    params = ODROID_XU3_LUMPED
    t_fixed = analyze(params, p_dyn).stable_temp_k
    passes = []
    real_dqk21 = numeric._dqk21

    def counting(f, a, b):
        passes.append((a, b))
        return real_dqk21(f, a, b)

    oracle = _quad_oracle()
    with mock.patch.object(time_to_fixed_point, "quad", oracle), \
            mock.patch.object(numeric, "_dqk21", counting):
        time_to_temperature_s(params, p_dyn, 310.0, t_fixed - near_k)
    oracle.assert_identical()
    assert len(passes) >= 7  # the first pass plus at least three bisections


def _singular_integrand(kind, p, q):
    if kind == "power":  # |x - p|^q, integrable for q > -1
        return lambda x: abs(x - p) ** q if x != p else 0.0
    if kind == "log":
        return lambda x: math.log(abs(x - p)) if x != p else 0.0
    if kind == "steps":  # many jumps: runs into the subdivision limit
        return lambda x: math.floor(10.0 * q * x)
    return lambda x: math.sin(30.0 * q / (x + p + 0.01))  # oscillating


@given(
    kind=st.sampled_from(["power", "log", "steps", "oscillating"]),
    p=st.floats(0.0, 1.0),
    q=st.floats(-0.95, 3.0),
    a=st.floats(-0.5, 0.5),
    width=st.floats(0.01, 3.0),
    limit=st.sampled_from([200, 10, 3]),
)
@settings(max_examples=200, deadline=None)
def test_quad_matches_scipy_on_hard_integrands(kind, p, q, a, width, limit):
    # Interior and end-point singularities, jumps and oscillation drive
    # dqagse through deep bisection, the epsilon extrapolation, the dqpsrt
    # re-ordering (including its shortened list past limit/2 subintervals)
    # and its error exits.
    import warnings

    from scipy.integrate import quad as scipy_quad

    f = _singular_integrand(kind, p, q)
    b = a + width
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        theirs = scipy_quad(f, a, b, limit=limit, full_output=1)
        ours = numeric._dqagse(f, a, b, 1.49e-8, 1.49e-8, limit)
    assert _bits(ours[0]) == _bits(theirs[0])
    assert _bits(ours[1]) == _bits(theirs[1])


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_quad_matches_scipy_past_half_the_subdivision_limit(q):
    # sin(30q/(x + 0.01)) oscillates ever faster towards 0: dqagse uses
    # more than limit/2 + 2 subintervals, where dqpsrt sorts only the
    # part of the list that can still be bisected.
    from scipy.integrate import quad as scipy_quad

    f = _singular_integrand("oscillating", 0.0, q)
    with pytest.warns(RuntimeWarning):
        ours = numeric.quad(f, 0.0, 1.0)
    with pytest.warns(Warning):
        theirs = scipy_quad(f, 0.0, 1.0, limit=200)[0]
    assert _bits(ours) == _bits(theirs)


def test_quad_reversed_interval_is_negated():
    forward = numeric.quad(math.exp, 0.0, 1.0)
    assert numeric.quad(math.exp, 1.0, 0.0) == -forward
    assert forward == pytest.approx(math.e - 1.0, rel=1e-14)
    assert numeric.quad(math.exp, 2.0, 2.0) == 0.0


def test_quad_singular_integrand_extrapolates():
    # 1/sqrt(x) needs bisection towards 0 and the epsilon algorithm.
    value = numeric.quad(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-10)


def test_brentq_simple_roots():
    assert numeric.brentq(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
        math.sqrt(2.0), abs=4e-12
    )
    assert numeric.brentq(lambda x: x, 0.0, 1.0) == 0.0  # root at an end


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_brentq_non_finite_value_raises(bad):
    def f(x):
        return bad if x > 0.5 else x - 0.75

    with pytest.raises(StabilityError, match="not finite"):
        numeric.brentq(f, 0.0, 0.6)  # f(b) is non-finite
    with pytest.raises(StabilityError, match="not finite"):
        # A valid bracket whose interior turns NaN on the first step.
        numeric.brentq(lambda x: bad if 0.1 < x < 0.9 else x - 0.5, 0.0, 1.0)


def test_brentq_bad_bracket_and_no_convergence_raise():
    with pytest.raises(StabilityError, match="different signs"):
        numeric.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with mock.patch.object(numeric, "BRENTQ_MAXITER", 1), \
            pytest.raises(StabilityError, match="did not converge"):
        numeric.brentq(lambda x: x - 0.3, 0.0, 1.0)
    with pytest.raises(StabilityError):
        numeric.brentq(lambda x: x, -1.0, 1.0, xtol=0.0)


def test_quad_nan_integrand_raises():
    with pytest.raises(StabilityError, match="not finite"):
        numeric.quad(lambda x: math.nan, 0.0, 1.0)


def test_nan_power_never_reaches_the_root_finder():
    with pytest.raises(StabilityError, match="finite"):
        analyze(ODROID_XU3_LUMPED, math.nan)
    with pytest.raises(StabilityError, match="finite"):
        time_to_temperature_s(ODROID_XU3_LUMPED, math.nan, 320.0, 350.0)
