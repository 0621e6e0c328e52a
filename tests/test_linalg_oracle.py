"""The calibration's numpy ``nnls``, ``nnls_scan`` and ``logm`` against SciPy.

``repro.core.linalg`` replaces ``scipy.optimize.nnls`` and
``scipy.linalg.logm`` so that no part of the runtime loads SciPy
(``tests/test_cold_start.py``).  SciPy stays the oracle here, imported
inside each test.  Bits need not match; the checks are:

* ``nnls``: the objective ``‖Ax − b‖²`` equals SciPy's to 1e-9 relative,
  and the answer meets the optimality (KKT) conditions — ``x ≥ 0``, a
  vanishing gradient on the positive coordinates and a non-negative one
  on the zero coordinates — on binding constraints, all-negative
  right-hand sides and rank-deficient 7-12-column systems shaped like the
  RC assembly;
* ``nnls_scan``: every candidate's residual norm equals the one ``nnls``
  gives for that candidate alone;
* ``logm``: SciPy's ``logm`` and ``expm(logm(Ad)) ≈ Ad`` on the
  propagators ``ThermalModel`` builds for random networks, also perturbed
  so that they have complex-conjugate eigenvalue pairs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.linalg import logm, nnls, nnls_scan
from repro.errors import CalibrationError
from repro.thermal.model import ThermalModel
from tests.test_thermal_oracle import _continuous, networks

EPS = np.finfo(float).eps

#: Agreement asked of the NNLS objective.
OBJECTIVE_RTOL = 1e-9


def _integers(shape, lo=-6, hi=6):
    """Small-integer matrices: exact data, so an exactly dependent column
    stays exactly dependent and neither solver can exploit rounding."""
    return st.lists(
        st.integers(lo, hi), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
    ).map(lambda v: np.array(v, dtype=float).reshape(shape))


@st.composite
def problems(draw):
    """``(A, b)``: general, binding, all-negative and rank-deficient."""
    kind = draw(st.sampled_from(["general", "binding", "negative", "assembly"]))
    if kind == "assembly":
        n = draw(st.integers(7, 12))
        m = draw(st.integers(n, 4 * n))
    else:
        n = draw(st.integers(1, 6))
        m = draw(st.integers(1, 30))
    a = draw(_integers((m, n)))
    if kind == "assembly":
        # Some columns are exact sums or copies of others, as when two
        # links of a declared topology cannot be told apart.
        for _ in range(draw(st.integers(1, max(1, n // 3)))):
            i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            if k not in (i, j):
                a[:, k] = a[:, i] + a[:, j]
    if kind == "binding":
        # Generated from a coefficient vector with negative entries, so
        # the unconstrained solution is infeasible and constraints bind.
        coef = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), float)
        b = a @ coef + draw(_integers((m,), -1, 1))
    elif kind == "negative":
        a = np.abs(a)
        b = -np.abs(draw(_integers((m,), 1, 9)))
    else:
        b = draw(_integers((m,), -9, 9))
    return a, b


def _objective(a, x, b) -> float:
    r = a @ x - b
    return float(r @ r)


def _assert_kkt(a, x, b):
    assert np.all(x >= 0.0)
    grad = a.T @ (a @ x - b)
    tol = 1e-9 * np.linalg.norm(a, axis=0) * max(float(np.linalg.norm(b)), 1.0)
    zero = x == 0.0
    assert np.all(grad[zero] >= -tol[zero]), (grad, x)
    assert np.all(np.abs(grad[~zero]) <= tol[~zero]), (grad, x)


@given(problem=problems())
@settings(max_examples=250, deadline=None)
def test_nnls_matches_scipy_objective_and_meets_kkt(problem):
    from scipy.optimize import nnls as scipy_nnls

    a, b = problem
    x, rnorm = nnls(a, b)
    ref_x, _ = scipy_nnls(a, b)
    assert rnorm == pytest.approx(float(np.linalg.norm(a @ x - b)), rel=1e-12, abs=1e-12)
    ours, theirs = _objective(a, x, b), _objective(a, ref_x, b)
    floor = 1e-3 * float(b @ b)  # an exact fit leaves rounding only
    assert abs(ours - theirs) <= OBJECTIVE_RTOL * max(theirs, floor)
    _assert_kkt(a, x, b)


def test_nnls_all_negative_right_hand_side_is_zero():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x, rnorm = nnls(a, np.array([-1.0, -1.0, -1.0]))
    assert np.array_equal(x, [0.0, 0.0])
    assert rnorm == pytest.approx(math.sqrt(3.0))


def test_nnls_feasible_unconstrained_solution_is_returned():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x, rnorm = nnls(a, np.array([2.0, 1.0, 1.0]))
    assert x == pytest.approx([1.5, 1.0], rel=1e-15)
    assert rnorm == pytest.approx(math.sqrt(0.5))


def test_nnls_rejects_bad_input():
    with pytest.raises(CalibrationError):
        nnls(np.ones((3, 2)), np.ones(4))
    with pytest.raises(CalibrationError):
        nnls(np.array([[1.0, np.nan]]), np.ones(1))


def test_nnls_steps_from_zero_when_the_unconstrained_solution_is_infeasible():
    # The unconstrained solution has a negative coefficient, and so does
    # the least-squares solution on its positive coordinates alone.
    a = np.array([[0.0, 3.0], [-2.0, 2.0], [1.0, -3.0]])
    b = np.array([-1.0, 3.0, 0.0])
    assert nnls(a, b)[0] == pytest.approx([0.0, 3.0 / 22.0])


# ------------------------------------------------------------ nnls_scan


@st.composite
def leakage_families(draw):
    """The leakage fit's beta grid: an intercept and a ``V²f``-like column
    shared, one ``T² e^{-β/T}`` column per grid point; the intercept of
    the generating power may be negative, so that constraints bind."""
    m = draw(st.integers(8, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    temps_k = rng.uniform(300.0, 360.0, m)
    dyn = rng.uniform(0.0, 1.0, m) * 1e9
    fixed = np.column_stack([np.ones(m), dyn])
    grid = np.linspace(600.0, 4000.0, draw(st.integers(1, 35)))
    columns = temps_k[:, None] ** 2 * np.exp(-grid / temps_k[:, None])
    beta = draw(st.floats(600.0, 4000.0))
    intercept = draw(st.floats(-0.5, 0.5))
    power = (
        intercept + 2e-10 * dyn + 1e-2 * temps_k**2 * np.exp(-beta / temps_k)
        + draw(st.floats(0.0, 0.05)) * rng.standard_normal(m)
    )
    return fixed, columns, power


@given(family=leakage_families())
@settings(max_examples=150, deadline=None)
@example(family=(
    np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]]),
    np.column_stack([[1.0, 1.0, 1.0, 1.0], [2.0, 4.0, 6.0, 8.0], [1.0, -1.0, 1.0, -1.0]]),
    np.array([-1.0, 0.5, 2.0, 3.0]),
)).via("candidates in the span of the shared columns")
def test_nnls_scan_matches_nnls_per_candidate(family):
    from scipy.optimize import nnls as scipy_nnls

    fixed, columns, b = family
    scores = nnls_scan(fixed, columns, b)
    scale = max(float(np.linalg.norm(b)), 1.0)
    for g in range(columns.shape[1]):
        a = np.column_stack([fixed, columns[:, g]])
        assert abs(scores[g] - nnls(a, b)[1]) <= 1e-9 * scale
        assert abs(scores[g] - scipy_nnls(a, b)[1]) <= 1e-9 * scale


def test_nnls_scan_rank_deficient_shared_block_falls_back():
    fixed = np.column_stack([np.ones(5), 2.0 * np.ones(5)])
    columns = np.arange(10.0).reshape(5, 2)
    b = np.array([1.0, -2.0, 3.0, 0.5, 1.0])
    expected = [nnls(np.column_stack([fixed, c]), b)[1] for c in columns.T]
    assert nnls_scan(fixed, columns, b) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------- logm


@st.composite
def propagators(draw):
    """``(Ad, A·dt)``: ``ThermalModel``'s exact ZOH propagator, at a step
    that keeps the fastest mode's factor ``e^{λ dt}`` above 1e-3 (below
    that ``eig`` resolves the smallest eigenvalue too coarsely for any
    logarithm)."""
    spec = draw(networks())
    a_mat = _continuous(spec)[0]
    fastest = float(np.abs(np.linalg.eigvals(a_mat)).max())
    dt = draw(st.floats(-3.0, math.log10(6.9)).map(lambda e: 10.0 ** e)) / fastest
    return ThermalModel(spec, dt, ambient_k=300.0)._ad, a_mat * dt


def _logm_atol(ad) -> float:
    """``V diag(log λ) V⁻¹`` is good to about ``cond(V)²·n·eps·‖Ad‖/λ_min``
    absolutely: ``eig`` gets each eigenvalue to ``n·eps·‖Ad‖·cond(V)``,
    the logarithm divides that by λ, and ``V⁻¹`` multiplies by
    ``cond(V)`` once more."""
    eigvals, vecs = np.linalg.eig(ad)
    cond = float(np.linalg.cond(vecs))
    scale = float(np.abs(ad).max())
    return 64 * len(ad) * EPS * cond**2 * scale / float(np.abs(eigvals).min())


def _assert_close(new, ref, atol, what):
    err = float(np.abs(new - ref).max())
    assert err <= atol, f"{what}: {err:.3g} (atol {atol:.3g})"


@given(case=propagators())
@settings(max_examples=150, deadline=None)
def test_logm_of_thermal_propagators_matches_scipy(case):
    from scipy.linalg import expm
    from scipy.linalg import logm as scipy_logm

    ad, a_dt = case
    atol = _logm_atol(ad)
    got = logm(ad)
    assert got.dtype == float
    _assert_close(got, scipy_logm(ad).real, atol, "logm vs SciPy")
    # The propagator's own generator: Ad = e^{A dt} with A dt's real
    # negative spectrum, whose principal logarithm is A dt again.
    _assert_close(got, a_dt, atol, "logm vs A·dt")
    _assert_close(expm(got), ad, atol, "expm(logm(Ad))")


@given(case=propagators(), angle=st.floats(0.05, 1.0), data=st.data())
@settings(max_examples=100, deadline=None)
def test_logm_with_complex_eigenvalue_pairs_matches_scipy(case, angle, data):
    """Two real eigenvalues of the propagator become the pair a ± i·b
    (a their mean, b = angle·a), in the propagator's own eigenbasis."""
    from scipy.linalg import expm
    from scipy.linalg import logm as scipy_logm

    ad = case[0]
    assume(len(ad) >= 2)
    eigvals, vecs = np.linalg.eig(ad)
    i, j = data.draw(st.lists(st.integers(0, len(ad) - 1), min_size=2, max_size=2,
                              unique=True))
    block = np.diag(eigvals.real)
    mean = 0.5 * (eigvals[i].real + eigvals[j].real)
    block[i, i] = block[j, j] = mean
    block[i, j], block[j, i] = -angle * mean, angle * mean
    perturbed = vecs.real @ block @ np.linalg.inv(vecs.real)
    spectrum = np.linalg.eigvals(perturbed)
    assert np.count_nonzero(np.abs(spectrum.imag) > 0.0) >= 2
    atol = _logm_atol(perturbed)
    got = logm(perturbed)
    _assert_close(got, scipy_logm(perturbed).real, atol, "logm vs SciPy")
    _assert_close(expm(got), perturbed, atol, "expm(logm(M))")


@pytest.mark.parametrize("matrix, reason", [
    (np.diag([0.5, -0.25]), "negative real axis"),
    (np.diag([0.5, 0.0]), "negative real axis"),
    (np.array([[0.5, 1.0], [0.0, 0.5]]), "not diagonalizable"),
    (np.ones((2, 3)), "square"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
])
def test_logm_rejects_what_has_no_real_eigen_logarithm(matrix, reason):
    with pytest.raises(CalibrationError, match=reason):
        logm(matrix)
