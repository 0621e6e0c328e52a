"""Non-negative least squares and the matrix logarithm for calibration.

The calibration estimators (:mod:`repro.calib.fit`) need two dense
routines beyond ``numpy.linalg``; both are written here on numpy alone, so
that no part of the runtime imports SciPy:

* :func:`nnls` — the active-set method of Lawson & Hanson (*Solving Least
  Squares Problems*, 1974, ch. 23), the algorithm ``scipy.optimize.nnls``
  implements.  Most calls in a fit are well posed and their unconstrained
  least-squares solution is already non-negative; that solution is then
  the NNLS answer exactly, so it is returned without entering the active
  set, which otherwise starts from ``x = 0``.
* :func:`nnls_scan` — the residual norms of a family of NNLS problems that
  share every column but the last, as the leakage fit's activation
  temperature grid poses them.  One QR of the shared columns serves every
  candidate, and only the candidates whose unconstrained solution has a
  negative coefficient go through :func:`nnls`.
* :func:`logm` — the principal matrix logarithm of a diagonalizable matrix
  through ``numpy.linalg.eig``; anything else is refused.

Bits need not match SciPy: ``tests/test_linalg_oracle.py`` checks the
objective, the optimality conditions and the logarithm against SciPy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError

_EPS = float(np.finfo(float).eps)

#: Eigenvector-matrix condition number above which :func:`logm` treats its
#: argument as defective: ``V diag(log λ) V⁻¹`` loses about ``cond(V)·eps``
#: relatively, so past ``1/sqrt(eps)`` half the digits are gone.
DEFECTIVE_COND = 1.0 / np.sqrt(_EPS)

#: An eigenvalue whose imaginary part is below this fraction of its modulus
#: counts as real when :func:`logm` looks for the closed negative real axis.
REAL_AXIS_RTOL = np.sqrt(_EPS)


def _as_problem(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise CalibrationError(
            f"nnls needs an (m, n) matrix and an (m,) vector, got "
            f"{a.shape} and {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise CalibrationError("nnls got a non-finite matrix or right-hand side")
    return a, b


def _column_scales(a: np.ndarray) -> np.ndarray:
    """Column 2-norms, 1 for an all-zero column.  Solving against unit
    columns keeps the rank cut-off of the SVD-based ``lstsq`` independent
    of the columns' units (an intercept next to a ``V²f`` regressor)."""
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    return np.where(norms > 0.0, norms, 1.0)


def nnls(a, b) -> tuple[np.ndarray, float]:
    """``argmin ‖a x − b‖₂`` subject to ``x ≥ 0``; returns ``(x, ‖a x − b‖₂)``.

    Lawson-Hanson active set with the feasible-unconstrained fast path.
    Raises :class:`CalibrationError` on malformed or non-finite input and
    when the active set does not settle within ``3 n`` steps (SciPy's
    default bound).
    """
    a, b = _as_problem(a, b)
    scales = _column_scales(a)
    unit = a / scales
    x, *_ = np.linalg.lstsq(unit, b, rcond=None)
    if not np.all(x >= 0.0):
        x = _active_set(unit, b)
    x = x / scales
    return x, float(np.linalg.norm(b - a @ x))


def _passive_solve(a: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    s = np.zeros(a.shape[1])
    s[passive], *_ = np.linalg.lstsq(a[:, passive], b, rcond=None)
    return s


def _active_set(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson & Hanson's NNLS (1974, ch. 23, algorithm 23.10) on unit
    columns, from ``x = 0``: grow the passive set by the column of
    steepest descent, and step back toward the previous iterate whenever
    a passive coefficient would turn non-positive.
    """
    m, n = a.shape
    maxiter = 3 * n
    # Dual feasibility: a gradient component below rounding of ‖a_j‖·‖b‖
    # is zero (the columns have unit norm).
    tol = 10.0 * max(m, n) * _EPS * float(np.linalg.norm(b))
    passive = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    # Columns refused since x last changed: the least-squares solution with
    # them passive does not give them a positive coefficient, which only
    # happens when they are (numerically) dependent on the passive set.
    refused = np.zeros(n, dtype=bool)
    w = a.T @ (b - a @ x)
    steps = 0
    while True:
        free = ~passive & ~refused & (w > tol)
        if not free.any():
            return x
        j = int(np.argmax(np.where(free, w, -np.inf)))
        passive[j] = True
        s = _passive_solve(a, b, passive)
        if s[j] <= 0.0:
            passive[j] = False
            refused[j] = True
            continue
        steps += 1
        if steps > maxiter:
            raise CalibrationError(
                f"nnls did not converge in {maxiter} active-set steps"
            )
        while np.any(s[passive] <= 0.0):
            blocking = passive & (s <= 0.0)
            ratios = x[blocking] / (x[blocking] - s[blocking])
            k = int(np.flatnonzero(blocking)[np.argmin(ratios)])
            x = x + float(ratios.min()) * (s - x)
            x[k] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            s = _passive_solve(a, b, passive)
        x = s
        refused[:] = False
        w = a.T @ (b - a @ x)


def _lstsq_family(shared: np.ndarray, columns: np.ndarray, b: np.ndarray):
    """Unconstrained least squares of ``[shared | columns[:, g]]`` for every
    ``g`` from one QR of ``shared`` (1 ≤ k < m unit columns).

    Returns ``(coef, residuals, spanned)``: the (k+1) × G coefficients, the
    m × G residuals ``b − A x`` and the candidates in the span of
    ``shared``; ``None`` when ``shared`` is rank-deficient.  The last
    coefficient is the projection of ``b`` onto the candidate's component
    orthogonal to ``shared``, and the others follow by back-substitution.
    """
    m, k = shared.shape
    cutoff = max(m, k + 1) * _EPS
    q, r = np.linalg.qr(shared)
    if np.abs(np.diag(r)).min() <= cutoff:
        return None
    qb = q.T @ b
    qc = q.T @ columns
    orth = columns - q @ qc
    b_orth = b - q @ qb
    orth_sq = np.einsum("ij,ij->j", orth, orth)
    spanned = orth_sq <= cutoff**2 * np.einsum("ij,ij->j", columns, columns)
    last = (orth.T @ b_orth) / np.where(spanned, 1.0, orth_sq)
    shared_coef = np.linalg.solve(r, qb[:, None] - qc * last)
    # Residuals directly, not through ‖b‖² − …, which cancels on a
    # nearly exact fit.
    return np.vstack([shared_coef, last]), b_orth[:, None] - orth * last, spanned


def nnls_scan(fixed, columns, b) -> np.ndarray:
    """Residual norms of ``nnls([fixed | columns[:, g]], b)`` for every ``g``.

    ``fixed`` (m × k) holds the columns every problem shares and
    ``columns`` (m × G) one candidate last column each.  The unconstrained
    solutions of all candidates come from one QR of ``fixed``; where one
    has a negative shared coefficient, the family is solved once more
    without those columns, and that solution is kept where it meets the
    optimality conditions.  Only candidates left over (or lying in the span
    of ``fixed``) go through the active set one by one.
    """
    fixed, b = _as_problem(fixed, b)
    columns, _ = _as_problem(columns, b)
    m, k = fixed.shape
    fixed_u = fixed / _column_scales(fixed)
    family = _lstsq_family(fixed_u, columns, b) if 0 < k < m else None
    if family is None:
        return np.array([
            nnls(np.column_stack([fixed, columns[:, g]]), b)[1]
            for g in range(columns.shape[1])
        ])
    coef, resid, spanned = family
    rnorms = np.linalg.norm(resid, axis=0)
    todo = spanned | np.any(coef < 0.0, axis=0)
    # Dual feasibility of a dropped column, as in the active set.
    tol = 10.0 * max(m, k + 1) * _EPS * float(np.linalg.norm(b))
    # Retry, per pattern of positive shared coefficients, the candidates
    # whose own coefficient is positive and that keep a shared column.
    retry = todo & (coef[-1] > 0.0) & np.any(coef[:k] > 0.0, axis=0)
    for keep in sorted({tuple(coef[:k, g] > 0.0) for g in np.flatnonzero(retry)}):
        keep = np.array(keep)
        group = np.flatnonzero(retry & np.all((coef[:k] > 0.0) == keep[:, None], axis=0))
        reduced = _lstsq_family(fixed_u[:, keep], columns[:, group], b)
        if reduced is None:
            continue
        rcoef, rresid, rspanned = reduced
        optimal = (
            ~rspanned & np.all(rcoef > 0.0, axis=0)
            & np.all(fixed_u[:, ~keep].T @ rresid <= tol, axis=0)
        )
        rnorms[group[optimal]] = np.linalg.norm(rresid[:, optimal], axis=0)
        todo[group[optimal]] = False
    for g in np.flatnonzero(todo):
        unit = np.column_stack([fixed_u, columns[:, g] / _column_scales(columns[:, g:g + 1])])
        rnorms[g] = np.linalg.norm(b - unit @ _active_set(unit, b))
    return rnorms


def logm(a) -> np.ndarray:
    """Principal logarithm of a real square matrix, ``V diag(log λ) V⁻¹``.

    Raises :class:`CalibrationError` when ``a`` has an eigenvalue on the
    closed negative real axis (zero included), where no real principal
    logarithm exists, or when its eigenvectors are numerically dependent
    (``cond(V)`` above :data:`DEFECTIVE_COND`), where the eigenbasis cannot
    carry the logarithm.  Complex-conjugate eigenvalue pairs are fine: their
    logarithms are conjugate too, and the result is real.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise CalibrationError(f"logm needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise CalibrationError("logm got a non-finite matrix")
    eigvals, vecs = np.linalg.eig(a)
    on_axis = (eigvals.real <= 0.0) & (
        np.abs(eigvals.imag) <= REAL_AXIS_RTOL * np.abs(eigvals)
    )
    if on_axis.any():
        raise CalibrationError(
            f"logm: eigenvalue(s) {eigvals[on_axis]} on the closed negative "
            "real axis; the matrix has no real principal logarithm"
        )
    cond = float(np.linalg.cond(vecs))
    if not cond <= DEFECTIVE_COND:
        raise CalibrationError(
            f"logm: the matrix is not diagonalizable (eigenvector condition "
            f"number {cond:.3g})"
        )
    logs = np.log(eigvals.astype(complex))
    return np.linalg.solve(vecs.T, (vecs * logs).T).T.real
