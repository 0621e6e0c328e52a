"""Robust estimation helpers for fitting degraded calibration traces.

The clean-trace estimators in :mod:`repro.calib.fit` assume sample-aligned
channels, uniform cadence and outlier-free values.  Real captures deliver
none of that, so the robust fit path composes the primitives here:

* :func:`align_channels` — snap per-channel clocks onto one uniform record
  grid, leaving NaN where a sample was dropped (gaps are *never*
  interpolated across; estimators mask them out);
* :func:`hampel` — median-of-window despiking per contiguous run, the
  standard prefilter for TMU glitches;
* :func:`irls_lstsq` / :func:`irls_nnls` — iteratively-reweighted least
  squares with Huber weights, for the CV^2 f / leakage / RC regressions;
* :func:`fit_log_linear_leakage_robust` — the shared De Vogeleer log-linear
  leakage estimator, IRLS-weighted, with parameter standard errors;
* :func:`lstsq_stderr`, :func:`grade_param`, :func:`effective_samples` —
  the uncertainty-reporting vocabulary (residual MAD, effective sample
  counts, per-parameter confidence grades) the extended
  :class:`~repro.calib.fit.FitReport` carries.

Everything is deterministic and pure-numpy; nothing here draws randomness.
"""

from __future__ import annotations

import numpy as np

from repro.core.linalg import nnls
from repro.errors import CalibrationError

#: Consistency factor making the median absolute deviation estimate the
#: standard deviation of Gaussian data.
MAD_SCALE = 1.4826

#: Huber tuning constant (95 % Gaussian efficiency).
HUBER_K = 1.345

#: Confidence grades a fitted parameter can carry, best first.  ``prior``
#: marks a value that was never fitted (graceful-degradation fallback).
CONFIDENCE_GRADES = ("high", "medium", "low", "prior")


def mad(values) -> float:
    """Median absolute deviation (unscaled) of a 1-D array."""
    v = np.asarray(values, dtype=float)
    return float(np.median(np.abs(v - np.median(v))))


def robust_scale(residuals) -> float:
    """MAD-based sigma estimate of a residual vector (0.0 if degenerate)."""
    return MAD_SCALE * mad(residuals)


def huber_weights(abs_residuals, scale: float, k: float = HUBER_K) -> np.ndarray:
    """Huber IRLS weights: 1 inside ``k * scale``, decaying ``1/u`` outside."""
    r = np.asarray(abs_residuals, dtype=float)
    u = r / (k * scale)
    with np.errstate(divide="ignore"):
        return np.where(u <= 1.0, 1.0, 1.0 / np.maximum(u, 1e-300))


def effective_samples(weights) -> float:
    """Sum of IRLS weights: how many full-weight samples the fit really used."""
    return float(np.sum(np.asarray(weights, dtype=float)))


def hampel(
    values, window: int = 7, n_sigmas: float = 4.0
) -> tuple[np.ndarray, np.ndarray]:
    """Median-of-window despiking; NaN gaps split the signal into runs.

    Returns ``(filtered, outlier_mask)``: samples deviating from their
    rolling median by more than ``n_sigmas`` robust sigmas are replaced by
    that median.  NaNs pass through untouched and are never bridged — a
    spike next to a gap is judged only against its own contiguous run.

    Each run of finite samples is filtered on its own: the window shrinks
    to ``len | 1`` on short runs, is reflect-padded inside the run, and the
    MAD scale is the run's own.  All runs are filtered together in a fixed
    number of array operations (one median per distinct window width),
    because sample drops cut a channel into dozens of short runs.
    """
    v = np.asarray(values, dtype=float).copy()
    flagged = np.zeros(v.size, dtype=bool)
    window = max(3, int(window)) | 1
    finite = np.isfinite(v)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], finite, [False]))))
    starts = edges[::2]
    lengths = edges[1::2] - starts
    # Too short to self-validate: a spike marooned between two gaps is
    # indistinguishable from signal, so treat the whole fragment as suspect
    # rather than let it through unchecked.
    flagged[np.flatnonzero(finite)[np.repeat(lengths < 3, lengths)]] = True

    # Runs ordered by window width, so each width's samples form one slice.
    widths = np.minimum(window, lengths | 1)
    order = np.argsort(widths, kind="stable")
    order = order[lengths[order] >= 3]
    if order.size == 0:
        return v, flagged
    starts, lengths, widths = starts[order], lengths[order], widths[order]
    run_id = np.repeat(np.arange(starts.size), lengths)
    run_offsets = np.cumsum(lengths) - lengths
    base = starts[run_id]
    pos = np.arange(run_id.size) - run_offsets[run_id]
    idx = base + pos

    # Reflect (not edge) padding inside the run: replicating the boundary
    # sample would let a spike sitting at a run edge dominate its own
    # window median — and sample-drop gaps create many run edges.  Columns
    # outside a narrower run's window are clipped into the run and unused.
    half = window // 2
    last = (lengths - 1)[run_id, None]
    j = np.abs(pos[:, None] + np.arange(-half, half + 1))
    windows = v[base[:, None] + np.clip(np.minimum(j, 2 * last - j), 0, last)]
    med = np.empty(idx.size)
    row_widths = widths[run_id]
    for width in np.unique(widths):
        lo, hi = np.searchsorted(row_widths, (width, width + 1))
        cols = slice(half - width // 2, half + width // 2 + 1)
        # np.median, not a sort: it picks the same signed zero on ties.
        med[lo:hi] = np.median(windows[lo:hi, cols], axis=1)

    dev = np.abs(v[idx] - med)
    ordered = dev[np.lexsort((dev, run_id))]
    mid = run_offsets + lengths // 2
    run_mad = np.where(
        lengths % 2 == 1, ordered[mid], (ordered[mid - 1] + ordered[mid]) / 2
    )
    scale = np.maximum(MAD_SCALE * run_mad, 1e-9)
    bad = dev > n_sigmas * scale[run_id]
    v[idx[bad]] = med[bad]
    flagged[idx] = bad
    return v, flagged


# --------------------------------------------------------------------------
# gap-aware channel alignment
# --------------------------------------------------------------------------


class AlignedGrid:
    """Channels resampled onto one uniform record grid, gaps kept as NaN."""

    def __init__(
        self,
        times: np.ndarray,
        dt_s: float,
        values: dict[str, np.ndarray],
        present: dict[str, np.ndarray],
    ) -> None:
        self.times = times
        self.dt_s = float(dt_s)
        self.values = values
        self.present = present

    def all_present(self, names) -> np.ndarray:
        """Mask of grid rows where every named channel has a real sample."""
        return np.logical_and.reduce([self.present[n] for n in names])


def align_channels(trace, names, dt_s: float | None = None) -> AlignedGrid:
    """Snap ``names`` onto a shared uniform grid without interpolating.

    The grid period comes from ``trace.meta['record_period_s']`` when the
    excitation harness recorded it, else from the median inter-sample gap.
    Each sample lands on its nearest grid slot; slots no channel sample
    landed on stay NaN (and ``present`` False) — drops remain *gaps*, so
    estimators can window on contiguous runs instead of hallucinating
    values across them.
    """
    series = {name: trace.series(name) for name in names}
    if dt_s is None:
        dt_s = trace.meta.get("record_period_s")
    if dt_s is None:
        gaps = np.concatenate([
            np.diff(t) for t, _ in series.values() if t.size > 1
        ]) if any(t.size > 1 for t, _ in series.values()) else np.array([])
        positive = gaps[gaps > 0.0]
        if positive.size == 0:
            raise CalibrationError(
                "cannot infer a record period: no channel has two "
                "distinct timestamps",
                channel=names[0],
            )
        dt_s = float(np.median(positive))
    dt_s = float(dt_s)
    if dt_s <= 0.0:
        raise CalibrationError(f"record period must be positive, got {dt_s}")
    t0 = min(t[0] for t, _ in series.values())
    t1 = max(t[-1] for t, _ in series.values())
    n = int(round((t1 - t0) / dt_s)) + 1
    times = t0 + dt_s * np.arange(n)
    values: dict[str, np.ndarray] = {}
    present: dict[str, np.ndarray] = {}
    for name, (t, v) in series.items():
        idx = np.clip(np.rint((t - t0) / dt_s).astype(int), 0, n - 1)
        first = np.unique(idx, return_index=True)[1]
        col = np.full(n, np.nan)
        col[idx[first]] = v[first]
        values[name] = col
        mask = np.zeros(n, dtype=bool)
        mask[idx[first]] = True
        present[name] = mask
    return AlignedGrid(times, dt_s, values, present)


# --------------------------------------------------------------------------
# IRLS regressions
# --------------------------------------------------------------------------


def _residual_norms(residuals: np.ndarray) -> np.ndarray:
    if residuals.ndim == 1:
        return np.abs(residuals)
    return np.sqrt(np.sum(residuals * residuals, axis=1))


def irls_lstsq(
    a, y, iters: int = 3, k: float = HUBER_K, min_scale: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Huber-weighted least squares; handles 1-D and stacked 2-D targets.

    Returns ``(coefficients, weights)``.  For a 2-D target the residual of
    a row is its Euclidean norm, so one glitched record downweights the
    whole record — the behaviour the RC one-step regression needs.

    ``min_scale`` floors the Huber scale: on a nearly-clean fit the MAD of
    the residuals collapses toward zero and any *structured* sub-resolution
    mismatch would read as outliers, quietly downweighting exactly the
    samples that carry the signal.  Callers pass a floor tied to the
    measurement resolution of ``y`` so that regime keeps every weight at 1.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    weights = np.ones(a.shape[0])
    for _ in range(int(iters)):
        scale = max(robust_scale(_residual_norms(y - a @ coef)), min_scale)
        if scale <= 0.0:
            break
        weights = huber_weights(_residual_norms(y - a @ coef), scale, k)
        sw = np.sqrt(weights)
        ya = a * sw[:, None]
        yy = y * (sw[:, None] if y.ndim == 2 else sw)
        coef, *_ = np.linalg.lstsq(ya, yy, rcond=None)
    return coef, weights


def irls_nnls(
    a, y, iters: int = 3, k: float = HUBER_K, min_scale: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Huber-weighted non-negative least squares (1-D target).

    ``min_scale`` floors the Huber scale exactly as in :func:`irls_lstsq`.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    coef, _ = nnls(a, y)
    weights = np.ones(a.shape[0])
    for _ in range(int(iters)):
        scale = max(robust_scale(y - a @ coef), min_scale)
        if scale <= 0.0:
            break
        weights = huber_weights(np.abs(y - a @ coef), scale, k)
        sw = np.sqrt(weights)
        coef, _ = nnls(a * sw[:, None], y * sw)
    return coef, weights


def lstsq_stderr(a, y, coef, weights=None) -> np.ndarray:
    """OLS/WLS standard errors of ``coef`` (1-D target only)."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if weights is not None:
        sw = np.sqrt(np.asarray(weights, dtype=float))
        a = a * sw[:, None]
        y = y * sw
    residuals = y - a @ coef
    dof = max(a.shape[0] - a.shape[1], 1)
    sigma2 = float(residuals @ residuals) / dof
    try:
        cov = sigma2 * np.linalg.pinv(a.T @ a)
    except np.linalg.LinAlgError:
        return np.full(a.shape[1], np.inf)
    diag = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(diag)


def fit_log_linear_leakage_robust(
    temps_k, totals_w, iters: int = 3
) -> tuple[float, float, tuple[float, float]]:
    """IRLS variant of the shared De Vogeleer log-linear leakage estimator.

    Same regression as :func:`repro.calib.fit.fit_log_linear_leakage`
    (``log(P / T^2) = log kappa - beta / T``) but Huber-weighted, and
    additionally returns ``(stderr_log_kappa, stderr_beta)`` for the
    confidence grading.  Raises :class:`~repro.errors.StabilityError` under
    the same conditions as the clean estimator.
    """
    from repro.errors import StabilityError

    temps_k = np.asarray(temps_k, dtype=float)
    totals = np.asarray(totals_w, dtype=float)
    if np.any(totals <= 0.0):
        raise StabilityError("platform has zero leakage; nothing to fit")
    y = np.log(totals / temps_k**2)
    a = np.column_stack([np.ones_like(temps_k), -1.0 / temps_k])
    # Floor at 0.1% in the log-power domain: cleaner-than-that residual
    # structure is refinement error, not outliers, and must keep full weight.
    coeffs, weights = irls_lstsq(a, y, iters=iters, min_scale=1e-3)
    kappa = float(np.exp(coeffs[0]))
    beta = float(coeffs[1])
    if beta <= 0.0:
        raise StabilityError(f"fitted beta is non-physical: {beta}")
    se = lstsq_stderr(a, y, coeffs, weights)
    return kappa, beta, (float(se[0]), float(se[1]))


# --------------------------------------------------------------------------
# confidence grading
# --------------------------------------------------------------------------


def grade_param(value: float, stderr: float, floor: float = 0.0) -> str:
    """Grade one fitted parameter from its standard error.

    ``floor`` is an absolute uncertainty (in the parameter's unit) that is
    always acceptable, so near-zero parameters are not graded ``low`` for
    having an undefined relative error.
    """
    if not np.isfinite(stderr):
        return "low"
    v = abs(float(value))
    if stderr <= 0.02 * v + floor:
        return "high"
    if stderr <= 0.15 * v + 10.0 * floor:
        return "medium"
    return "low"
