"""Robust calibration: degraded-trace closed loop, helpers, degradation path.

The robustness contract (docs/CALIBRATION.md): for every registered
platform, excite -> degrade with the ``noisy-sysfs`` model (millidegree
temperature quantization + 10 % record drops + TMU spikes, fixed seed) ->
fit recovers every checked parameter within 10 % and the fitted
definition's stock-scenario behaviour within 3 %; meanwhile clean traces
keep byte-identical reports under ``robust="auto"`` vs ``"off"``, and a
missing channel demotes its stages to structural priors (``unfitted``)
instead of raising.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.calib import (
    BUILTIN_MODELS,
    CalibTrace,
    fit_platform,
    needs_robust,
    run_excitation,
)
from repro.calib import robust as rb
from repro.calib.excite import ExcitationConfig
from repro.calib.fit import fit_trace
from repro.errors import CalibrationError, StabilityError
from repro.sim.experiment import AppSpec, Scenario
from repro.soc import registry

#: Degraded-trace recovery tolerance (clean contract is 5 %).
TOL = 0.10

FAST = ExcitationConfig()
CONTRACT_MODEL = BUILTIN_MODELS["noisy-sysfs"]


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0.0 else abs(a - b)


# ------------------------------------------------- degraded closed loop


@pytest.fixture(scope="module", params=registry.platform_names())
def degraded_loop(request):
    """(generating spec, fitted def, fitted spec, report, clean trace)."""
    name = request.param
    trace = run_excitation(name, seed=1, config=FAST)
    degraded = CONTRACT_MODEL.apply(trace, seed=7)
    fitted, report = fit_platform(degraded)
    return registry.get(name).compile(), fitted, fitted.compile(), report, trace


def test_degraded_round_trip_component_parameters(degraded_loop):
    spec, _fitted, fspec, _report, _trace = degraded_loop
    for truth, fit in list(zip(spec.clusters, fspec.clusters)) + [
        (spec.gpu, fspec.gpu)
    ]:
        assert _rel(fit.ceff_w_per_v2hz, truth.ceff_w_per_v2hz) < TOL
        assert _rel(fit.idle_power_w, truth.idle_power_w) < TOL
        assert _rel(fit.leakage.kappa_w_per_k2, truth.leakage.kappa_w_per_k2) < TOL
        assert _rel(fit.leakage.beta_k, truth.leakage.beta_k) < TOL
        for freq_hz in truth.opps.frequencies_hz():
            assert _rel(
                fit.opps.voltage_for(freq_hz), truth.opps.voltage_for(freq_hz)
            ) < TOL
    assert _rel(fspec.memory.base_power_w, spec.memory.base_power_w) < TOL
    assert _rel(fspec.memory.activity_power_w, spec.memory.activity_power_w) < TOL
    assert _rel(fspec.board_power_w, spec.board_power_w) < TOL


def test_degraded_round_trip_thermal_network(degraded_loop):
    spec, _fitted, fspec, _report, _trace = degraded_loop
    for truth, fit in zip(spec.thermal.nodes, fspec.thermal.nodes):
        assert fit.name == truth.name
        assert _rel(fit.capacitance_j_per_k, truth.capacitance_j_per_k) < TOL
    conductances = {
        tuple(sorted((link.node_a, link.node_b))): link.conductance_w_per_k
        for link in spec.thermal.links
    }
    assert len(fspec.thermal.links) == len(conductances)
    for link in fspec.thermal.links:
        key = tuple(sorted((link.node_a, link.node_b)))
        assert _rel(link.conductance_w_per_k, conductances[key]) < TOL


def test_degraded_fit_verdicts_and_uncertainty(degraded_loop):
    _spec, _fitted, _fspec, report, _trace = degraded_loop
    assert not report.degraded(), report.verdicts()
    for stage_name in report.stage_names():
        stage = report.stage(stage_name)
        assert stage.uncertainty, f"{stage_name} carries no uncertainty block"
        grades = stage.uncertainty["params"]
        assert grades, stage_name
        assert set(grades.values()) <= set(rb.CONFIDENCE_GRADES)


def test_clean_trace_auto_fit_is_byte_identical_to_off(degraded_loop):
    _spec, _fitted, _fspec, _report, trace = degraded_loop
    assert not needs_robust(trace)
    auto = fit_trace(trace, robust="auto")
    off = fit_trace(trace, robust="off")
    assert auto.to_json() == off.to_json()


def test_degraded_fit_behaviour_matches_generating_def():
    """A fit from a degraded capture still behaves like the original."""
    name = "odroid-xu3"
    trace = run_excitation(name, seed=1, config=FAST)
    degraded = CONTRACT_MODEL.apply(trace, seed=7)
    fitted, _report = fit_platform(degraded, name="xu3-degraded-refit")
    registry.register(fitted)
    try:
        results = {}
        for platform in (name, "xu3-degraded-refit"):
            results[platform] = Scenario(
                platform=platform,
                apps=(AppSpec.catalog("paperio"),),
                policy="stock",
                duration_s=20.0,
                seed=5,
            ).run()
        truth, refit = results[name], results["xu3-degraded-refit"]
        assert _rel(refit.peak_temp_c, truth.peak_temp_c) < 0.03
        for app, fps in truth.fps.items():
            assert _rel(refit.fps[app], fps) < 0.03
    finally:
        registry.unregister("xu3-degraded-refit")


# ------------------------------------------------- graceful degradation


def _without_channel(trace, channel):
    data = trace.to_dict()
    assert channel in data["channels"], sorted(data["channels"])
    del data["channels"][channel]
    return CalibTrace.from_dict(data)


def test_missing_voltage_channel_demotes_to_prior():
    trace = run_excitation("odroid-xu3", seed=1, config=FAST)
    mutated = _without_channel(trace, "volt.gpu")
    fitted, report = fit_platform(mutated, name="xu3-no-gpu-volt")
    assert report.verdicts()["dvfs.gpu"] == "unfitted"
    assert report.verdicts()["leakage.gpu"] == "unfitted"
    assert {s.stage for s in report.degraded()} == {"dvfs.gpu", "leakage.gpu"}
    assert any("demoted to structural prior" in w for w in report.warnings)
    grades = report.stage("dvfs.gpu").uncertainty["params"]
    assert set(grades.values()) == {"prior"}
    # The prior-filled definition still validates and registers.
    registry.register(fitted)
    registry.unregister("xu3-no-gpu-volt")


def test_missing_temperature_channel_demotes_dependent_stages():
    trace = run_excitation("odroid-xu3", seed=1, config=FAST)
    mutated = _without_channel(trace, "temp.big")
    _fitted, report = fit_platform(mutated, name="xu3-no-big-temp")
    unfitted = {s.stage for s in report.degraded()}
    assert "rc" in unfitted
    assert "leakage.a15" in unfitted


def test_robust_off_raises_instead_of_demoting():
    trace = run_excitation("odroid-xu3", seed=1, config=FAST)
    mutated = _without_channel(trace, "volt.gpu")
    with pytest.raises(CalibrationError, match="volt.gpu"):
        fit_trace(mutated, robust="off")


def test_unknown_robust_mode_rejected():
    trace = run_excitation("odroid-xu3", seed=1, config=FAST)
    with pytest.raises(CalibrationError, match="unknown robust mode"):
        fit_trace(trace, robust="maybe")


def test_needs_robust_triggers():
    trace = run_excitation("odroid-xu3", seed=1, config=FAST)
    assert not needs_robust(trace)
    assert needs_robust(BUILTIN_MODELS["sysfs"].apply(trace, seed=0))
    # Dropping one record from one channel breaks sample alignment.
    data = trace.to_dict()
    channel = data["channels"]["temp.big"]
    channel["times"] = channel["times"][:-1]
    channel["values"] = channel["values"][:-1]
    assert needs_robust(CalibTrace.from_dict(data))


# ------------------------------------------------------- robust helpers


def test_mad_and_robust_scale():
    assert rb.mad([1.0, 1.0, 1.0]) == 0.0
    assert rb.mad([0.0, 1.0, 2.0, 100.0]) == pytest.approx(1.0)
    assert rb.robust_scale([0.0, 1.0, 2.0, 100.0]) == pytest.approx(rb.MAD_SCALE)


def test_huber_weights_shape():
    w = rb.huber_weights(np.array([0.0, 1.0, 10.0]), scale=1.0, k=1.0)
    assert w[0] == 1.0 and w[1] == 1.0
    assert w[2] == pytest.approx(0.1)
    assert rb.effective_samples(w) == pytest.approx(2.1)


def _hampel_per_run(values, window=7, n_sigmas=4.0):
    """Reference Hampel filter: one reflect-padded rolling median per run."""
    v = np.asarray(values, dtype=float).copy()
    flagged = np.zeros(v.size, dtype=bool)
    window = max(3, int(window)) | 1
    runs, start = [], None
    for i, ok in enumerate(np.isfinite(v)):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append(slice(start, i))
            start = None
    if start is not None:
        runs.append(slice(start, v.size))
    for run in runs:
        seg = v[run]
        if seg.size < 3:
            flagged[run] = True
            continue
        width = min(window, seg.size | 1)
        padded = np.pad(seg, width // 2, mode="reflect")
        med = np.median(sliding_window_view(padded, width), axis=1)
        dev = np.abs(seg - med)
        scale = max(rb.MAD_SCALE * float(np.median(dev)), 1e-9)
        bad = dev > n_sigmas * scale
        seg[bad] = med[bad]
        v[run] = seg
        flagged[run] = bad
    return v, flagged


# Runs of 1-8 samples rounded to 0.1 (so ties and both signed zeros
# occur), each sample possibly carrying a +50 spike, between gaps of 0-3
# NaN/inf samples (an empty gap merges two runs into a longer one).
_samples = st.tuples(
    st.integers(-20, 20), st.booleans(), st.booleans()
).map(lambda s: (-1.0 if s[1] else 1.0) * (s[0] / 10) + (50.0 if s[2] else 0.0))
_gaps = st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3)


@st.composite
def _gappy_channels(draw):
    values = draw(_gaps)
    runs = st.lists(st.lists(_samples, min_size=1, max_size=8), max_size=16)
    for run in draw(runs):
        values += run + draw(_gaps)
    return np.array(values[:80], dtype=float)


@given(values=_gappy_channels(), window=st.sampled_from([1, 3, 5, 7, 8, 11]))
# A spike replaced by the median of negative zeros: np.median returns +0.0
# there, where taking the middle of a sorted window would give -0.0.
@example(values=np.array([-0.0, -0.0, -0.0, 50.0, -0.0, -0.0, -0.0]), window=7)
@settings(max_examples=300, deadline=None)
def test_hampel_is_byte_equal_to_per_run_reference(values, window):
    filtered, flagged = rb.hampel(values, window=window)
    ref_filtered, ref_flagged = _hampel_per_run(values, window=window)
    assert filtered.tobytes() == ref_filtered.tobytes()
    assert flagged.tobytes() == ref_flagged.tobytes()


@pytest.mark.parametrize("length, width", [(3, 3), (4, 5), (5, 5), (6, 7)])
def test_hampel_window_shrinks_to_run_length(length, width):
    run = np.array([5.0, 0.0, 9.0, 2.0, 7.0, 1.0])[:length]
    channel = np.concatenate(([np.nan], run, [np.nan, 3.0, 3.0]))

    def medians(w):
        return np.median(
            sliding_window_view(np.pad(run, w // 2, mode="reflect"), w), axis=1
        )

    # A negative threshold flags every sample, exposing the window medians.
    filtered, flagged = rb.hampel(channel, window=7, n_sigmas=-1.0)
    assert flagged[1 : 1 + length].all()
    np.testing.assert_array_equal(filtered[1 : 1 + length], medians(width))
    for other in {3, 5, 7} - {width}:
        if other // 2 < length:
            assert not np.array_equal(medians(other), medians(width))


@pytest.mark.parametrize("values", [[], [np.nan] * 5], ids=["empty", "all-nan"])
def test_hampel_without_samples_returns_unflagged_nans(values):
    filtered, flagged = rb.hampel(values)
    assert filtered.shape == flagged.shape == (len(values),)
    assert np.isnan(filtered).all() and not flagged.any()


def test_hampel_inf_splits_runs_like_nan():
    v = 30.0 + np.sin(np.arange(20.0))
    v[3] += 25.0
    with_nan, with_inf = v.copy(), v.copy()
    with_nan[[4, 9]] = np.nan
    with_inf[[4, 9]] = [np.inf, -np.inf]
    nan_filtered, nan_flagged = rb.hampel(with_nan)
    inf_filtered, inf_flagged = rb.hampel(with_inf)
    assert nan_flagged.tobytes() == inf_flagged.tobytes()
    assert nan_flagged[3] and not nan_flagged[[4, 9]].any()
    assert list(inf_filtered[[4, 9]]) == [np.inf, -np.inf]
    finite = np.isfinite(with_nan)
    assert nan_filtered[finite].tobytes() == inf_filtered[finite].tobytes()


def test_hampel_replaces_and_flags_spikes():
    rng = np.random.default_rng(0)
    v = 30.0 + rng.normal(0.0, 0.1, 50)
    v[20] += 25.0
    filtered, flagged = rb.hampel(v, window=7)
    assert flagged[20] and flagged.sum() == 1
    assert abs(filtered[20] - 30.0) < 0.5


def test_hampel_detects_spike_at_run_edge():
    # A drop gap right before a spike puts the spike at a run boundary;
    # edge-replicating padding would let it dominate its own window median.
    rng = np.random.default_rng(0)
    v = 30.0 + rng.normal(0.0, 0.1, 50)
    v[10] = np.nan
    v[11] += 25.0
    _filtered, flagged = rb.hampel(v, window=7)
    assert flagged[11]
    assert not np.any(flagged[12:])


def test_hampel_flags_fragments_too_short_to_validate():
    v = np.array([1.0, np.nan, 25.0, 1.1, np.nan, 1.0, 1.0, 1.0, 1.0])
    _filtered, flagged = rb.hampel(v)
    assert flagged[2] and flagged[3]
    assert not np.any(flagged[5:])


def test_hampel_preserves_nan_gaps():
    v = np.array([1.0, 1.0, 1.0, 1.0, np.nan, 1.0, 1.0, 1.0, 1.0])
    filtered, flagged = rb.hampel(v)
    assert np.isnan(filtered[4]) and not flagged[4]


def test_align_channels_keeps_gaps_as_nan():
    trace = CalibTrace(channels={
        "temp.a": ([0.0, 0.1, 0.3], [1.0, 2.0, 4.0]),
        "power.b": ([0.0, 0.1, 0.2, 0.3], [5.0, 5.0, 5.0, 5.0]),
    })
    grid = rb.align_channels(trace, ["temp.a", "power.b"])
    assert grid.dt_s == pytest.approx(0.1)
    assert grid.times.size == 4
    assert np.isnan(grid.values["temp.a"][2])
    assert list(grid.present["temp.a"]) == [True, True, False, True]
    assert list(grid.all_present(["temp.a", "power.b"])) == [
        True, True, False, True,
    ]


def test_align_channels_uses_recorded_period():
    trace = CalibTrace(
        channels={"temp.a": ([0.0, 0.21], [1.0, 2.0])},
        meta={"record_period_s": 0.1},
    )
    grid = rb.align_channels(trace, ["temp.a"])
    assert grid.dt_s == 0.1
    assert grid.times.size == 3
    assert not grid.present["temp.a"][1]


def test_align_channels_needs_two_timestamps():
    trace = CalibTrace(channels={"temp.a": ([0.0], [1.0])})
    with pytest.raises(CalibrationError, match="record period"):
        rb.align_channels(trace, ["temp.a"])


def test_irls_lstsq_shrugs_off_outliers():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 1.0, 40)
    a = np.column_stack([np.ones_like(x), x])
    y_dirty = 1.0 + 2.0 * x + rng.normal(0.0, 0.01, x.size)
    y_dirty[5] += 50.0
    coef, weights = rb.irls_lstsq(a, y_dirty)
    assert coef[0] == pytest.approx(1.0, abs=0.02)
    assert coef[1] == pytest.approx(2.0, abs=0.05)
    assert weights[5] < 0.01
    assert np.median(weights) == 1.0


def test_irls_min_scale_keeps_structured_mismatch_at_full_weight():
    x = np.linspace(0.0, 1.0, 40)
    a = np.column_stack([np.ones_like(x), x])
    # Sub-resolution structured residual: without the floor, the collapsed
    # MAD scale would read the largest of these as outliers.
    y = 1.0 + 2.0 * x + 1e-5 * np.sin(40.0 * x)
    _coef, floored = rb.irls_lstsq(a, y, min_scale=1e-3)
    assert np.all(floored == 1.0)


def test_irls_nnls_recovers_nonnegative_solution():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 2.0, size=(60, 3))
    truth = np.array([1.0, 0.5, 2.0])
    y = a @ truth
    y[10] += 30.0
    coef, weights = rb.irls_nnls(a, y)
    np.testing.assert_allclose(coef, truth, rtol=0.05)
    assert np.all(coef >= 0.0)
    assert weights[10] < 0.1


def test_robust_leakage_estimator_recovers_and_grades():
    temps = np.linspace(300.0, 380.0, 20)
    kappa, beta = 2.5e-4, 1700.0
    totals = kappa * temps**2 * np.exp(-beta / temps)
    fit_kappa, fit_beta, (se_lk, se_b) = rb.fit_log_linear_leakage_robust(
        temps, totals
    )
    assert fit_kappa == pytest.approx(kappa, rel=1e-6)
    assert fit_beta == pytest.approx(beta, rel=1e-6)
    assert np.isfinite(se_lk) and np.isfinite(se_b)
    with pytest.raises(StabilityError, match="zero leakage"):
        rb.fit_log_linear_leakage_robust(temps, np.zeros(20))


def test_grade_param_thresholds():
    assert rb.grade_param(1.0, 0.01) == "high"
    assert rb.grade_param(1.0, 0.10) == "medium"
    assert rb.grade_param(1.0, 1.0) == "low"
    assert rb.grade_param(1.0, float("inf")) == "low"
    # A near-zero parameter is not graded low for an undefined rel. error.
    assert rb.grade_param(0.0, 0.005, floor=0.01) == "high"


def test_lstsq_stderr_tracks_noise_level():
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 1.0, 200)
    a = np.column_stack([np.ones_like(x), x])
    coef = np.array([1.0, 2.0])
    quiet = rb.lstsq_stderr(a, a @ coef + rng.normal(0, 1e-3, x.size), coef)
    loud = rb.lstsq_stderr(a, a @ coef + rng.normal(0, 1e-1, x.size), coef)
    assert np.all(quiet < loud)
    assert np.all(quiet > 0.0)
