"""The robust fit's array passes against the loops they replaced, bit for bit.

Each property keeps the replaced implementation here as its oracle:

* ``_energy_balance_system`` integrates every window of one record count
  in one ``np.trapezoid`` pass; the oracle is the per-window, per-node row
  loop of the energy-balance RC stage;
* ``robust.median`` takes ``np.median``'s result from one partition; the
  oracle is ``np.median`` itself, and for ``mad`` the two nested
  ``np.median`` calls it was built from;
* ``_fit_ladder_robust`` and ``visited_mhz`` round each distinct frequency
  once; the oracle rounds every sample and groups them in a dict.

The Hampel filter's oracle, a per-run rolling ``np.median``, lives in
``tests/test_calib_robust.py``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.calib import robust as rb
from repro.calib.fit import (
    _energy_balance_system,
    _fit_ladder,
    _fit_ladder_robust,
    _rc_windows,
    _rounded_mhz,
)
from repro.errors import CalibrationError
from repro.soc import registry

# ------------------------------------------------------ energy balance


def _per_window_rows(
    times, windows, nodes, links, temps, powers, split, varying, q_const,
    t_amb_k,
):
    n = len(nodes)
    n_unknowns = n + len(links)
    node_index = {name: i for i, name in enumerate(nodes)}
    rails = sorted(split)
    rows, rhs = [], []
    for win in windows:
        tt = times[win]
        for name in nodes:
            i = node_index[name]
            temp_i = temps[name][win]
            row = np.zeros(n_unknowns)
            row[i] = temp_i[-1] - temp_i[0]
            for l, (a, b) in enumerate(links):
                if name not in (a, b):
                    continue
                other = b if a == name else a
                temp_o = (
                    np.full(tt.size, t_amb_k) if other == "ambient"
                    else temps[other][win]
                )
                row[n + l] = -np.trapezoid(temp_o - temp_i, tt)
            heat_j = 0.0
            for rail in rails:
                frac = float(split[rail].get(name, 0.0))
                if frac == 0.0:
                    continue
                if rail in varying:
                    heat_j += frac * np.trapezoid(powers[rail][win], tt)
                else:
                    heat_j += frac * q_const[rail] * (tt[-1] - tt[0])
            rows.append(row)
            rhs.append(heat_j)
    return np.vstack(rows), np.asarray(rhs)


@st.composite
def _energy_balance_inputs(draw):
    """A random topology and trace, cut into windows the RC stage's way.

    Temperatures are millikelvin-quantized random walks; a node may copy
    another node's trace or sit at the ambient, so some integrals are
    exactly zero.  Records drop at random (gaps inside windows), input
    transitions and the tile size mix window lengths, and rails are split
    over nodes with zero and missing fractions, some varying, some
    constant."""
    n = draw(st.integers(1, 4))
    nodes = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for name in draw(st.lists(st.sampled_from(nodes), unique=True)):
        end = ("ambient", name) if draw(st.booleans()) else (name, "ambient")
        links.insert(draw(st.integers(0, len(links))), end)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 150))
    steps = rng.choice([0.05, 0.1, 0.1, 0.25], size=m - 1)
    times = draw(st.sampled_from([0.0, 12.3])) + np.concatenate(([0.0], np.cumsum(steps)))
    t_amb_k = draw(st.sampled_from([300.15, 298.0]))
    temps = {}
    for i, name in enumerate(nodes):
        kind = draw(st.sampled_from(["walk", "walk", "copy", "ambient"]))
        if kind == "copy" and i > 0:
            temps[name] = temps[nodes[draw(st.integers(0, i - 1))]].copy()
        elif kind == "ambient":
            temps[name] = np.full(m, t_amb_k)
        else:
            walk = np.cumsum(rng.integers(-3, 4, size=m)) * 1e-3
            temps[name] = np.round(t_amb_k + 5.0 * rng.random() + walk, 3)
    rails = [f"r{j}" for j in range(draw(st.integers(1, 3)))]
    split = {
        r: {
            name: frac
            for name in nodes
            if (frac := draw(st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 0.3])))
            is not None
        }
        for r in rails
    }
    varying = [r for r in rails if draw(st.booleans())]
    q_const = {r: float(rng.random()) for r in rails if r not in varying}
    powers = {r: np.round(rng.random(m) * 3.0, 4) for r in rails}
    present = rng.random(m) >= draw(st.sampled_from([0.0, 0.1, 0.4]))
    trans = rng.random(m) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    windows = _rc_windows(
        present, trans, draw(st.integers(3, 30)), draw(st.integers(1, 6))
    )
    assume(windows)
    return (
        times, windows, nodes, links, temps, powers, split, varying, q_const,
        t_amb_k,
    )


@settings(max_examples=300, deadline=None)
@given(inputs=_energy_balance_inputs())
def test_energy_balance_rows_match_the_per_window_loop(inputs):
    design, target = _energy_balance_system(*inputs)
    ref_design, ref_target = _per_window_rows(*inputs)
    assert design.shape == ref_design.shape
    assert design.tobytes() == ref_design.tobytes()
    assert target.tobytes() == ref_target.tobytes()


# -------------------------------------------------------------- medians


def _np_mad(values):
    v = np.asarray(values, dtype=float)
    return float(np.median(np.abs(v - np.median(v))))


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300, 5e-324, -5e-324]
_value = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-4, 4).map(lambda k: k / 4),
    st.floats(allow_nan=False, allow_infinity=True),
)
_maybe_nan = st.one_of(_value, st.just(np.nan))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_maybe_nan, min_size=1, max_size=41))
@example(values=[-0.0])
@example(values=[-0.0, -0.0])
@example(values=[5e-324, -5e-324, -5e-324, -5e-324])
@example(values=[1.0, np.nan, -0.0])
def test_median_matches_np_median(values):
    x = np.array(values)
    with np.errstate(invalid="ignore"):
        assert np.float64(rb.mad(x)).tobytes() == np.float64(_np_mad(x)).tobytes()
    assert np.asarray(rb.median(x)).tobytes() == np.asarray(np.median(x)).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    nan_share=st.sampled_from([0.0, 0.1]),
)
def test_row_medians_match_np_median(rows, cols, seed, nan_share):
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(rows, cols)), 1)
    x[rng.random(x.shape) < 0.3] *= -0.0
    x[rng.random(x.shape) < nan_share] = np.nan
    # The Hampel filter hands over column slices of a wider array.
    wide = np.concatenate((x, x), axis=1)[:, :cols]
    for a in (x, wide):
        assert rb.median(a).tobytes() == np.median(a, axis=1).tobytes()


def test_median_of_nothing_behaves_like_np_median():
    for empty in (np.array([]), np.empty((3, 0))):
        with pytest.warns(RuntimeWarning) as ours:
            got = rb.median(empty)
        with pytest.warns(RuntimeWarning) as theirs:
            want = np.median(empty, axis=-1)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert [w.category for w in ours] == [w.category for w in theirs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.isnan(rb.mad([])) and np.isnan(_np_mad([]))


# ------------------------------------------------------------- OPP ladder


def _per_sample_ladder(prior_freqs_mhz, f_mhz, volts, warned, what):
    groups = {}
    for f, v in zip(f_mhz, volts):
        groups.setdefault(round(float(f), 3), []).append(float(v))
    freqs = sorted(groups)
    medians = [float(np.median(groups[f])) for f in freqs]
    return _fit_ladder(prior_freqs_mhz, freqs, medians, warned, what)


def _ladder_outcome(fit, *args):
    warned = []
    try:
        result = fit(*args, warned, "domain 'x'")
    except CalibrationError as exc:
        result = str(exc)
    return repr(result), warned


_LADDERS = [
    [opp.freq_hz / 1e6 for opp in cluster.opps]
    for platform in map(registry.build, registry.platform_names())
    for cluster in (*platform.clusters, platform.gpu)
]


@settings(max_examples=300, deadline=None)
@given(
    prior=st.sampled_from(_LADDERS),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 400),
    # Offsets that round onto the OPP's own key (merging distinct
    # frequencies) and ones that do not.
    offsets=st.sampled_from([(0.0,), (0.0, 4e-4, -4e-4), (0.0, 6e-4, 1e-7)]),
    linear=st.booleans(),
)
def test_ladder_grouping_matches_the_per_sample_dict(prior, seed, size, offsets, linear):
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(prior), size=size)
    f_mhz = np.array(prior)[pick] + rng.choice(offsets, size=size)
    lo, hi = min(prior), max(prior)
    volts = 0.8 + 0.4 * (f_mhz - lo) / (hi - lo)
    if not linear:
        volts = volts + rng.choice([0.0, 0.02, -0.03], size=size)
    volts = np.round(volts + rng.normal(0.0, 2e-3, size=size), 3)
    assert _ladder_outcome(_fit_ladder_robust, prior, f_mhz, volts) == (
        _ladder_outcome(_per_sample_ladder, prior, f_mhz, volts)
    )
    assert _rounded_mhz(f_mhz)[0] == sorted({round(float(f), 3) for f in f_mhz})
