"""The eigendecomposition ZOH against SciPy's matrix exponential.

``ThermalModel`` discretises through one symmetric eigendecomposition (see
``repro.thermal.model``).  Here SciPy's ``expm`` is the independent oracle;
it is imported inside each test, because the simulation path itself must
never load SciPy (``tests/test_cold_start.py``).

Oracles:

* ``Ad`` against ``expm(A·dt)``;
* ``Bd`` and ``Wd`` against the block exponential
  ``expm([[A, B, w], [0, 0, 0]]·dt)``, whose top-right blocks are exactly
  ``∫₀^dt e^{As} ds · [B, w]`` (Van Loan);
* on the registered platforms also against the textbook ZOH formula
  ``A⁻¹(expm(A·dt) − I)·[B, w]``;
* ``A⁻¹`` (through ``steady_state_k``) against ``numpy.linalg.solve`` and
  the slowest pole against ``numpy.linalg.eigvals``.

The oracle is not exact either.  SciPy's ``expm`` scales ``M = A·dt`` down
by ``2^s`` into the range of its degree-13 Padé approximant and squares
the result ``s`` times.  On networks of nearly equal nodes, where
``e^{A·dt}`` is close to rank one and far below 1, that loses accuracy:
on two 0.01 J/K nodes linked by 0.1 W/K and each tied to ambient by
1 W/K, at dt = 1 s (``Ad`` ≈ 1.9e-44), SciPy is 2.4e-12 off a 40-digit
reference while the eigen ZOH is 1.4e-14 off.  :func:`_expm_rtol` states
that error, so the tolerance on ``Ad`` covers both sides without raising
``RTOL``.  ``Bd`` and ``Wd`` keep the bound without it: over 10,000 draws
of :func:`networks` and a grid of chains of equal nodes, SciPy's block
exponential stayed within 6 % of that bound.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.soc import registry
from repro.thermal.model import ThermalModel
from repro.thermal.rc_network import (
    AMBIENT,
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)

#: Agreement asked of a well-conditioned network: a few hundred ulps of
#: the largest entry, far above the ~1e-15 either method reaches.
RTOL = 1e-12

EPS = np.finfo(float).eps


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def networks(draw):
    """Chains and meshes, capacitances over four decades, 1-2 rails."""
    n = draw(st.integers(1, 6))
    nodes = tuple(
        ThermalNodeSpec(f"n{i}", draw(_log_uniform(-2.0, 2.0))) for i in range(n)
    )
    conductance = _log_uniform(-2.0, 1.0)
    mesh = draw(st.booleans())
    links = []
    for i in range(1, n):
        # A chain links each node to its predecessor; a mesh to any
        # earlier node (a spanning tree), closed into loops by chords.
        j = draw(st.integers(0, i - 1)) if mesh else i - 1
        links.append(ThermalLinkSpec(f"n{j}", f"n{i}", draw(conductance)))
    if mesh and n > 2:
        for _ in range(draw(st.integers(0, n))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            links.append(ThermalLinkSpec(f"n{i}", f"n{j}", draw(conductance)))
    for i in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))):
        links.append(ThermalLinkSpec(f"n{i}", AMBIENT, draw(conductance)))
    split = {"p": {"n0": 1.0}}
    if n > 1:
        split["q"] = {"n0": 0.25, f"n{n - 1}": 0.75}
    return ThermalNetworkSpec(nodes=nodes, links=tuple(links), power_split=split)


def _continuous(spec, ambient_scale=1.0):
    """``(A, B, w)`` with every ambient link scaled, built independently
    of the model's own rebuild."""
    cap, conduct, to_ambient, split = spec.conductance_form()
    conduct = conduct + np.diag(to_ambient * (ambient_scale - 1.0))
    return -conduct / cap[:, None], split / cap[:, None], to_ambient * ambient_scale / cap


def _zoh_oracle(a_mat, b_mat, w_vec, dt):
    """``(Ad, Bd, Wd)`` by SciPy: ``expm`` and the Van Loan block form."""
    from scipy.linalg import expm

    n, m = b_mat.shape
    block = np.zeros((n + m + 1, n + m + 1))
    block[:n, :n] = a_mat
    block[:n, n:n + m] = b_mat
    block[:n, -1] = w_vec
    exp_block = expm(block * dt)
    return expm(a_mat * dt), exp_block[:n, n:n + m], exp_block[:n, -1]


#: Largest 1-norm SciPy's degree-13 Padé approximant takes unscaled.
THETA_13 = 5.371920351148152


def _expm_rtol(m_mat) -> float:
    """Relative error of SciPy's ``expm(M)`` from scaling and squaring:
    ``32·n·2^s·e^{‖M/2^s‖₁}·eps``, and 0 where ``s = 0``.

    ``s`` is the number of squarings, the least with ``‖M/2^s‖₁`` below
    :data:`THETA_13`.  The alternating Padé numerator at ``X = M/2^s``
    cancels to about ``e^{‖X‖₁}·eps`` relatively and every squaring
    doubles what the base got wrong.  Against 40-digit ``mpmath``
    references on these networks and on chains of equal nodes the
    measured error reached 16 times the bound without the factor 32.

    This is slack on top of ``RTOL``.  It is 1.9e-11 on
    :data:`NEAR_RANK_ONE` (``‖A·dt‖₁`` = 120, ``s`` = 5) and grows with
    ``2^s``: about 5e-10 on six nodes at ``‖A·dt‖₁`` ≈ 1e3, and 1.1e-6 at
    the stiffest corner of :func:`networks` (six 0.01 J/K nodes, eleven
    10 W/K links at one node, dt = 30 s: ``‖A·dt‖₁`` ≈ 6.9e5, ``s`` =
    17).  Draws with ``‖A·dt‖₁`` up to :data:`THETA_13` get none.
    """
    norm = float(np.abs(m_mat).sum(axis=0).max())
    if norm <= THETA_13:
        return 0.0
    s = math.ceil(math.log2(norm / THETA_13))
    return 32 * len(m_mat) * 2.0**s * math.exp(norm / 2.0**s) * EPS


def _assert_close(new, ref, rtol, what):
    # 1e-300 only matters where e^{A·dt} underflows altogether.
    err = float(np.abs(new - ref).max())
    scale = float(np.abs(ref).max())
    assert err <= rtol * scale + 1e-300, f"{what}: {err:.3g} vs scale {scale:.3g}"


#: The network on which SciPy's ``expm`` misses by 2.4e-12 (module doc).
NEAR_RANK_ONE = ThermalNetworkSpec(
    nodes=(ThermalNodeSpec("n0", 0.01), ThermalNodeSpec("n1", 0.01)),
    links=(
        ThermalLinkSpec("n0", "n1", 0.1),
        ThermalLinkSpec("n0", AMBIENT, 1.0),
        ThermalLinkSpec("n1", AMBIENT, 1.0),
    ),
    power_split={"p": {"n0": 1.0}, "q": {"n0": 0.25, "n1": 0.75}},
)


@given(spec=networks(), dt=_log_uniform(-3.0, math.log10(30.0)))
@example(spec=NEAR_RANK_ONE, dt=1.0)
@settings(max_examples=150, deadline=None)
def test_eigen_zoh_matches_expm(spec, dt):
    model = ThermalModel(spec, dt, ambient_k=300.0)
    a_mat, b_mat, w_vec = _continuous(spec)
    ad, bd, wd = _zoh_oracle(a_mat, b_mat, w_vec, dt)
    poles = np.linalg.eigvals(a_mat).real
    # eigh's eigenvalues carry an absolute error of about n·eps·max|λ|, so
    # whatever weights the slowest pole (A⁻¹; Bd and Wd at long dt) can be
    # off by about n·eps·κ relatively, κ = max|λ| / min|λ|.  The draws
    # reach κ ~ 1e7, where that term, not RTOL, is the honest bound.
    kappa = float(np.abs(poles).max() / np.abs(poles).min())
    rtol = RTOL + 8 * len(poles) * EPS * kappa
    # SciPy's own error on Ad adds to it (module doc).
    _assert_close(model._ad, ad, rtol + _expm_rtol(a_mat * dt), "Ad")
    _assert_close(model._bd, bd, rtol, "Bd")
    _assert_close(model._wd, wd, rtol, "Wd")

    powers = {rail: 1.0 + r for r, rail in enumerate(spec.rail_names)}
    p = np.array([powers[rail] for rail in spec.rail_names])
    steady = np.linalg.solve(a_mat, -(b_mat @ p + w_vec * 300.0))
    got = model.steady_state_k(powers)
    _assert_close(np.array([got[n] for n in spec.node_names]), steady, rtol,
                  "steady state")
    assert model.dominant_time_constant_s() == pytest.approx(
        -1.0 / poles.max(), rel=rtol
    )


@pytest.mark.parametrize("scale", [1.0, 0.2])
@pytest.mark.parametrize("platform_name", registry.platform_names())
def test_every_platform_matches_expm(platform_name, scale):
    """The engine's 10 ms step on every registered network, as built and
    with the fan stopped (ambient links at 20 %)."""
    spec = registry.build(platform_name).thermal
    dt = 0.01
    model = ThermalModel(spec, dt)
    if scale != 1.0:
        model.set_ambient_conductance_scale(scale)
    a_mat, b_mat, w_vec = _continuous(spec, scale)
    ad, bd, wd = _zoh_oracle(a_mat, b_mat, w_vec, dt)
    _assert_close(model._ad, ad, RTOL, "Ad")
    _assert_close(model._bd, bd, RTOL, "Bd")
    _assert_close(model._wd, wd, RTOL, "Wd")
    # The textbook ZOH formula.  Its Ad - I cancels: the result
    # is only good to about n·eps / (|λ_slowest|·dt) relatively, up to
    # 6.5e-11 here with the fan stopped, so that is its bound, not RTOL.
    slowest = float(np.linalg.eigvals(a_mat).real.max())
    rtol_old = RTOL + len(ad) * EPS / (abs(slowest) * dt)
    gain = np.linalg.inv(a_mat) @ (ad - np.eye(len(ad)))
    _assert_close(model._bd, gain @ b_mat, rtol_old, "Bd (A⁻¹(Ad - I)B)")
    _assert_close(model._wd, gain @ w_vec, rtol_old, "Wd (A⁻¹(Ad - I)w)")
    dc = -np.linalg.inv(a_mat) @ b_mat
    for r, rail in enumerate(spec.rail_names):
        for i, node in enumerate(spec.node_names):
            assert model.dc_gain(node, rail) == pytest.approx(dc[i, r], rel=RTOL)
