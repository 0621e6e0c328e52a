"""Properties of the exact (ZOH) thermal integrator against an Euler reference.

Three pillars (hypothesis-driven where the space is continuous):

* the exact integrator reproduces the closed-form single-node solution at
  any step size;
* it preserves the self-consistent thermal fixed points of
  :mod:`repro.core.stability` — sitting exactly on a fixed point and
  stepping goes nowhere;
* a forward-Euler stepper, defined here as the independent reference,
  converges to the exact one at first order as dt -> 0, and at the
  engine's 10 ms step the two stay within 0.05 degC on every registered
  platform's stock scenario.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fixed_point import critical_power_w, steady_state_temp_k
from repro.core.stability import ODROID_XU3_LUMPED
from repro.errors import ConfigurationError
from repro.thermal.model import ThermalModel
from repro.thermal.rc_network import (
    AMBIENT,
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)


class EulerThermalModel(ThermalModel):
    """Forward-Euler reference: ``Ad = I + A·dt``, ``Bd = B·dt``, ``Wd = w·dt``.

    First-order accurate, and computed from ``(A, B, w)`` alone, so it
    shares no arithmetic with the eigendecomposition it is checked against.
    """

    def _configure(self, spec):
        super()._configure(spec)
        a_mat, b_mat, w_vec = spec.build_matrices()
        self._ad = np.eye(len(a_mat)) + a_mat * self.dt_s
        self._bd = b_mat * self.dt_s
        self._wd = w_vec * self.dt_s


def _single_node(cap_j_per_k: float, cond_w_per_k: float) -> ThermalNetworkSpec:
    return ThermalNetworkSpec(
        nodes=(ThermalNodeSpec("n0", cap_j_per_k),),
        links=(ThermalLinkSpec("n0", AMBIENT, cond_w_per_k),),
        power_split={"p": {"n0": 1.0}},
    )


@st.composite
def chains(draw):
    """A random chain network: node0 - node1 - ... - ambient."""
    n = draw(st.integers(1, 4))
    caps = [draw(st.floats(0.2, 20.0)) for _ in range(n)]
    conds = [draw(st.floats(0.05, 5.0)) for _ in range(n)]
    nodes = tuple(ThermalNodeSpec(f"n{i}", caps[i]) for i in range(n))
    links = [
        ThermalLinkSpec(f"n{i}", f"n{i + 1}", conds[i]) for i in range(n - 1)
    ]
    links.append(ThermalLinkSpec(f"n{n - 1}", AMBIENT, conds[-1]))
    return ThermalNetworkSpec(
        nodes=nodes, links=tuple(links), power_split={"p": {"n0": 1.0}}
    )


# ------------------------------------------------------------ exactness


@given(
    cap=st.floats(0.2, 20.0),
    cond=st.floats(0.05, 5.0),
    power=st.floats(0.0, 10.0),
    dt=st.floats(0.001, 30.0),
    steps=st.integers(1, 50),
)
@settings(max_examples=80, deadline=None)
def test_zoh_matches_closed_form_single_node(cap, cond, power, dt, steps):
    """One RC node has T(t) = T_ss + (T0 - T_ss) e^{-t/RC} exactly —
    the ZOH discretisation must land on it at ANY step size."""
    ambient = 300.0
    model = ThermalModel(_single_node(cap, cond), dt, ambient_k=ambient)
    for _ in range(steps):
        model.step({"p": power})
    t_ss = ambient + power / cond
    expected = t_ss + (ambient - t_ss) * math.exp(-cond * dt * steps / cap)
    assert model.temperature_k("n0") == pytest.approx(expected, abs=1e-8)


@given(power=st.floats(0.0, 10.0), dt=st.floats(0.001, 10.0))
@settings(max_examples=60, deadline=None)
def test_zoh_steady_state_is_step_invariant(power, dt):
    """Seeding the linear steady state and stepping must stay put."""
    model = ThermalModel(_single_node(3.0, 0.5), dt, ambient_k=300.0)
    ss = model.steady_state_k({"p": power})
    model.set_state(ss)
    for _ in range(5):
        model.step({"p": power})
    assert model.temperature_k("n0") == pytest.approx(ss["n0"], abs=1e-9)


@given(p_dyn=st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_zoh_preserves_lumped_fixed_point(p_dyn):
    """The stable fixed point of the paper's lumped analysis (dynamic power
    plus self-consistent leakage) is a genuine rest point of the stepper."""
    params = ODROID_XU3_LUMPED
    assert p_dyn < critical_power_w(params)
    t_fp = steady_state_temp_k(params, p_dyn)
    spec = _single_node(params.c_j_per_k, 1.0 / params.r_k_per_w)
    model = ThermalModel(spec, 0.01, ambient_k=params.t_ambient_k)
    model.set_state({"n0": t_fp})
    # The engine's explicit leakage coupling: power re-evaluated per step
    # at the current temperature, which at the fixed point never moves.
    for _ in range(200):
        power = p_dyn + params.leakage_w(model.temperature_k("n0"))
        model.step({"p": power})
    assert model.temperature_k("n0") == pytest.approx(t_fp, abs=1e-6)


# ---------------------------------------------------------- convergence


@given(spec=chains(), power=st.floats(0.1, 10.0))
# tau = C/G = 0.125 s: both end-of-horizon errors decay to float dust by
# t = 2 s, so only the worst error along the trajectory shows the order.
@example(spec=_single_node(0.5, 4.0), power=4.0)
@settings(max_examples=40, deadline=None)
def test_euler_converges_to_zoh(spec, power):
    """Halving dt must (at least) halve Euler's worst error against the
    exact integrator over a fixed horizon — first-order convergence."""
    horizon = 2.0

    def euler_error(dt):
        exact = ThermalModel(spec, dt, ambient_k=300.0)
        euler = EulerThermalModel(spec, dt, ambient_k=300.0)
        worst = 0.0
        for _ in range(round(horizon / dt)):
            exact.step({"p": power})
            euler.step({"p": power})
            worst = max(worst, max(
                abs(euler.temperature_k(n) - exact.temperature_k(n))
                for n in exact.node_names
            ))
        return worst

    coarse = euler_error(0.01)
    fine = euler_error(0.005)
    # First-order: the ratio tends to 0.5 from above as dt -> 0; the 0.55
    # ceiling leaves room for the O(dt^2) correction terms.
    assert fine <= 0.55 * coarse + 1e-9


def test_non_hurwitz_network_rejected_for_both_integrators():
    # A node with no path to ambient makes A singular (eigenvalue at 0),
    # which the Hurwitz check at build time must refuse.
    spec = ThermalNetworkSpec(
        nodes=(ThermalNodeSpec("n0", 1.0), ThermalNodeSpec("n1", 1.0)),
        links=(ThermalLinkSpec("n0", AMBIENT, 1.0),),
        power_split={"p": {"n0": 1.0}},
    )
    for stepper in (ThermalModel, EulerThermalModel):
        with pytest.raises(ConfigurationError):
            stepper(spec, 0.01)


# ------------------------------------------------- whole-platform accuracy


@pytest.mark.parametrize("platform_name", ["odroid-xu3", "pixel-xl", "nexus6p"])
def test_euler_within_tolerance_on_stock_scenario(platform_name, monkeypatch):
    """At the engine's 10 ms step the reference stepper tracks the exact
    one within 0.05 degC through a full stock scenario (governors, zones
    and leakage feedback included)."""
    import repro.sim.engine as engine
    from repro.kernel.kernel import KernelConfig
    from repro.sim.experiment import AppSpec
    from repro.soc import registry

    thermal = registry.get(platform_name).stock_thermal_config()
    traces = {}
    for stepper in (ThermalModel, EulerThermalModel):
        monkeypatch.setattr(engine, "ThermalModel", stepper)
        sim = engine.Simulation(
            registry.build(platform_name), [AppSpec.batch("bml").build()],
            kernel_config=KernelConfig(thermal=thermal), seed=3,
        )
        assert type(sim.thermal) is stepper
        sim.run(10.0)
        traces[stepper] = sim.traces.series("temp.max")[1]
    worst = float(np.max(np.abs(traces[ThermalModel] - traces[EulerThermalModel])))
    assert worst < 0.05, f"{platform_name}: integrators diverge by {worst:.4f} degC"
