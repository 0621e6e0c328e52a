"""Dynamic + leakage power model."""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.soc.components import LeakageParams
from repro.soc.power_model import (
    ComponentActivity,
    SocPowerModel,
    dynamic_power_w,
    leakage_power_w,
)
from repro.soc.exynos5422 import odroid_xu3


@pytest.fixture(scope="module")
def model():
    platform = odroid_xu3()
    return platform.power_model(), platform


def test_dynamic_power_formula():
    # Ceff * V^2 * f * busy
    assert dynamic_power_w(1e-10, 1.0, 1e9, 2.0) == pytest.approx(0.2)


def test_dynamic_power_zero_when_idle():
    assert dynamic_power_w(1e-10, 1.2, 2e9, 0.0) == 0.0


def test_dynamic_power_negative_busy_rejected():
    with pytest.raises(SimulationError):
        dynamic_power_w(1e-10, 1.0, 1e9, -0.1)


def test_leakage_increases_with_temperature():
    params = LeakageParams(kappa_w_per_k2=1e-3, beta_k=1650.0)
    cold = leakage_power_w(params, 300.0, 1.0)
    hot = leakage_power_w(params, 360.0, 1.0)
    assert hot > cold


def test_leakage_matches_closed_form():
    params = LeakageParams(kappa_w_per_k2=2e-3, beta_k=1500.0, v_ref=1.0)
    t, v = 350.0, 1.2
    expected = 2e-3 * t * t * math.exp(-1500.0 / t) * 1.2
    assert leakage_power_w(params, t, v) == pytest.approx(expected)


def test_leakage_scales_with_voltage():
    params = LeakageParams(kappa_w_per_k2=1e-3, beta_k=1650.0)
    assert leakage_power_w(params, 330.0, 1.2) == pytest.approx(
        1.2 * leakage_power_w(params, 330.0, 1.0)
    )


def test_leakage_rejects_nonphysical_temperature():
    params = LeakageParams(kappa_w_per_k2=1e-3, beta_k=1650.0)
    with pytest.raises(SimulationError):
        leakage_power_w(params, -10.0, 1.0)


def test_cluster_power_monotone_in_frequency(model):
    pm, plat = model
    freqs = plat.big_cluster.opps.frequencies_hz()
    powers = [
        pm.cluster_power("a15", ComponentActivity(f, 2.0, 330.0)).total_w
        for f in freqs
    ]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_cluster_power_monotone_in_busy(model):
    pm, _ = model
    low = pm.cluster_power("a15", ComponentActivity(1e9, 1.0, 330.0)).total_w
    high = pm.cluster_power("a15", ComponentActivity(1e9, 3.0, 330.0)).total_w
    assert high > low


def test_cluster_power_off_is_zero(model):
    pm, _ = model
    sample = pm.cluster_power(
        "a15", ComponentActivity(1e9, 1.0, 330.0, powered=False)
    )
    assert sample.total_w == 0.0


def test_cluster_busy_cannot_exceed_cores(model):
    pm, _ = model
    with pytest.raises(SimulationError):
        pm.cluster_power("a15", ComponentActivity(1e9, 4.5, 330.0))


def test_unknown_cluster_rejected(model):
    pm, _ = model
    with pytest.raises(SimulationError):
        pm.cluster_power("a72", ComponentActivity(1e9, 1.0, 330.0))


def test_gpu_busy_cannot_exceed_one(model):
    pm, _ = model
    with pytest.raises(SimulationError):
        pm.gpu_power(ComponentActivity(600e6, 1.5, 330.0))


def test_memory_activity_bounds(model):
    pm, _ = model
    with pytest.raises(SimulationError):
        pm.memory_power(1.5, 330.0)
    assert pm.memory_power(0.0, 330.0).total_w > 0.0  # base power


def test_rail_powers_cover_all_rails(model):
    pm, plat = model
    activity = {
        c.name: ComponentActivity(c.opps.min_freq_hz, 0.0, 320.0)
        for c in plat.clusters
    }
    gpu_act = ComponentActivity(plat.gpu.opps.min_freq_hz, 0.0, 320.0)
    rails = pm.rail_powers(activity, gpu_act, 0.0, 320.0)
    assert set(rails) == {"a15", "a7", "gpu", "mem"}
    assert all(watts >= 0.0 for watts in rails.values())


def test_rail_powers_missing_cluster_activity(model):
    pm, plat = model
    gpu_act = ComponentActivity(plat.gpu.opps.min_freq_hz, 0.0, 320.0)
    with pytest.raises(SimulationError):
        pm.rail_powers({}, gpu_act, 0.0, 320.0)


def test_max_cluster_power_is_worst_case(model):
    pm, _ = model
    worst = pm.max_cluster_power_w("a15", 2e9, 340.0)
    partial = pm.cluster_power("a15", ComponentActivity(2e9, 2.0, 340.0)).total_w
    assert worst > partial


def test_power_model_requires_clusters():
    plat = odroid_xu3()
    with pytest.raises(ConfigurationError):
        SocPowerModel({}, plat.gpu, plat.memory)
