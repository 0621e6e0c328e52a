"""Sensor fault injection and governor robustness against it."""

import pytest

from repro.apps.mibench import basicmath_large
from repro.core.governor import ApplicationAwareGovernor, GovernorConfig
from repro.errors import ConfigurationError
from repro.faults.sensors import DroppingSensor, SpikySensor, StuckSensor
from repro.kernel.kernel import KernelConfig
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry
from repro.soc.exynos5422 import odroid_xu3
from repro.thermal.model import ThermalModel
from repro.thermal.sensors import SensorSpec, TemperatureSensor
from repro.thermal.rc_network import (
    AMBIENT,
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)
from repro.units import celsius_to_kelvin


@pytest.fixture()
def sensor():
    spec = ThermalNetworkSpec(
        nodes=(ThermalNodeSpec("chip", 1.0),),
        links=(ThermalLinkSpec("chip", AMBIENT, 0.5),),
        power_split={"cpu": {"chip": 1.0}},
    )
    model = ThermalModel(spec, 0.01, ambient_k=celsius_to_kelvin(40.0))
    inner = TemperatureSensor(
        SensorSpec("tmu", node="chip", noise_std_c=0.0, quantization_c=0.0),
        model,
        RngRegistry(0).stream("s"),
    )
    return inner, model


def test_stuck_sensor_freezes(sensor):
    inner, model = sensor
    stuck = StuckSensor(inner)
    assert stuck.read_c() == pytest.approx(40.0)
    stuck.trigger()
    model.set_state({"chip": celsius_to_kelvin(80.0)})
    assert stuck.read_c() == pytest.approx(40.0)
    assert stuck.stuck
    stuck.clear()
    assert stuck.read_c() == pytest.approx(80.0)


def test_spiky_sensor_statistics(sensor):
    inner, _ = sensor
    spiky = SpikySensor(
        inner, RngRegistry(1).stream("f"), spike_probability=0.3,
        spike_magnitude_c=20.0,
    )
    readings = [spiky.read_c() for _ in range(1000)]
    assert spiky.spikes_emitted == pytest.approx(300, abs=60)
    assert max(readings) == pytest.approx(60.0)
    assert min(readings) == pytest.approx(40.0)


def test_dropping_sensor_repeats_last_good(sensor):
    inner, model = sensor
    dropping = DroppingSensor(
        inner, RngRegistry(1).stream("f"), drop_probability=1.0
    )
    first = dropping.read_c()
    model.set_state({"chip": celsius_to_kelvin(90.0)})
    # With p=1 every later read repeats the first good sample.
    assert dropping.read_c() == first
    assert dropping.drops == 1


def test_wrapper_exposes_identity(sensor):
    inner, _ = sensor
    stuck = StuckSensor(inner)
    assert stuck.name == "tmu"
    assert stuck.node == "chip"
    assert stuck.read_millicelsius() == 40000


def test_fault_validation(sensor):
    inner, _ = sensor
    rng = RngRegistry(0).stream("f")
    with pytest.raises(ConfigurationError):
        SpikySensor(inner, rng, spike_probability=1.5)
    with pytest.raises(ConfigurationError):
        SpikySensor(inner, rng, spike_magnitude_c=-1.0)
    with pytest.raises(ConfigurationError):
        DroppingSensor(inner, rng, drop_probability=-0.1)


def test_governor_survives_spiky_sensor():
    """Spikes cause at worst premature migrations — never crashes, and the
    foreground registry is still honoured."""
    bml = basicmath_large()
    sim = Simulation(odroid_xu3(), [bml], kernel_config=KernelConfig(), seed=1)
    # Wrap the governed sensor with a spiky fault.
    zone = sim.kernel.zones["soc_big"]
    zone.sensor = SpikySensor(
        zone.sensor, sim.rng.stream("fault"), spike_probability=0.05,
        spike_magnitude_c=30.0,
    )
    governor = ApplicationAwareGovernor.for_simulation(
        sim, GovernorConfig(t_limit_c=75.0, horizon_s=60.0)
    )
    # Point the governor's temperature reads at the faulty zone too.
    governor.install(sim.kernel)
    sim.run(30.0)
    assert len(governor.predictions) > 200  # kept running throughout


def test_governor_with_stuck_cold_sensor_underreacts():
    """A sensor stuck cold blinds the governor's *measured* temperature but
    the power-based fixed-point prediction still flags the violation — the
    analysis-side redundancy the paper's approach provides."""
    bml = basicmath_large()
    sim = Simulation(odroid_xu3(), [bml], kernel_config=KernelConfig(), seed=1)
    zone = sim.kernel.zones["soc_big"]
    stuck = StuckSensor(zone.sensor)
    zone.sensor = stuck
    governor = ApplicationAwareGovernor.for_simulation(
        sim, GovernorConfig(t_limit_c=60.0, horizon_s=300.0)
    )
    governor.install(sim.kernel)
    sim.run(1.0)
    stuck.trigger()  # freeze near the cold start
    sim.run(20.0)
    hot_predictions = [
        p for p in governor.predictions
        if p.stable_temp_c is not None and p.stable_temp_c > 60.0
    ]
    assert hot_predictions, "power-based prediction should still see trouble"
