"""Intelligent Power Allocation (power_allocator) governor."""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.kernel.thermal.cooling import DvfsCoolingDevice
from repro.kernel.thermal.ipa import PowerActor, PowerAllocatorGovernor
from repro.kernel.thermal.zone import ThermalZone
from repro.sim.rng import RngRegistry
from repro.soc.opp import OppTable
from repro.thermal.model import ThermalModel
from repro.thermal.rc_network import (
    AMBIENT,
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)
from repro.thermal.sensors import SensorSpec, TemperatureSensor
from repro.units import celsius_to_kelvin


def make_fixture(temp_c=60.0, requests=(2.0, 1.0)):
    spec = ThermalNetworkSpec(
        nodes=(ThermalNodeSpec("chip", 1.0),),
        links=(ThermalLinkSpec("chip", AMBIENT, 0.5),),
        power_split={"cpu": {"chip": 1.0}},
    )
    model = ThermalModel(spec, 0.01, ambient_k=celsius_to_kelvin(temp_c))
    sensor = TemperatureSensor(
        SensorSpec("tmu", node="chip", noise_std_c=0.0, quantization_c=0.0),
        model,
        RngRegistry(0).stream("s"),
    )
    opps = OppTable.from_pairs(
        [(200e6, 0.9), (400e6, 0.95), (800e6, 1.05), (1600e6, 1.25)]
    )
    actors = []
    devices = []
    for i, req in enumerate(requests):
        policy = DvfsPolicy(f"d{i}", opps, initial_freq_hz=1600e6)
        device = DvfsCoolingDevice(f"cdev{i}", policy)
        devices.append(device)
        # Linear power table: watts proportional to frequency, peak = req*2.
        actors.append(
            PowerActor(
                device=device,
                max_power_w=lambda f, peak=req * 2.0: peak * f / 1600e6,
                requested_power_w=lambda req=req: req,
            )
        )
    governor = PowerAllocatorGovernor(
        actors,
        sustainable_power_w=2.0,
        switch_on_temp_c=50.0,
        control_temp_c=70.0,
    )
    zone = ThermalZone("tmu", sensor, governor=governor, bindings=devices)
    return zone, governor, devices, model


def test_validation():
    zone, gov, devices, _ = make_fixture()
    with pytest.raises(ConfigurationError):
        PowerAllocatorGovernor([], 2.0, 50.0, 70.0)
    with pytest.raises(ConfigurationError):
        PowerAllocatorGovernor(gov.actors, 2.0, 70.0, 50.0)
    with pytest.raises(ConfigurationError):
        PowerAllocatorGovernor(gov.actors, -1.0, 50.0, 70.0)


def test_below_switch_on_no_throttle():
    zone, _, devices, model = make_fixture(temp_c=40.0)
    for d in devices:
        d.set_state(2)
    zone.poll(0.0)
    assert all(d.cur_state == 0 for d in devices)


def test_at_control_temp_budget_equals_sustainable():
    zone, gov, _, _ = make_fixture(temp_c=70.0)
    assert gov._budget_w(70.0, 0.0) == pytest.approx(2.0, abs=1e-6)


def test_budget_grows_below_control():
    zone, gov, _, _ = make_fixture()
    assert gov._budget_w(60.0, 0.0) > gov._budget_w(69.0, 0.1)


def test_budget_shrinks_above_control():
    zone, gov, _, _ = make_fixture()
    assert gov._budget_w(75.0, 0.0) < 2.0


def test_budget_never_negative():
    zone, gov, _, _ = make_fixture()
    assert gov._budget_w(200.0, 0.0) == 0.0


def test_allocation_proportional_to_requests():
    zone, gov, _, _ = make_fixture(requests=(3.0, 1.0))
    grants = gov._allocate(2.0, gov.power_tables())
    assert grants[0] == pytest.approx(1.5)
    assert grants[1] == pytest.approx(0.5)


def test_allocation_redistributes_surplus():
    # Actor 0 is capped at its ceiling; the surplus flows to actor 1.
    zone, gov, _, _ = make_fixture(requests=(10.0, 1.0))
    ceilings = [a.max_power_w(1600e6) for a in gov.actors]
    grants = gov._allocate(sum(ceilings) + 5.0, gov.power_tables())
    assert grants[0] == pytest.approx(ceilings[0])
    assert grants[1] <= ceilings[1] + 1e-9


def test_throttles_when_hot():
    zone, _, devices, model = make_fixture(temp_c=80.0)
    zone.poll(0.0)
    assert any(d.cur_state > 0 for d in devices)


def test_no_throttle_when_budget_ample():
    zone, _, devices, _ = make_fixture(temp_c=55.0, requests=(0.5, 0.2))
    zone.poll(0.0)
    assert all(d.cur_state == 0 for d in devices)


def test_integral_antiwindup_bounded():
    zone, gov, _, _ = make_fixture()
    for i in range(1000):
        gov._budget_w(71.0, i * 0.1)  # persistent small error
    bound = gov.sustainable_power_w / gov.k_i
    assert abs(gov._integral) <= bound + 1e-9


def test_reset_clears_state():
    zone, gov, _, _ = make_fixture()
    gov._budget_w(71.0, 0.0)
    gov._budget_w(71.0, 1.0)
    gov.reset()
    assert gov._integral == 0.0
