"""Cooling devices."""

import pytest

from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.kernel.thermal.cooling import DvfsCoolingDevice
from repro.soc.opp import OppTable


@pytest.fixture()
def device():
    opps = OppTable.from_pairs(
        [(200e6, 0.9), (400e6, 0.95), (800e6, 1.05), (1600e6, 1.25)]
    )
    policy = DvfsPolicy("cpu", opps, initial_freq_hz=1600e6)
    return DvfsCoolingDevice("cdev", policy)


def test_max_state_is_table_size_minus_one(device):
    assert device.max_state == 3


def test_state_zero_is_unthrottled(device):
    assert device.cur_state == 0
    assert device.cap_hz() == 1600e6


def test_each_state_removes_one_opp(device):
    device.set_state(1)
    assert device.cap_hz() == 800e6
    device.set_state(3)
    assert device.cap_hz() == 200e6


def test_state_clamped(device):
    device.set_state(99)
    assert device.cur_state == 3
    device.set_state(-5)
    assert device.cur_state == 0


def test_applying_state_caps_policy(device):
    device.set_state(2)
    assert device.policy.effective_max_hz == 400e6
    assert device.policy.cur_freq_hz <= 400e6


def test_state_for_cap(device):
    assert device.state_for_cap(1600e6) == 0
    assert device.state_for_cap(800e6) == 1
    assert device.state_for_cap(500e6) == 2  # floor -> 400 MHz
    assert device.state_for_cap(1e6) == 3


def test_state_for_power(device):
    # Monotone fake power table: watts = GHz.
    powers = [f / 1e9 for f in device.policy.opps.frequencies_hz()]
    assert device.state_for_power(2.0, powers) == 0
    assert device.state_for_power(1.0, powers) == 1
    assert device.state_for_power(0.3, powers) == 3
    assert device.state_for_power(0.0, powers) == 3  # lowest always allowed
