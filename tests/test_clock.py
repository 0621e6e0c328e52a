"""Clock and PeriodicTimer behaviour."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.clock import Clock, PeriodicTimer


def test_clock_starts_at_zero():
    clock = Clock(0.01)
    assert clock.now == 0.0
    assert clock.tick == 0


def test_clock_advances_by_dt():
    clock = Clock(0.01)
    clock.advance()
    assert clock.now == pytest.approx(0.01)
    for _ in range(99):
        clock.advance()
    assert clock.now == pytest.approx(1.0)


def test_clock_time_has_no_drift():
    clock = Clock(0.01)
    for _ in range(100_000):
        clock.advance()
    assert clock.now == pytest.approx(1000.0, abs=1e-6)


def test_clock_rejects_nonpositive_dt():
    with pytest.raises(ConfigurationError):
        Clock(0.0)
    with pytest.raises(ConfigurationError):
        Clock(-0.1)


def test_timer_fires_once_per_period():
    clock = Clock(0.01)
    timer = PeriodicTimer(clock, 0.1)
    fires = 0
    for _ in range(100):
        if timer.poll():
            fires += 1
        clock.advance()
    assert fires == 10


def test_timer_fires_immediately_at_phase_zero():
    clock = Clock(0.01)
    timer = PeriodicTimer(clock, 0.1)
    assert timer.poll() is True
    assert timer.poll() is False


def test_timer_with_phase_delays_first_fire():
    clock = Clock(0.01)
    timer = PeriodicTimer(clock, 0.1, phase=0.05)
    fired_at = []
    for _ in range(20):
        if timer.poll():
            fired_at.append(clock.now)
        clock.advance()
    assert fired_at[0] == pytest.approx(0.05)


def test_timer_period_not_multiple_of_dt():
    clock = Clock(0.01)
    timer = PeriodicTimer(clock, 0.025)
    fires = 0
    for _ in range(100):  # 1 second
        if timer.poll():
            fires += 1
        clock.advance()
    assert fires == pytest.approx(40, abs=1)


def test_timer_does_not_burst_after_gap():
    clock = Clock(0.01)
    timer = PeriodicTimer(clock, 0.05)
    timer.poll()
    for _ in range(50):  # skip 0.5 s without polling
        clock.advance()
    assert timer.poll() is True
    assert timer.poll() is False  # catches up without a burst


def test_timer_rejects_bad_parameters():
    clock = Clock(0.01)
    with pytest.raises(ConfigurationError):
        PeriodicTimer(clock, 0.0)
    with pytest.raises(ConfigurationError):
        PeriodicTimer(clock, 0.1, phase=-1.0)


def test_timer_reset_rearms_one_period_out():
    clock = Clock(0.01)
    timer = PeriodicTimer(clock, 0.1)
    timer.poll()
    timer.reset()
    assert timer.next_deadline == pytest.approx(clock.now + 0.1)


def test_timer_reset_into_past_rejected():
    clock = Clock(0.01)
    for _ in range(10):
        clock.advance()
    timer = PeriodicTimer(clock, 0.1)
    with pytest.raises(SimulationError):
        timer.reset(phase=0.01)


def test_ticks_for_duration_is_float_dust_proof():
    from repro.sim.clock import ticks_for_duration

    # A million 0.1 ms steps: the naive end-time comparison loses ticks
    # to accumulated float error; the counted loop must not.
    assert ticks_for_duration(100.0, 1e-4) == 10**6
    # Chunked scheduling sums to exactly the one-shot count, whatever the
    # chunk size — the invariant Simulation.run relies on for
    # continuation runs.
    for chunk, n in ((0.1, 1000), (0.25, 400), (1.0, 100)):
        assert sum(ticks_for_duration(chunk, 1e-4) for _ in range(n)) == 10**6
    # Representative awkward dt: 0.01 is not a binary float, so repeated
    # addition drifts, but the tick count never does.
    assert ticks_for_duration(10.0, 0.01) == 1000
    assert sum(ticks_for_duration(0.07, 0.01) for _ in range(1000)) == 7000
