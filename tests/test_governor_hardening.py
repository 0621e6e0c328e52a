"""Hardened governor: watchdog, bounded retry and failsafe hysteresis."""

import pytest

from repro.apps.mibench import basicmath_large
from repro.core.governor import ApplicationAwareGovernor, GovernorConfig
from repro.errors import SysfsError
from repro.faults.sensors import StuckSensor
from repro.kernel.kernel import KernelConfig
from repro.sim.engine import Simulation
from repro.soc.exynos5422 import odroid_xu3


def make_governed_sim(config):
    sim = Simulation(
        odroid_xu3(), [basicmath_large()],
        kernel_config=KernelConfig(), seed=1,
    )
    governor = ApplicationAwareGovernor.for_simulation(sim, config)
    governor.install(sim.kernel)
    return sim, governor


def stick_sensor(sim):
    zone = sim.kernel.zones["soc_big"]
    stuck = StuckSensor(zone.sensor)
    zone.sensor = stuck
    stuck.trigger()
    return zone, stuck


def test_stuck_sensor_detected_within_one_staleness_window():
    config = GovernorConfig(t_limit_c=75.0, horizon_s=60.0,
                            sensor_staleness_s=1.0)
    sim, governor = make_governed_sim(config)
    sim.run(2.0)
    assert not [d for d in governor.detections if d.kind == "stale"]
    stick_sensor(sim)
    frozen_at = sim.clock.now
    sim.run(config.sensor_staleness_s + 3 * config.period_s)
    stale = [d for d in governor.detections if d.kind == "stale"]
    assert stale, "frozen sensor never flagged"
    deadline = frozen_at + config.sensor_staleness_s + 2 * config.period_s
    assert stale[0].time_s <= deadline + 1e-9
    # The held value, not the frozen raw, keeps feeding the analysis.
    assert governor.predictions[-1].time_s > frozen_at


def test_eio_gives_up_after_configured_attempts():
    config = GovernorConfig(t_limit_c=75.0, horizon_s=60.0,
                            eio_retries=2, eio_backoff_s=30.0)
    sim, governor = make_governed_sim(config)
    sim.run(1.0)
    held_before = governor._last_good_temp_c
    assert held_before is not None
    reads = []

    def hook(path):
        if path == governor._temp_path:
            reads.append(path)
            raise SysfsError(f"[Errno 5] I/O error: {path}")

    remove = sim.kernel.fs.add_read_fault(hook)
    try:
        sim.run(1.0)
    finally:
        remove()
    # One failing period: initial read + eio_retries more, then the huge
    # backoff suppresses further attempts for the rest of the run.
    assert len(reads) == config.eio_retries + 1
    eio = [d for d in governor.detections if d.kind == "eio"]
    assert eio and f"after {config.eio_retries + 1} attempts" in eio[0].detail
    assert governor._last_good_temp_c == held_before  # held, not poisoned


def test_brief_fault_does_not_trip_failsafe():
    config = GovernorConfig(t_limit_c=75.0, horizon_s=60.0,
                            failsafe_after_s=2.0)
    sim, governor = make_governed_sim(config)
    sim.run(1.0)
    zone, stuck = stick_sensor(sim)
    sim.run(1.0)  # shorter than failsafe_after_s
    stuck.clear()
    zone.sensor = stuck.inner
    sim.run(3.0)
    assert governor.failsafe_events == []
    assert governor.failsafe_s == 0.0


def test_failsafe_entry_and_exit_are_hysteretic():
    config = GovernorConfig(t_limit_c=75.0, horizon_s=60.0,
                            failsafe_after_s=1.0, failsafe_exit_s=2.0)
    sim, governor = make_governed_sim(config)
    sim.run(1.0)
    zone, stuck = stick_sensor(sim)
    # Staleness window (1 s) + failsafe_after_s + slack for tick alignment.
    sim.run(2.5)
    actions = [e.action for e in governor.failsafe_events]
    assert actions == ["enter"], "persistent fault must enter failsafe once"
    # Recovery: healthy readings resume, but exit waits failsafe_exit_s.
    stuck.clear()
    zone.sensor = stuck.inner
    recovered_at = sim.clock.now
    sim.run(config.failsafe_exit_s / 2)
    assert [e.action for e in governor.failsafe_events] == ["enter"]
    sim.run(config.failsafe_exit_s + 3 * config.period_s)
    actions = [e.action for e in governor.failsafe_events]
    assert actions == ["enter", "exit"], "must exit exactly once, no flapping"
    exit_event = governor.failsafe_events[-1]
    assert exit_event.time_s >= recovered_at + config.failsafe_exit_s - 1e-9
    # Healthy tail: no re-entry.
    sim.run(2.0)
    assert [e.action for e in governor.failsafe_events] == ["enter", "exit"]
    assert governor.failsafe_s == pytest.approx(
        exit_event.time_s - governor.failsafe_events[0].time_s,
        abs=2 * config.period_s,
    )


def test_sustained_breach_escalates_to_failsafe():
    # A limit below the die's resting temperature: every trusted reading
    # is a breach, which must escalate on the fast breach deadline.
    config = GovernorConfig(t_limit_c=35.0, horizon_s=60.0,
                            breach_after_s=0.5, failsafe_after_s=3.0)
    sim, governor = make_governed_sim(config)
    sim.run(2.0)
    breaches = [d for d in governor.detections if d.kind == "breach"]
    assert breaches, "readings at/above the limit must be flagged"
    enters = [e for e in governor.failsafe_events if e.action == "enter"]
    assert enters and enters[0].reason == "breach"
    assert enters[0].time_s <= (
        breaches[0].time_s + config.breach_after_s + 2 * config.period_s
    )


def test_stall_detection():
    config = GovernorConfig(t_limit_c=75.0, horizon_s=60.0)
    sim, governor = make_governed_sim(config)
    sim.run(0.5)
    # Simulate a missed stretch of control ticks by invoking run() with a
    # gap, as the stall injector's wrapped daemon produces.
    governor.run(sim.clock.now + 10 * config.period_s)
    stalls = [d for d in governor.detections if d.kind == "stall"]
    assert stalls and "no control tick" in stalls[0].detail
