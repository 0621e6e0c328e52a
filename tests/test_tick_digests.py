"""The engine's floats, pinned: one digest per rewritten tick path.

Each scenario is short, but reaches one of the per-tick paths that carry
no slack for rounding: the IPA power tables (``state_for_power`` on a warm
board, so cooling states move), the proposed governor's sysfs reads and
migrations, and a phone under the ``fan-stop`` plan with the DAQ sampling
the battery-side total every tick.  A digest covers every trace channel,
the deterministic metrics snapshot, the kernel event log, the span ring
(without wall-clock fields), the DAQ capture and the energy meter.  Any
change to a float in the tick changes a digest.

The digests were recorded before the per-tick kernel was rewritten for
speed; the rewrite had to keep every one of them.
"""

import hashlib
import itertools
import json

import pytest

from repro.apps.gfxbench import ThreeDMarkApp
from repro.apps.mibench import basicmath_large
from repro.core.governor import ApplicationAwareGovernor
from repro.experiments.odroid import odroid_default_thermal, proposed_governor_config
from repro.kernel.kernel import KernelConfig
from repro.kernel.task import Task
from repro.sim.engine import Simulation
from repro.sim.experiment import AppSpec, Scenario
from repro.soc.exynos5422 import odroid_xu3

#: Warm start of the Odroid runs: above IPA's 70 degC switch-on, so the
#: power allocator evaluates its power tables from the first poll.
WARM_C = 75.0
ODROID_S = 20.0
PHONE_S = 20.0


@pytest.fixture(autouse=True)
def _fresh_pids(monkeypatch):
    """Pids come from one process-wide counter and appear in the kernel
    event log and the spans: start it where a fresh interpreter does."""
    monkeypatch.setattr(Task, "_pid_counter", itertools.count(1000))


def _digest(sim: Simulation, extra=()) -> str:
    h = hashlib.sha256()
    for name in sim.traces.names():
        times, values = sim.traces.series(name)
        h.update(name.encode())
        h.update(times.tobytes())
        h.update(values.tobytes())
    snapshot = sim.metrics.snapshot(as_of_s=sim.clock.now, include_wall_clock=False)
    h.update(json.dumps(snapshot, sort_keys=True).encode())
    h.update(sim.kernel.tracer.render().encode())
    for span in sim.spans.to_dicts():
        span.pop("wall_duration_s")
        h.update(json.dumps(span, sort_keys=True, default=repr).encode())
    if sim.daq is not None:
        for column in sim.daq.samples():
            h.update(column.tobytes())
    h.update(repr(sorted(sim.energy.breakdown().items())).encode())
    for app in sim.apps.values():
        h.update(repr(sorted(app.metrics().items())).encode())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()


def _odroid(config: KernelConfig) -> tuple[Simulation, ThreeDMarkApp]:
    mark = ThreeDMarkApp(gt1_duration_s=125.0, gt2_duration_s=125.0)
    sim = Simulation(
        odroid_xu3(), [mark, basicmath_large()], kernel_config=config,
        seed=3, initial_temp_c=WARM_C,
    )
    return sim, mark


def test_odroid_stock_ipa_digest(monkeypatch):
    from repro.kernel.thermal.cooling import DvfsCoolingDevice

    calls = []
    original = DvfsCoolingDevice.state_for_power

    def counted(self, budget_w, power_of_freq):
        calls.append(budget_w)
        return original(self, budget_w, power_of_freq)

    monkeypatch.setattr(DvfsCoolingDevice, "state_for_power", counted)
    sim, _ = _odroid(KernelConfig(thermal=odroid_default_thermal()))
    sim.run(ODROID_S)
    changes = [e for e in sim.kernel.tracer.events() if e.event == "cooling_state"]
    assert calls, "IPA never evaluated its power tables"
    assert changes, "no cooling state changed"
    assert _digest(sim) == (
        "47f953edca58a9fdb40eadfd2ab9a84be2ae4f006586b9dd9ac649cd54170e75"
    )


def test_odroid_proposed_governor_digest():
    sim, mark = _odroid(KernelConfig())
    governor = ApplicationAwareGovernor.for_simulation(sim, proposed_governor_config())
    for pid in mark.pids():
        governor.registry.register(pid, mark.name)
    governor.install(sim.kernel)
    sim.run(ODROID_S)
    assert governor.events, "the proposed governor never migrated"
    extra = [
        [(e.time_s, e.name, e.direction) for e in governor.events],
        list(governor.predictions),
    ]
    assert _digest(sim, extra) == (
        "73a2b6d1d5d78264dd5f6df28f3b311c52f3cc74be895131361354f1332bbf87"
    )


def test_nexus6p_fan_stop_daq_digest():
    scenario = Scenario(
        platform="nexus6p",
        apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
        policy="stock",
        duration_s=PHONE_S,
        faults="fan-stop",
    )
    sim, result = scenario._execute()
    assert result.faults_injected, "the fan-stop plan never armed"
    assert sim.daq is not None
    assert _digest(sim, [result.to_dict()]) == (
        "880082016b1527f0b3afd4382cd22e5f91ac286dceb169c6b3ffd20a3c3f4480"
    )
