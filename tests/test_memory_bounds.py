"""Long-run memory contract: a run keeps bytes per sample, not objects.

A finished simulation holds its records in typed buffers (trace channels,
the DAQ capture, frame completions) or bounded rings (spans, kernel
events, governor predictions).  Once the span ring is full, what a run
retains grows only by the raw samples it records.
"""

import gc
import pickle
import tracemalloc

import pytest

import repro.core.governor as governor_mod
from repro.apps.gfxbench import ThreeDMarkApp
from repro.apps.mibench import basicmath_large
from repro.core.governor import (
    ApplicationAwareGovernor,
    FaultDetection,
    MigrationEvent,
    Prediction,
)
from repro.core.fixed_point import StabilityClass
from repro.experiments.odroid import proposed_governor_config
from repro.kernel.kernel import KernelConfig
from repro.kernel.tracing import TraceEvent
from repro.sim.engine import Simulation
from repro.soc.exynos5422 import odroid_xu3

KB = 1024.0

#: Horizons of the growth measurement.  Both sit just below one of the
#: DAQ's power-of-two capacity steps (2**16 and 2**17 samples at 1 kHz),
#: where its doubling buffer is full, so the measured DAQ growth is its
#: amortised 16 B per sample; between two steps the buffer is up to half
#: empty.  The first horizon is also past the ~63 s it takes the 8,192-span
#: ring to fill at this workload's ~130 spans per simulated second.
T1_S = 65.5
T2_S = 131.0

#: Growth budget, bytes per simulated second.
BUDGET_B_PER_S = (
    16.0 * KB  # DAQ: 1,000 samples/s x (time, watts) float64
    + 2.9 * KB  # 18 trace channels x 10 Hz x (time, value) float64
    + 0.5 * KB  # frame completions: ~60 fps x one float64
    + 2.5 * KB  # governor predictions: 10/s slotted records until the ring fills
    + 2.1 * KB  # slack: kernel events, metric labels, allocator rounding
)


def _odroid_run():
    mark = ThreeDMarkApp(gt1_duration_s=125.0, gt2_duration_s=125.0)
    sim = Simulation(
        odroid_xu3(), [mark, basicmath_large()], kernel_config=KernelConfig(),
        seed=3, enable_daq=True,
    )
    governor = ApplicationAwareGovernor.for_simulation(
        sim, proposed_governor_config()
    )
    for pid in mark.pids():
        governor.registry.register(pid, mark.name)
    governor.install(sim.kernel)
    return sim, governor


def _retained_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_long_run_growth_is_raw_samples():
    # Tracing starts before the simulation exists: a ring that replaces an
    # untracked object with a tracked one would otherwise read as growth.
    tracemalloc.start()
    try:
        sim, _ = _odroid_run()
        sim.run(T1_S)
        assert sim.spans.dropped > 0  # the span ring is full and turning over
        first = _retained_bytes()
        sim.run(T2_S - T1_S)
        second = _retained_bytes()
    finally:
        tracemalloc.stop()
    per_s = (second - first) / (T2_S - T1_S)
    assert per_s <= BUDGET_B_PER_S, (
        f"{per_s / KB:.1f} KB retained per simulated second, "
        f"budget {BUDGET_B_PER_S / KB:.1f} KB"
    )


def test_predictions_ring_drops_oldest_and_counts(monkeypatch):
    monkeypatch.setattr(governor_mod, "PREDICTION_CAPACITY", 3)
    sim, governor = _odroid_run()
    assert governor.predictions.maxlen == 3
    sim.run(0.55)  # control periods at 0.0, 0.1, ..., 0.5
    assert len(governor.predictions) == 3
    assert governor.predictions_dropped == 3
    times = [p.time_s for p in governor.predictions]
    assert times == pytest.approx([0.3, 0.4, 0.5])


def test_records_are_slotted_and_pickle():
    records = [
        TraceEvent(1.5, "sched", "migrate"),
        TraceEvent(1.5, "sched", "migrate", "pid=7"),
        MigrationEvent(2.0, 7, "bml", "to_little", 1.25, None, 3.0),
        FaultDetection(3.0, "stale", "temp"),
        Prediction(4.0, 1.0, 0.5, 40.0, StabilityClass.STABLE, 60.0, float("inf")),
    ]
    for record in records:
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record
    assert records[0].detail == ""
