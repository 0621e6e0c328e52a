"""Long-run memory contract: a run keeps bytes per sample, not objects.

A finished simulation holds its records in typed buffers (trace channels,
the DAQ capture, frame completions) or bounded rings (spans, kernel
events, governor predictions).  Once the span ring is full, what a run
retains grows only by the raw samples it records.
"""

import gc
import pickle
import tracemalloc
import weakref

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
from repro.experiments.odroid import odroid_default_thermal, proposed_governor_config
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


#: What a finished, deleted pair of runs may leave behind, in bytes.
#: Measured at 392 B under pytest on an x86-64 host, Python 3.11.7 and
#: numpy 2.4 (numpy's error-state context variables and seed-sequence
#: caches).  A cache that kept one small object per tick would hold
#: ~100 B x 2,000 ticks = ~0.2 MB per run, fifty times the budget.
RELEASE_BUDGET_B = 4 * KB


def _stock_and_proposed(seconds: float) -> list:
    """Build and run one stock-IPA and one proposed Odroid run; return
    weak references to both simulations and their kernels."""
    stock = Simulation(
        odroid_xu3(),
        [ThreeDMarkApp(gt1_duration_s=125.0, gt2_duration_s=125.0), basicmath_large()],
        kernel_config=KernelConfig(thermal=odroid_default_thermal()),
        seed=3,
    )
    stock.run(seconds)
    proposed, _ = _odroid_run()
    proposed.run(seconds)
    return [weakref.ref(x) for x in (stock, stock.kernel, proposed, proposed.kernel)]


def test_finished_runs_release_their_memory():
    # A warm-up pair pays the one-time costs (imports, the platform
    # registry, interned names) before tracing starts.
    _stock_and_proposed(0.5)
    tracemalloc.start()
    try:
        before = _retained_bytes()
        _stock_and_proposed(20.0)
        after = _retained_bytes()
    finally:
        tracemalloc.stop()
    assert after - before <= RELEASE_BUDGET_B, (
        f"{after - before} B retained after two finished runs were released"
    )


def test_finished_runs_need_no_cycle_collector():
    """A finished run is freed when its last reference goes, not at the
    next full collection.  Benchmark passes run back to back: a pass kept
    alive by reference cycles stays resident through the next one, so a
    faster engine that fits two passes into the timing window would double
    ``table2``'s peak RSS without holding one byte more per run."""
    gc.collect()
    gc.disable()
    try:
        refs = _stock_and_proposed(1.0)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False] * 4, (
        f"alive after release (stock sim, kernel, proposed sim, kernel): {alive}"
    )
