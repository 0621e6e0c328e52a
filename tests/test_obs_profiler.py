"""Step profiler: accumulation, reports, engine integration."""

import pytest

from repro.errors import AnalysisError
from repro.kernel.kernel import KernelConfig
from repro.obs.profiler import NULL_PROFILER, STEP_PHASES, StepProfiler
from repro.sim.engine import Simulation
from repro.soc.snapdragon810 import nexus6p


def test_phase_accumulates_across_entries():
    prof = StepProfiler()
    ph = prof.phase("kernel")
    with prof.step():
        with ph:
            pass
        with ph:
            pass
    report = prof.report()
    assert report.step_count == 1
    stat = report.phase("kernel")
    assert stat.calls == 2
    assert stat.total_s >= 0.0
    assert stat.mean_us >= 0.0


def test_phase_handles_are_cached():
    prof = StepProfiler()
    assert prof.phase("apps") is prof.phase("apps")


def test_reset_keeps_cached_handles_valid():
    prof = StepProfiler()
    ph = prof.phase("apps")
    with prof.step():
        with ph:
            pass
    prof.reset()
    assert prof.step_count == 0
    with prof.step():
        with ph:
            pass
    assert prof.report().phase("apps").calls == 1


def test_report_without_steps_raises():
    with pytest.raises(AnalysisError):
        StepProfiler().report()


def test_unknown_phase_raises():
    prof = StepProfiler()
    with prof.step():
        pass
    with pytest.raises(AnalysisError):
        prof.report().phase("nope")


def test_null_profiler_is_noop():
    with NULL_PROFILER.step():
        with NULL_PROFILER.phase("anything"):
            pass  # no state, no error


def test_render_mentions_every_phase():
    prof = StepProfiler()
    with prof.step():
        for name in STEP_PHASES:
            with prof.phase(name):
                pass
    text = prof.report().render()
    for name in STEP_PHASES:
        assert name in text
    assert "coverage" in text


def test_simulation_profile_coverage():
    """The acceptance bar: phases must explain >= 95% of step wall-clock."""
    sim = Simulation(nexus6p(), kernel_config=KernelConfig(), seed=1,
                     profile=True)
    sim.run(20.0)
    report = sim.profiler.report()
    assert report.step_count == 2000
    assert {p.name for p in report.phases} == set(STEP_PHASES)
    assert report.coverage >= 0.95


def test_simulation_without_profile_has_no_profiler():
    sim = Simulation(nexus6p(), kernel_config=KernelConfig(), seed=1)
    assert sim.profiler is None
    sim.run(0.1)  # the null profiler brackets must not interfere
