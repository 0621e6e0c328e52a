"""Campaign runner: parallel determinism, caching, fault isolation.

These tests are the subsystem's acceptance criteria: a 12-run campaign
must produce byte-identical stores under ``jobs=1`` and ``jobs=4``, an
immediate re-run must execute zero simulations, a crashed worker must
take down only its own run, and ``--resume`` must execute exactly the
missing runs.
"""

import pytest

from repro.campaign import (
    Axis,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
)
from repro.campaign.runner import FAULT_ENV
from repro.errors import ConfigurationError, SimulationError
from repro.sim.experiment import AppSpec


def grid_spec(name="grid", seeds=(1, 2, 3)):
    """12 short, pairwise-distinct scenarios (2 policies x 3 seeds x 2 ambients)."""
    return CampaignSpec(
        name=name,
        base={
            "platform": "odroid-xu3",
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "duration_s": 6.0,
        },
        axes=(
            Axis("policy", ("none", "stock")),
            Axis("seed", tuple(seeds)),
            Axis("ambient_c", (25.0, 30.0)),
        ),
    )


def store_bytes(store):
    """Map of relative object path -> file bytes."""
    objects = store.root / "objects"
    return {
        str(p.relative_to(objects)): p.read_bytes()
        for p in objects.glob("*/*.json")
    }


def test_runner_validation(tmp_path):
    spec = grid_spec()
    with pytest.raises(ConfigurationError):
        CampaignRunner(spec, tmp_path, jobs=0)
    with pytest.raises(ConfigurationError):
        CampaignRunner(spec, tmp_path, timeout_s=0.0)


def test_parallel_results_byte_identical_and_rerun_is_free(tmp_path):
    spec = grid_spec()
    assert spec.size == 12

    serial = CampaignRunner(spec, tmp_path / "serial", jobs=1)
    report = serial.run()
    assert report.ok and report.count("completed") == 12

    parallel = CampaignRunner(spec, tmp_path / "parallel", jobs=4)
    assert parallel.run().ok

    # Scheduling must not leak into the stored payloads.
    serial_objects = store_bytes(serial.store)
    assert len(serial_objects) == 12
    assert serial_objects == store_bytes(parallel.store)

    # Immediate re-run: every run served from the cache, zero simulations.
    again = CampaignRunner(spec, tmp_path / "parallel", jobs=4)
    report = again.run()
    assert report.ok
    assert report.count("cached") == 12
    labels = {"campaign": spec.name}
    assert again.metrics.value(
        "repro_campaign_runs_started_total", labels) == 0.0
    assert again.metrics.value(
        "repro_campaign_runs_cached_total", labels) == 12.0


def test_report_is_in_grid_order_regardless_of_scheduling(tmp_path):
    spec = grid_spec()
    runner = CampaignRunner(spec, tmp_path, jobs=4)
    report = runner.run()
    assert [r.run_id for r in report.records] == [
        run.run_id for run in runner.runs
    ]


def test_crashed_worker_only_kills_its_own_run(tmp_path, monkeypatch):
    spec = grid_spec(name="crashy")
    runner = CampaignRunner(spec, tmp_path, jobs=4)
    victim = runner.runs[5].run_id
    monkeypatch.setenv(FAULT_ENV, victim)

    report = runner.run()
    by_id = {r.run_id: r for r in report.records}
    assert by_id[victim].status == "failed"
    assert by_id[victim].failure.kind == "crash"
    others = [r for r in report.records if r.run_id != victim]
    assert len(others) == 11
    assert all(r.status == "completed" for r in others)
    assert not report.ok

    # Resume without the fault: exactly the missing run executes.
    monkeypatch.delenv(FAULT_ENV)
    resume = CampaignRunner(spec, tmp_path, jobs=4)
    report = resume.run()
    assert report.ok
    assert report.summary() == {
        "total": 12, "cached": 11, "completed": 1, "failed": 0, "pending": 0,
    }
    labels = {"campaign": spec.name}
    assert resume.metrics.value(
        "repro_campaign_runs_started_total", labels) == 1.0


def test_fault_env_ignored_on_inline_path(tmp_path, monkeypatch):
    """jobs=1 runs in-process; the crash hook must never fire there."""
    spec = grid_spec(name="inline", seeds=(1,))
    runner = CampaignRunner(spec, tmp_path, jobs=1)
    monkeypatch.setenv(FAULT_ENV, runner.runs[0].run_id)
    assert runner.run().ok


def test_simulation_error_is_a_structured_failure(tmp_path, monkeypatch):
    import repro.campaign.runner as runner_mod

    spec = grid_spec(name="raiser", seeds=(1,))
    runner = CampaignRunner(spec, tmp_path, jobs=1)
    doomed = runner.runs[0].scenario

    real = runner_mod._run_scenario

    def flaky(scenario, timeout_s):
        if scenario == doomed:
            raise SimulationError("thermal runaway in the model")
        return real(scenario, timeout_s)

    monkeypatch.setattr(runner_mod, "_run_scenario", flaky)
    report = runner.run()
    by_id = {r.run_id: r for r in report.records}
    failed = by_id[runner.runs[0].run_id]
    assert failed.status == "failed"
    assert failed.failure.kind == "exception"
    assert failed.failure.error_type == "SimulationError"
    assert "thermal runaway" in failed.failure.message
    # The other three runs of the wave completed and were cached.
    assert report.summary()["completed"] == 3
    assert not runner.store.has(runner.key_of(runner.runs[0]))


def test_timeout_records_a_timeout_failure(tmp_path):
    spec = CampaignSpec(
        name="slow",
        base={
            "platform": "odroid-xu3",
            "apps": (AppSpec.catalog("stickman"),),
            "duration_s": 3600.0,  # ~minutes of wall-clock if let run
        },
        axes=(Axis("seed", (1,)),),
    )
    runner = CampaignRunner(spec, tmp_path, jobs=1, timeout_s=0.1)
    report = runner.run()
    record = report.records[0]
    assert record.status == "failed"
    assert record.failure.kind == "timeout"
    assert "0.1" in record.failure.message
    assert not report.ok


def test_manifest_written_with_spec_and_summary(tmp_path):
    spec = grid_spec(name="manifested", seeds=(1,))
    runner = CampaignRunner(spec, tmp_path, jobs=1)
    report = runner.run()

    manifest = runner.store.load_campaign_manifest("manifested")
    assert manifest["schema"] == "repro.campaign/1"
    assert manifest["summary"] == report.summary()
    assert CampaignSpec.from_dict(manifest["spec"]) == spec
    assert set(manifest["runs"]) == {r.run_id for r in report.records}
    prom = (runner.store.campaign_dir("manifested") / "metrics.prom").read_text()
    assert 'repro_campaign_runs_completed_total{campaign="manifested"} 4' in prom


def test_status_and_results_do_not_execute(tmp_path):
    spec = grid_spec(name="census", seeds=(1,))
    runner = CampaignRunner(spec, tmp_path, jobs=1)
    assert all(r.status == "pending" for r in runner.status().records)
    assert runner.results() == {}
    runner.run()
    fresh = CampaignRunner(spec, tmp_path, jobs=1)
    assert all(r.status == "cached" for r in fresh.status().records)
    results = fresh.results()
    assert set(results) == {run.run_id for run in fresh.runs}
    assert all(res.peak_temp_c > 20.0 for res in results.values())
