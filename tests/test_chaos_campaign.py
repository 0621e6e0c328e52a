"""The chaos preset: determinism across workers and the hardening property."""

import pathlib

import pytest

from repro.campaign import PRESETS, Axis, CampaignRunner, CampaignSpec, ResultStore
from repro.campaign.presets import chaos_campaign
from repro.campaign.runner import RunFailure
from repro.campaign.spec import FAULTS_AXIS
from repro.faults import builtin_plan_names
from repro.faults.report import resilience_report
from repro.sim.experiment import AppSpec


def store_bytes(root) -> dict[str, bytes]:
    objects = pathlib.Path(root) / "objects"
    return {
        path.name: path.read_bytes() for path in objects.rglob("*.json")
    }


def test_chaos_preset_registered():
    assert "chaos" in PRESETS
    spec = PRESETS["chaos"]()
    plans = next(ax for ax in spec.axes if ax.name == FAULTS_AXIS)
    assert tuple(p.name for p in plans.values) == builtin_plan_names()


def test_fault_runs_byte_identical_across_jobs(tmp_path):
    spec = CampaignSpec(
        name="chaos-determinism",
        base={
            "platform": "odroid-xu3",
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "policy": "proposed",
            "duration_s": 6.0,
            "seed": 3,
        },
        axes=(Axis(FAULTS_AXIS, builtin_plan_names()),),
    )
    serial = CampaignRunner(spec, ResultStore(tmp_path / "s1"), jobs=1).run()
    parallel = CampaignRunner(spec, ResultStore(tmp_path / "s2"), jobs=2).run()
    assert serial.ok and parallel.ok
    assert store_bytes(tmp_path / "s1") == store_bytes(tmp_path / "s2")


def test_chaos_grid_hardening_property(tmp_path):
    spec = chaos_campaign(duration_s=12.0, seed=3)
    runner = CampaignRunner(spec, ResultStore(tmp_path), jobs=2)
    campaign = runner.run()
    assert campaign.ok, campaign.render_text()

    report = resilience_report(runner.runs, runner.results())
    # Every (platform, plan, policy) cell produced a row.
    assert len(report.rows) == len(runner.runs)
    assert report.hardening_regressions() == [], (
        "hardened governor exceeded the limit by more than stock:\n"
        + report.render_text()
    )
    # The faults actually fired: each proposed-policy run armed its plan
    # (except inert-by-design combinations) and carries its plan name.
    by_plan = {}
    for row in report.rows:
        if row.policy == "proposed":
            by_plan[row.fault_plan] = row.faults_injected
    assert set(by_plan) == set(builtin_plan_names())
    inert_for_proposed = {"cooling-stuck"}  # no kernel cooling devices bound
    for plan, injected in by_plan.items():
        if plan not in inert_for_proposed:
            assert injected > 0, f"plan {plan} never armed under proposed"
    # The hardened governor actually degraded somewhere (failsafe engaged).
    assert any(
        row.failsafe_s > 0.0 for row in report.rows if row.policy == "proposed"
    )


def test_run_failure_carries_fault_plan():
    failure = RunFailure(
        kind="exception", error_type="SimulationError",
        message="boom", fault_plan="stuck-cold",
    )
    back = RunFailure.from_dict(failure.to_dict())
    assert back == failure
    assert back.fault_plan == "stuck-cold"
    # Tolerant of records written before the field existed.
    legacy = dict(failure.to_dict())
    legacy.pop("fault_plan")
    assert RunFailure.from_dict(legacy).fault_plan is None


def test_result_distinguishes_designed_faults(tmp_path):
    # A completed fault run records its plan and injections in the result —
    # "the plan executed as designed" is not a failure.
    spec = CampaignSpec(
        name="designed",
        base={
            "platform": "odroid-xu3",
            "apps": (AppSpec.batch("bml"),),
            "policy": "stock",
            "duration_s": 6.0,
            "faults": "fan-stop",
        },
        axes=(Axis("seed", (1,)),),
    )
    runner = CampaignRunner(spec, ResultStore(tmp_path), jobs=1)
    assert runner.run().ok
    (result,) = runner.results().values()
    assert result.fault_plan == "fan-stop"
    assert len(result.faults_injected) == 1
    assert result.failsafe_s == 0.0  # stock has no failsafe machinery
