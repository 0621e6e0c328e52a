"""The ``repro campaign`` subcommands, end to end through ``main``."""

import json

import pytest

from repro.campaign import PRESETS
from repro.cli import main
from repro.sim.experiment import AppSpec
from repro.soc.registry import platform_names


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store with the smoke preset fully cached (built once, reused)."""
    root = tmp_path_factory.mktemp("warm") / "store"
    assert campaign("run", "--preset", "smoke", "--store", str(root),
                    "--jobs", "2") == 0
    return root


def campaign(*argv):
    return main(["campaign", *argv])


def test_run_then_cached_rerun(tmp_path, capsys):
    store = str(tmp_path / "store")
    spec = {
        "name": "cli-mini",
        "base": {
            "platform": "odroid-xu3",
            "apps": [{"kind": "catalog", "name": "stickman", "cluster": None}],
            "duration_s": 6.0,
        },
        "axes": [{"name": "seed", "values": [1, 2]}],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))

    assert campaign("run", "--spec", str(spec_file), "--store", store) == 0
    out = capsys.readouterr().out
    assert "2 run(s): 2 completed" in out

    assert campaign("run", "--spec", str(spec_file), "--store", store,
                    "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["summary"] == {
        "total": 2, "cached": 2, "completed": 0, "failed": 0, "pending": 0,
    }


def test_status_and_results(warm_store, capsys):
    store = str(warm_store)
    assert campaign("status", "--preset", "smoke", "--store", store) == 0
    out = capsys.readouterr().out
    assert "4 run(s)" in out and "4 cached" in out

    assert campaign("results", "--preset", "smoke", "--store", store) == 0
    out = capsys.readouterr().out
    assert "median FPS" in out and "stickman=" in out
    assert "not cached" not in out

    assert campaign("results", "--preset", "smoke", "--store", store,
                    "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["missing"] == []
    assert len(payload["results"]) == 4
    result = next(iter(payload["results"].values()))
    assert {"policy", "fps", "peak_temp_c", "breakdown"} <= set(result)


def test_results_reports_missing_runs(tmp_path, capsys):
    assert campaign("results", "--preset", "smoke",
                    "--store", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "4 run(s) not cached yet" in out


def test_resume_requires_a_manifest(tmp_path, usage_error):
    usage_error(campaign("run", "--preset", "smoke", "--store", str(tmp_path),
                         "--resume"),
                "repro campaign run: nothing to resume")


def test_resume_on_warm_store_is_all_cached(warm_store, capsys):
    assert campaign("run", "--preset", "smoke", "--store", str(warm_store),
                    "--jobs", "2", "--resume", "--format", "json") == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["cached"] == summary["total"] == 4
    assert summary["completed"] == summary["failed"] == 0


def test_platform_matrix_runs_every_platform(tmp_path, capsys):
    """One stock run per registered platform, each through the thermal
    discretisation of its own network."""
    assert campaign("run", "--preset", "platform-matrix",
                    "--store", str(tmp_path), "--jobs", "2",
                    "--format", "json") == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["completed"] == summary["total"] == len(platform_names())
    assert summary["failed"] == summary["cached"] == 0


def test_spec_and_preset_are_mutually_exclusive(tmp_path, usage_error):
    usage_error(campaign("run", "--preset", "smoke", "--spec", "x.json",
                         "--store", str(tmp_path)),
                "repro campaign run: give exactly one of")
    usage_error(campaign("run", "--store", str(tmp_path)),
                "repro campaign run: give exactly one of")


def test_unknown_preset_and_bad_spec_files(tmp_path, usage_error):
    usage_error(campaign("status", "--preset", "nope",
                         "--store", str(tmp_path)),
                "repro campaign status: unknown preset 'nope'")
    usage_error(campaign("status", "--spec", str(tmp_path / "missing.json"),
                         "--store", str(tmp_path)),
                "repro campaign status: ", "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    usage_error(campaign("status", "--spec", str(bad),
                         "--store", str(tmp_path)),
                "repro campaign status: ", "bad.json: malformed JSON")


def test_spec_with_a_too_short_run_is_a_usage_error(tmp_path, usage_error):
    spec = {
        "name": "cli-short",
        "base": {
            "platform": "odroid-xu3",
            "apps": [{"kind": "catalog", "name": "stickman", "cluster": None}],
        },
        "axes": [{"name": "duration_s", "values": [6.0, 3.0]}],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    usage_error(campaign("run", "--spec", str(spec_file),
                         "--store", str(tmp_path / "store")),
                "repro campaign run: ", "warm-up")
    assert not (tmp_path / "store" / "cli-short").exists()


def test_failed_campaign_exits_nonzero(tmp_path, capsys):
    spec = {
        "name": "cli-slow",
        "base": {
            "platform": "odroid-xu3",
            "apps": [{"kind": "catalog", "name": "stickman", "cluster": None}],
            "duration_s": 3600.0,
        },
        "axes": [{"name": "seed", "values": [1]}],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code = campaign("run", "--spec", str(spec_file),
                    "--store", str(tmp_path / "store"), "--timeout", "0.1")
    assert code == 1
    assert "timeout" in capsys.readouterr().out


def test_presets_expand():
    for name, factory in PRESETS.items():
        spec = factory()
        runs = spec.expand()
        assert len(runs) == spec.size >= 2, name
        assert all(isinstance(r.scenario.apps[0], AppSpec) for r in runs)
