"""The telemetry pipeline end to end through the campaign runner and CLI.

Acceptance criteria of the observability PR:

* a 2-worker campaign's merged ``telemetry.json``/``telemetry.prom`` are
  byte-identical to the single-process run's (snapshot -> merge ->
  Prometheus equals one shared registry);
* ``repro obs check --slo`` exits non-zero on a grid seeded to breach and
  zero on a healthy grid;
* the report pins its cache-hit-ratio and wall-time percentile lines.
"""

import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultStore
from repro.campaign.runner import CampaignReport, RunRecord
from repro.campaign.spec import Axis
from repro.cli import main
from repro.obs import SNAPSHOT_SCHEMA


def mini_spec(name, t_limit_c=None, policies=("none",), seeds=(1, 2)):
    base = {
        "platform": "odroid-xu3",
        "apps": ({"kind": "catalog", "name": "stickman", "cluster": None},),
        "duration_s": 6.0,
    }
    if t_limit_c is not None:
        base["t_limit_c"] = t_limit_c
    return CampaignSpec(
        name=name, base=base,
        axes=(Axis("policy", tuple(policies)), Axis("seed", tuple(seeds))),
    )


@pytest.fixture(scope="module")
def healthy(tmp_path_factory):
    """A 2-run healthy campaign, fully executed (built once, reused)."""
    store = ResultStore(tmp_path_factory.mktemp("healthy") / "store")
    runner = CampaignRunner(mini_spec("healthy"), store, jobs=1)
    report = runner.run()
    assert report.ok
    return store, runner, report


# ---------------------------------------------------------- byte identity


def test_two_workers_merge_byte_identical_to_one(tmp_path):
    spec = mini_spec("ident", seeds=(1, 2, 3, 4))
    serial = CampaignRunner(spec, ResultStore(tmp_path / "serial"), jobs=1)
    assert serial.run().ok
    parallel = CampaignRunner(spec, ResultStore(tmp_path / "par"), jobs=2)
    assert parallel.run().ok

    for artefact in ("telemetry.json", "telemetry.prom"):
        a = (serial.store.campaign_dir("ident") / artefact).read_bytes()
        b = (parallel.store.campaign_dir("ident") / artefact).read_bytes()
        assert a == b, f"{artefact} differs between jobs=1 and jobs=2"

    # The aggregate carries host wall times (nondeterministic by nature);
    # everything else about it must agree.
    def comparable(store):
        data = json.loads(
            (store.campaign_dir("ident") / "aggregate.json").read_text()
        )
        for sample in data["samples"]:
            sample["values"].pop("wall_s", None)
        del data["summary"]
        return data

    assert comparable(serial.store) == comparable(parallel.store)


def test_cached_rerun_reproduces_the_same_telemetry(healthy):
    store, runner, _ = healthy
    before = store.telemetry_path("healthy").read_bytes()
    rerun = CampaignRunner(mini_spec("healthy"), store, jobs=1)
    report = rerun.run()
    assert report.count("cached") == 2
    assert store.telemetry_path("healthy").read_bytes() == before


# -------------------------------------------------------------- artefacts


def test_telemetry_artifacts_written(healthy):
    store, runner, _ = healthy
    snapshot = json.loads(store.telemetry_path("healthy").read_text())
    assert snapshot["schema"] == SNAPSHOT_SCHEMA
    # Wall-clock families must never reach the deterministic snapshot.
    assert not any(f["wall_clock"] for f in snapshot["families"].values())
    # Two 6-second runs merged: the step counters summed.
    steps = snapshot["families"]["repro_sim_steps_total"]
    assert sum(c["value"] for c in steps["children"]) == 1200.0

    from repro.obs.telemetry import CampaignAggregate

    payload = store.load_aggregate("healthy")
    assert payload is not None
    aggregate = CampaignAggregate.from_dict(payload)
    assert aggregate.name == "healthy"
    assert len(aggregate.samples) == 2
    # A later invocation may have re-served the runs from the cache; both
    # ways every run resolved cleanly and derived its thermal series.
    resolved = (aggregate.scalar("runs_completed")
                + aggregate.scalar("runs_cached"))
    assert resolved == 2.0
    assert all("excess_c" in s.values for s in aggregate.samples)

    fleet = (store.campaign_dir("healthy") / "fleet.prom").read_text()
    assert 'repro_fleet_runs{campaign="healthy"' in fleet
    assert "repro_fleet_excess_celsius" in fleet


def test_runner_exposes_last_aggregate(healthy):
    _, runner, _ = healthy
    assert runner.last_aggregate is not None
    assert runner.last_aggregate.scalar("runs_total") == 2.0
    # aggregate() folds the store view without executing: the runs are in
    # the cache now, and the merged telemetry matches the live run's.
    rebuilt = runner.aggregate()
    assert rebuilt.scalar("runs_cached") == 2.0
    assert rebuilt.snapshot == runner.last_aggregate.snapshot


# ------------------------------------------------------------ report lines


def test_report_render_text_format_is_pinned():
    report = CampaignReport(
        name="pinned",
        records=(
            RunRecord(run_id="0-a", key="k0", status="cached"),
            RunRecord(run_id="1-b", key="k1", status="completed",
                      elapsed_s=1.0),
            RunRecord(run_id="2-c", key="k2", status="completed",
                      elapsed_s=3.0),
            RunRecord(run_id="3-d", key="k3", status="completed",
                      elapsed_s=2.0),
        ),
    )
    lines = report.render_text().splitlines()
    assert lines[-2] == "cache hit ratio: 0.25"
    assert lines[-1] == "wall s: p50 2.00, p90 3.00, max 3.00"


def test_report_wall_line_without_executed_runs():
    report = CampaignReport(
        name="cold",
        records=(RunRecord(run_id="0-a", key="k0", status="cached"),),
    )
    lines = report.render_text().splitlines()
    assert lines[-2] == "cache hit ratio: 1.00"
    assert lines[-1] == "wall s: no executed runs"


# -------------------------------------------------------------------- CLI


def spec_file(tmp_path, spec):
    path = tmp_path / f"{spec.name}.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


def test_obs_check_exit_codes(tmp_path, capsys):
    store = str(tmp_path / "store")
    # Seeded breach: a 45 degC limit the 6 s stickman run overshoots.
    breach = spec_file(tmp_path, mini_spec("breach", t_limit_c=45.0))
    assert main(["campaign", "run", "--spec", breach, "--store", store]) == 0
    capsys.readouterr()
    rc = main(["obs", "check", "--campaign", "breach", "--store", store,
               "--slo", "chaos-hardening"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] excess-bounded" in out
    assert "BREACH" in out

    healthy = spec_file(tmp_path, mini_spec("healthy"))
    assert main(["campaign", "run", "--spec", healthy, "--store", store]) == 0
    capsys.readouterr()
    rc = main(["obs", "check", "--campaign", "healthy", "--store", store,
               "--slo", "chaos-hardening"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().endswith("PASS")


def test_obs_check_json_and_missing_campaign(tmp_path, capsys, usage_error):
    store = str(tmp_path / "store")
    healthy = spec_file(tmp_path, mini_spec("healthy"))
    assert main(["campaign", "run", "--spec", healthy, "--store", store]) == 0
    capsys.readouterr()
    assert main(["obs", "check", "--campaign", "healthy", "--store", store,
                 "--slo", "chaos-hardening", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["slo"] == "chaos-hardening"
    assert {r["name"] for r in payload["rules"]} == {
        "excess-bounded", "detects-quickly", "no-crashes", "no-failures",
    }
    usage_error(main(["obs", "check", "--campaign", "ghost", "--store", store,
                      "--slo", "chaos-hardening"]),
                "repro obs check: no aggregate for campaign 'ghost'")
    usage_error(main(["obs", "check", "--campaign", "healthy", "--store", store,
                      "--slo", "no-such-spec"]),
                "repro obs check: unknown SLO spec 'no-such-spec'")


def test_campaign_run_watch_no_tty(tmp_path, capsys):
    store = str(tmp_path / "store")
    spec = spec_file(tmp_path, mini_spec("watched"))
    assert main(["campaign", "run", "--spec", spec, "--store", store,
                 "--watch", "--no-tty", "--slo", "chaos-hardening"]) == 0
    out = capsys.readouterr().out
    assert "\x1b" not in out
    assert "watch: campaign watched: 2 run(s)" in out
    assert "watch: campaign watched: 2/2 resolved -- done" in out
    assert "watch:   SLO chaos-hardening: 4/4 ok" in out
    # The final report still prints after the watch lines.
    assert "cache hit ratio: 0.00" in out


def test_campaign_run_slo_gates_exit_code(tmp_path, capsys):
    store = str(tmp_path / "store")
    breach = spec_file(tmp_path, mini_spec("breach", t_limit_c=45.0))
    rc = main(["campaign", "run", "--spec", breach, "--store", store,
               "--slo", "chaos-hardening"])
    out = capsys.readouterr().out
    assert rc == 1  # every run completed, but the SLO breached
    assert "BREACH" in out


def test_campaign_watch_command(tmp_path, capsys):
    store = str(tmp_path / "store")
    spec = spec_file(tmp_path, mini_spec("later"))
    assert main(["campaign", "run", "--spec", spec, "--store", store]) == 0
    capsys.readouterr()
    assert main(["campaign", "watch", "--spec", spec, "--store", store,
                 "--slo", "chaos-hardening"]) == 0
    out = capsys.readouterr().out
    assert "campaign later: 2/2 resolved" in out
    assert "cached 2  completed 0  failed 0  pending 0" in out
    assert "SLO chaos-hardening: 4/4 ok" in out

    assert main(["campaign", "watch", "--spec", spec, "--store", store,
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "later"
    assert "snapshot" not in payload
    assert {s["status"] for s in payload["samples"]} == {"cached"}
