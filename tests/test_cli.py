"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_critical_command(capsys):
    assert main(["critical"]) == 0
    out = capsys.readouterr().out
    assert "5.50 W" in out


def test_stability_command_stable(capsys):
    main(["stability", "--power", "2.0"])
    out = capsys.readouterr().out
    assert "stable" in out
    assert "68.1" in out


def test_stability_command_runaway(capsys):
    main(["stability", "--power", "8.0"])
    out = capsys.readouterr().out
    assert "runaway" in out


def test_budget_command(capsys):
    main(["budget", "--limit", "85"])
    out = capsys.readouterr().out
    assert "2.85 W" in out


def test_fig7_command(capsys):
    main(["fig7"])
    out = capsys.readouterr().out
    assert "P_dyn=2.0" in out
    assert "runaway" in out


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["fig99"])


@pytest.mark.parametrize("argv", [
    ["table2"], ["fig8"], ["advise"], ["chaos"], ["metrics"], ["trace"],
    ["platforms", "excite", "--platform", "nexus6p", "--out", "t.json"],
    ["platforms", "degrade", "--trace", "t.json", "--model", "noisy-sysfs",
     "--out", "d.json"],
])
@pytest.mark.parametrize("seed", ["-1", "-5", "three"])
def test_bad_seed_is_a_usage_error(argv, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--seed" in err
    assert "Traceback" not in err


def test_stability_requires_power():
    with pytest.raises(SystemExit):
        main(["stability"])


@pytest.mark.parametrize("argv, reason", [
    (["stability", "--power", "-1"], "power must be >= 0"),
    (["stability", "--power", "nan"], "must be finite"),
    (["stability", "--power", "inf"], "must be finite"),
    (["stability", "--power", "two"], "invalid number"),
    (["budget", "--limit", "nan"], "must be finite"),
    (["budget", "--limit", "20"], "at or below the 27.0 degC ambient"),
    (["budget", "--limit", "27"], "at or below the 27.0 degC ambient"),
    (["advise", "--app", "hangouts", "--limit", "nan"], "must be finite"),
])
def test_bad_power_or_limit_is_a_usage_error(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[-2] in err and reason in err
    assert "Traceback" not in err


def test_budget_just_above_ambient_is_accepted(capsys):
    assert main(["budget", "--limit", "27.5"]) == 0
    assert "W" in capsys.readouterr().out


def test_parser_lists_all_commands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(a)) and hasattr(a, "choices") and a.choices
    )
    assert set(sub.choices) >= {
        "table1", "table2", "fig7", "fig8", "fig9",
        "stability", "budget", "critical",
        "advise", "describe", "metrics", "trace",
    }


def test_epilog_names_every_command():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    )
    for name in sub.choices:
        assert name in parser.epilog, f"epilog must mention {name!r}"


def test_export_dir_flag_parses():
    parser = build_parser()
    for cmd in ("table1", "table2", "fig8", "fig9"):
        args = parser.parse_args([cmd, "--export-dir", "/tmp/x"])
        assert args.export_dir == "/tmp/x"
        args = parser.parse_args([cmd])
        assert args.export_dir is None


def test_describe_command(capsys):
    main(["describe", "--platform", "odroid-xu3"])
    out = capsys.readouterr().out
    assert "Thermal network:" in out
    assert "board" in out


def test_describe_unknown_platform(usage_error):
    usage_error(main(["describe", "--platform", "pixel9"]),
                "repro describe: unknown platform 'pixel9'")


def test_advise_command(capsys):
    main(["advise", "--app", "hangouts", "--limit", "50",
          "--profile-s", "20"])
    out = capsys.readouterr().out
    assert "hangouts" in out
    assert "verdict" in out


def test_advise_unknown_app(usage_error):
    usage_error(main(["advise", "--app", "tiktok"]),
                "repro advise: unknown app 'tiktok'")


@pytest.mark.parametrize("limit", ["20", "29.9"])
def test_advise_limit_at_or_below_ambient_is_rejected_before_profiling(
    limit, monkeypatch, usage_error
):
    # nexus6p's lumped model sees a 29.9 degC effective ambient (board
    # power included): no safe budget exists at or below it.
    from repro.sim.engine import Simulation

    def no_profiling(self, duration_s):
        raise AssertionError("profiled before rejecting the limit")

    monkeypatch.setattr(Simulation, "run", no_profiling)
    usage_error(main(["advise", "--app", "hangouts", "--limit", limit]),
                "at or below", "effective ambient of nexus6p")


def test_advise_maps_a_stability_error_to_exit_2(monkeypatch, usage_error):
    import repro.core.advisor as advisor
    from repro.errors import StabilityError

    def unstable(*args, **kwargs):
        raise StabilityError("no stable fixed point")

    monkeypatch.setattr(advisor, "advise", unstable)
    usage_error(main(["advise", "--app", "hangouts", "--limit", "50",
                      "--profile-s", "6"]),
                "repro advise: no stable fixed point")


def test_metrics_command(capsys):
    main(["metrics", "--app", "hangouts", "--duration", "2"])
    out = capsys.readouterr().out
    assert "# TYPE repro_sim_steps_total counter" in out
    assert "repro_sim_steps_total 200" in out
    assert "repro_governor_decision_latency_seconds_bucket" in out


def test_metrics_command_profile(capsys):
    main(["metrics", "--app", "hangouts", "--duration", "1", "--profile"])
    out = capsys.readouterr().out
    assert "Step profile:" in out


def test_trace_command(capsys):
    main(["trace", "--app", "hangouts", "--duration", "2", "--limit", "5"])
    out = capsys.readouterr().out
    assert "# spans (last 5)" in out
    assert "governor.update" in out
    assert "# kernel events" in out
    assert "sched: spawn" in out


def test_metrics_unknown_app(usage_error):
    usage_error(main(["metrics", "--app", "tiktok"]),
                "repro metrics: unknown app 'tiktok'")


def test_table_export_dir(capsys, tmp_path, monkeypatch):
    # Patch the heavy run helpers: the export plumbing is what's under test.
    import repro.experiments.nexus as nexus
    from repro.apps.catalog import make_app
    from repro.kernel.kernel import KernelConfig
    from repro.sim.engine import Simulation
    from repro.soc.snapdragon810 import nexus6p

    sim = Simulation(nexus6p(), [make_app("hangouts")],
                     kernel_config=KernelConfig(), seed=3)
    sim.run(1.0)
    monkeypatch.setattr(nexus, "table1", lambda seed: [])
    monkeypatch.setattr(nexus, "table1_runs", lambda seed: {"only": sim})
    main(["table1", "--export-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert f"exported to {tmp_path}" in out
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "metrics.prom").exists()
    assert (tmp_path / "events.jsonl").exists()
    assert (tmp_path / "only" / "traces").is_dir()


def test_platforms_list_command(capsys):
    assert main(["platforms", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("nexus6p", "odroid-xu3", "odroid-xu3-fan", "pixel-xl"):
        assert name in out


def test_platforms_list_json_round_trips(capsys):
    import json

    from repro.soc.defs import PlatformDef

    assert main(["platforms", "list", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"nexus6p", "odroid-xu3", "pixel-xl"}
    for data in payload.values():
        PlatformDef.from_dict(data).validate()


def test_platforms_describe_text(capsys):
    assert main(["platforms", "describe", "--platform", "pixel-xl"]) == 0
    out = capsys.readouterr().out
    assert "kryo-gold" in out
    assert "step_wise" in out
    assert "Thermal network" in out


def test_platforms_describe_json_is_the_def(capsys):
    import json

    from repro.soc.registry import get

    assert main(["platforms", "describe", "--platform", "odroid-xu3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == get("odroid-xu3").to_dict()


def test_platforms_describe_unknown_exits(usage_error):
    usage_error(main(["platforms", "describe", "--platform", "palm-pre"]),
                "repro platforms describe: unknown platform 'palm-pre'")


def test_platforms_validate_command(capsys):
    assert main(["platforms", "validate"]) == 0
    out = capsys.readouterr().out
    assert "5 platform definition(s) valid" in out


def test_platforms_validate_file(tmp_path, capsys, usage_error):
    import json

    from repro.soc.registry import get

    good = tmp_path / "good.json"
    good.write_text(json.dumps(get("pixel-xl").to_dict()))
    assert main(["platforms", "validate", "--file", str(good)]) == 0
    assert "pixel-xl: OK" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    data = get("pixel-xl").to_dict()
    data["software"]["thermal"]["sensor"] = "bogus"
    bad.write_text(json.dumps(data))
    usage_error(main(["platforms", "validate", "--file", str(bad)]),
                "repro platforms validate: ", "'bogus'")


def test_describe_any_registered_platform(capsys):
    assert main(["describe", "--platform", "pixel-xl"]) == 0
    assert "skin" in capsys.readouterr().out


def test_describe_unknown_platform_exits(usage_error):
    usage_error(main(["describe", "--platform", "palm-pre"]),
                "repro describe: unknown platform 'palm-pre'")


# -------------------------------------------------- calibration pipeline


@pytest.fixture(scope="module")
def clean_trace_file(tmp_path_factory):
    """One clean excitation trace on disk, shared by the calib CLI tests."""
    path = tmp_path_factory.mktemp("calib") / "xu3.json"
    assert main([
        "platforms", "excite", "--platform", "odroid-xu3",
        "--seed", "1", "--out", str(path),
    ]) == 0
    return path


def test_platforms_excite_writes_trace(clean_trace_file):
    from repro.calib import load_trace_file

    trace = load_trace_file(clean_trace_file)
    assert trace.platform_hint == "odroid-xu3"
    assert trace.duration_s() > 0.0


def test_platforms_degrade_round_trip(clean_trace_file, tmp_path, capsys):
    from repro.calib import BUILTIN_MODELS, load_trace_file

    out = tmp_path / "degraded.json"
    assert main([
        "platforms", "degrade", "--trace", str(clean_trace_file),
        "--model", "noisy-sysfs", "--seed", "7", "--out", str(out),
    ]) == 0
    assert "noisy-sysfs" in capsys.readouterr().out
    degraded = load_trace_file(out)
    assert degraded.meta["degradation"] == {
        "model": BUILTIN_MODELS["noisy-sysfs"].to_dict(), "seed": 7,
    }
    clean = load_trace_file(clean_trace_file)
    assert len(degraded.series("temp.big")[0]) < len(clean.series("temp.big")[0])


def test_platforms_degrade_unusable_inputs_exit_2(tmp_path, usage_error,
                                                  clean_trace_file):
    code = main([
        "platforms", "degrade", "--trace", str(tmp_path / "nope.json"),
        "--model", "sysfs",
    ])
    usage_error(code, "repro platforms degrade: ", "cannot read trace")

    code = main([
        "platforms", "degrade", "--trace", str(clean_trace_file),
        "--model", "bogus-model",
    ])
    usage_error(code, "repro platforms degrade: ", "neither a built-in")


def test_platforms_fit_truncated_trace_exits_2(tmp_path, usage_error,
                                               clean_trace_file):
    cut = tmp_path / "cut.json"
    cut.write_text(clean_trace_file.read_text()[:100])
    usage_error(main(["platforms", "fit", "--trace", str(cut)]),
                "repro platforms fit: ", "malformed trace JSON", "line")


def test_platforms_fit_clean_trace_summary(clean_trace_file, capsys):
    assert main([
        "platforms", "fit", "--trace", str(clean_trace_file),
        "--name", "xu3-cli-refit",
    ]) == 0
    assert "fit report" in capsys.readouterr().out


def _fit_register_validate(trace, name, tmp_path, capsys):
    """``fit --out F --register`` exits 0, then ``validate --file F`` does."""
    from repro.soc import registry

    fitted = tmp_path / f"{name}.json"
    try:
        assert main([
            "platforms", "fit", "--trace", str(trace), "--name", name,
            "--out", str(fitted), "--register",
        ]) == 0
        assert f"{name}: registered" in capsys.readouterr().out
    finally:
        if registry.is_registered(name):
            registry.unregister(name)
    assert main(["platforms", "validate", "--file", str(fitted)]) == 0
    assert f"{name}: OK" in capsys.readouterr().out


def test_platforms_fit_registers_and_validates(clean_trace_file, tmp_path,
                                               capsys):
    _fit_register_validate(clean_trace_file, "xu3-cli-registered",
                           tmp_path, capsys)


def test_calibration_loop_at_reduced_scale(tmp_path, capsys):
    """Excite with a short staircase; the trace alone still fits cleanly."""
    trace = tmp_path / "trace.json"
    assert main([
        "platforms", "excite", "--platform", "odroid-xu3",
        "--dwell-s", "0.5", "--soak-s", "4", "--cooldown-s", "8",
        "--max-opps", "4", "--out", str(trace),
    ]) == 0
    capsys.readouterr()
    _fit_register_validate(trace, "odroid-xu3-refit", tmp_path, capsys)


def test_platforms_fit_missing_channel_exits_3(tmp_path, capsys, clean_trace_file):
    import json

    from repro.cli import EXIT_DEGRADED_FIT

    data = json.loads(clean_trace_file.read_text())
    del data["channels"]["volt.gpu"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(data))
    code = main([
        "platforms", "fit", "--trace", str(partial),
        "--name", "xu3-partial",
    ])
    assert code == EXIT_DEGRADED_FIT
    captured = capsys.readouterr()
    assert "dvfs.gpu=unfitted" in captured.err
    assert "fit report" in captured.out


def test_platforms_fit_robust_off_raises_trace_exit(tmp_path, usage_error,
                                                    clean_trace_file):
    import json

    data = json.loads(clean_trace_file.read_text())
    del data["channels"]["volt.gpu"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(data))
    code = main([
        "platforms", "fit", "--trace", str(partial),
        "--name", "xu3-partial-strict", "--robust", "off",
    ])
    usage_error(code, "repro platforms fit: ", "volt.gpu")


# ---------------------------------------------------------------- chaos CLI
# `repro chaos` maps the grid to an exit code: 0 when every run completed
# and the hardening property holds, 1 on a crashed run or a regression.
# tests/test_chaos_campaign.py checks the property on the full grid; these
# tests check the command's wiring on a two-run slice of it.


@pytest.fixture
def small_chaos_grid(monkeypatch):
    """Shrink the chaos preset to one platform x one plan x both policies."""
    from repro.campaign import Axis, CampaignSpec
    from repro.campaign import presets
    from repro.campaign.spec import FAULTS_AXIS

    real = presets.chaos_campaign

    def small(duration_s, seed):
        full = real(duration_s=duration_s, seed=seed)
        return CampaignSpec(
            name="chaos",
            base=full.base,
            axes=(
                Axis("platform", ("odroid-xu3",)),
                Axis("policy", ("stock", "proposed")),
                Axis(FAULTS_AXIS, ("fan-stop",)),
            ),
        )

    monkeypatch.setattr(presets, "chaos_campaign", small)


def _chaos(tmp_path, *extra):
    return main(["chaos", "--duration", "6", "--store", str(tmp_path), *extra])


def test_chaos_command_passes_and_reports(small_chaos_grid, tmp_path, capsys):
    assert _chaos(tmp_path, "--jobs", "2") == 0
    out = capsys.readouterr().out
    assert "Resilience report" in out
    assert "hardening property holds" in out


def test_chaos_command_json(small_chaos_grid, tmp_path, capsys):
    import json

    assert _chaos(tmp_path, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["resilience"]["hardening_regressions"] == []
    assert payload["campaign"]["summary"]["total"] == 2
    assert payload["campaign"]["summary"]["failed"] == 0


def test_chaos_command_exits_1_on_a_crashed_run(
    small_chaos_grid, tmp_path, monkeypatch, capsys
):
    from repro.campaign import runner
    from repro.errors import SimulationError

    real = runner._run_scenario

    def crash_proposed(scenario, timeout_s):
        if scenario.policy == "proposed":
            raise SimulationError("injected crash")
        return real(scenario, timeout_s)

    monkeypatch.setattr(runner, "_run_scenario", crash_proposed)
    assert _chaos(tmp_path) == 1
    out = capsys.readouterr().out
    assert "injected crash" in out


def test_chaos_command_exits_1_on_a_hardening_regression(
    small_chaos_grid, tmp_path, monkeypatch, capsys
):
    from repro.faults.report import ResilienceReport

    monkeypatch.setattr(
        ResilienceReport, "hardening_regressions",
        lambda self, tolerance_c=0.25: [("odroid-xu3", "fan-stop", 0.0, 1.5)],
    )
    assert _chaos(tmp_path) == 1
    out = capsys.readouterr().out
    assert "hardening REGRESSION in odroid-xu3/fan-stop" in out
