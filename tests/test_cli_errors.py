"""Every input mistake the CLI can be handed exits 2 with one stderr line.

``repro.cli.main`` is the one place that maps an error to an exit code:
0 success, 1 a failed gate, 2 bad input, 3 a degraded fit.  Each case
below is a mistake a user can make on the command line; none may show a
traceback or exit 1 (which means a gate the command evaluated failed).
"""

import json

import pytest

from repro.cli import main

#: Reduced-scale excitation: seconds instead of a full staircase.
SMOKE_EXCITE = ["--dwell-s", "0.5", "--soak-s", "4", "--cooldown-s", "8",
                "--max-opps", "4"]

CASES = {
    "campaign-spec-missing": (
        ["campaign", "run", "--spec", "{missing}", "--store", "{store}"],
        "No such file",
    ),
    "campaign-spec-truncated": (
        ["campaign", "run", "--spec", "{truncated}", "--store", "{store}"],
        "malformed JSON",
    ),
    "campaign-spec-empty": (
        ["campaign", "run", "--spec", "{empty}", "--store", "{store}"],
        "missing key(s) ['name']",
    ),
    **{
        f"campaign-spec-{field}-wrong-type": (
            ["campaign", "status", "--spec", f"{{{field}_typed}}", "--store", "{store}"],
            reason,
        )
        for field, reason in (
            ("axes", "campaign 'axes' must be a list, got int"),
            ("base", "campaign 'base' must be a JSON object, got int"),
            ("values", "axis 'seed' 'values' must be a list, got int"),
            ("name", "campaign 'name' must be a string, got int"),
        )
    },
    "campaign-spec-and-preset": (
        ["campaign", "run", "--spec", "{empty}", "--preset", "smoke"],
        "exactly one of --spec FILE or --preset NAME",
    ),
    "campaign-run-preset": (
        ["campaign", "run", "--preset", "nosuch", "--store", "{store}"],
        "unknown preset 'nosuch'",
    ),
    "campaign-status-preset": (
        ["campaign", "status", "--preset", "nosuch", "--store", "{store}"],
        "unknown preset 'nosuch'",
    ),
    "campaign-results-preset": (
        ["campaign", "results", "--preset", "nosuch", "--store", "{store}"],
        "unknown preset 'nosuch'",
    ),
    "campaign-watch-preset": (
        ["campaign", "watch", "--preset", "nosuch", "--store", "{store}"],
        "unknown preset 'nosuch'",
    ),
    "campaign-resume-unstarted": (
        ["campaign", "run", "--preset", "smoke", "--resume",
         "--store", "{store}"],
        "nothing to resume",
    ),
    "campaign-store-unwritable": (
        ["campaign", "run", "--preset", "smoke", "--store", "{blocked}"],
        "Not a directory",
    ),
    "obs-check-slo-missing": (
        ["obs", "check", "--slo", "{missing}", "--campaign", "smoke",
         "--store", "{store}"],
        "cannot read SLO spec",
    ),
    "obs-check-aggregate-truncated": (
        ["obs", "check", "--slo", "chaos-hardening", "--campaign", "cut",
         "--store", "{store}"],
        "malformed JSON in the result store",
    ),
    "obs-check-no-aggregate": (
        ["obs", "check", "--slo", "chaos-hardening", "--campaign", "ghost",
         "--store", "{store}"],
        "no aggregate for campaign 'ghost'",
    ),
    **{
        f"{command}-{flag}": (
            [command, f"--{flag}", value], reason,
        )
        for command in ("metrics", "trace")
        for flag, value, reason in (
            ("app", "nosuch", "unknown app 'nosuch'"),
            ("platform", "nosuch", "unknown platform 'nosuch'"),
            ("duration", "0", "duration must be positive"),
        )
    },
    "advise-app": (
        ["advise", "--app", "nosuch"], "unknown app 'nosuch'",
    ),
    "describe-platform": (
        ["describe", "--platform", "nosuch"], "unknown platform 'nosuch'",
    ),
    "platforms-describe-platform": (
        ["platforms", "describe", "--platform", "nosuch"],
        "unknown platform 'nosuch'",
    ),
    "platforms-validate-missing": (
        ["platforms", "validate", "--file", "{missing}"], "No such file",
    ),
    "platforms-validate-empty": (
        ["platforms", "validate", "--file", "{empty}"],
        "PlatformDef: missing key(s)",
    ),
    "platforms-excite-platform": (
        ["platforms", "excite", "--platform", "nosuch"],
        "unknown platform 'nosuch'",
    ),
    "platforms-excite-dwell": (
        ["platforms", "excite", "--platform", "odroid-xu3", "--dwell-s", "-1"],
        "durations must be positive",
    ),
    "platforms-excite-unwritable": (
        ["platforms", "excite", "--platform", "odroid-xu3", *SMOKE_EXCITE,
         "--out", "{blocked}"],
        "Not a directory",
    ),
    "platforms-degrade-missing": (
        ["platforms", "degrade", "--trace", "{missing}", "--model", "sysfs"],
        "cannot read trace",
    ),
    "platforms-fit-missing": (
        ["platforms", "fit", "--trace", "{missing}"], "cannot read trace",
    ),
    "platforms-fit-truncated": (
        ["platforms", "fit", "--trace", "{truncated}"],
        "malformed trace JSON",
    ),
    "chaos-duration": (
        ["chaos", "--duration", "0", "--store", "{store}"],
        "5 s warm-up",
    ),
    "table1-export-unwritable": (
        ["table1", "--export-dir", "{blocked}"], "Not a directory",
    ),
}


@pytest.fixture
def paths(tmp_path, monkeypatch):
    """Input files for the cases, and a cheap Table I to export."""
    import repro.experiments.nexus as nexus

    monkeypatch.setattr(nexus, "table1", lambda seed: [])
    monkeypatch.setattr(nexus, "table1_runs", lambda seed: {"only": None})
    (tmp_path / "truncated.json").write_text('{"name": "cut", "base": {')
    (tmp_path / "empty.json").write_text("{}")
    typed = {
        "axes": {"name": "x", "axes": 5},
        "base": {"name": "x", "base": 5},
        "values": {"name": "x", "axes": [{"name": "seed", "values": 5}]},
        "name": {"name": 5},
    }
    for field, spec in typed.items():
        (tmp_path / f"{field}_typed.json").write_text(json.dumps(spec))
    # A store whose aggregate was cut short mid-write.
    cut = tmp_path / "store" / "campaigns" / "cut"
    cut.mkdir(parents=True)
    (cut / "aggregate.json").write_text('{"trunc')
    (tmp_path / "file").write_text("")
    return {
        "missing": tmp_path / "missing.json",
        "truncated": tmp_path / "truncated.json",
        "empty": tmp_path / "empty.json",
        # A path below a regular file: no directory can be made there.
        "blocked": tmp_path / "file" / "x",
        "store": tmp_path / "store",
        **{f"{field}_typed": tmp_path / f"{field}_typed.json" for field in typed},
    }


@pytest.mark.parametrize("argv, reason", CASES.values(), ids=CASES.keys())
def test_input_mistake_exits_2_with_one_line(argv, reason, paths, usage_error):
    argv = [arg.format(**paths) for arg in argv]
    has_action = argv[0] in ("campaign", "obs", "platforms")
    command = " ".join(argv[:2] if has_action else argv[:1])
    err = usage_error(main(argv), reason)
    assert err.startswith(f"repro {command}: ")
