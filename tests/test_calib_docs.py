"""docs/CALIBRATION.md must match the wire formats, the fit and the CLI."""

import argparse
import pathlib
import re

import pytest

from repro.calib import CALIB_TRACE_FORMAT, CalibSegment, CalibTrace
from repro.calib.fit import FIT_REPORT_FORMAT, FitReport, StageFit
from repro.calib.trace import SEGMENT_KINDS
from repro.cli import build_parser

DOC = pathlib.Path(__file__).parent.parent / "docs" / "CALIBRATION.md"

_FLAG_RE = re.compile(r"`(--[a-z][a-z-]*)")


def _subparser_choices(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subparsers found")


@pytest.fixture(scope="module")
def doc_text():
    assert DOC.exists(), "docs/CALIBRATION.md is part of the calib contract"
    return DOC.read_text()


@pytest.fixture(scope="module")
def calib_parsers():
    platforms = _subparser_choices(_subparser_choices(build_parser())["platforms"])
    return {name: platforms[name] for name in ("excite", "degrade", "fit")}


def test_wire_format_versions_documented(doc_text):
    assert f"`{CALIB_TRACE_FORMAT}`" in doc_text
    assert f"`{FIT_REPORT_FORMAT}`" in doc_text
    from repro.calib import DEGRADE_FORMAT

    assert f"`{DEGRADE_FORMAT}`" in doc_text


def test_trace_schema_keys_documented(doc_text):
    documented = set(re.findall(r"`([a-z_]+)`", doc_text))
    trace = CalibTrace(
        channels={"power.total": ([0.0], [1.0])},
        segments=[CalibSegment(name="s", kind="soak", start_s=0.0, end_s=1.0)],
    )
    missing = set(trace.to_dict()) - documented
    assert not missing, f"trace keys missing from the doc: {sorted(missing)}"
    seg_missing = set(trace.segments[0].to_dict()) - documented
    assert not seg_missing, f"segment keys missing: {sorted(seg_missing)}"


def test_segment_kinds_documented(doc_text):
    for kind in SEGMENT_KINDS:
        assert f"`{kind}`" in doc_text, f"segment kind {kind!r} missing"


def test_channel_prefixes_documented(doc_text):
    from repro.calib import trace as trace_mod

    prefixes = [
        value for name, value in vars(trace_mod).items()
        if name.endswith("_PREFIX")
    ]
    assert prefixes, "trace module exports no channel prefixes"
    for prefix in prefixes:
        assert f"`{prefix}<" in doc_text, f"prefix {prefix!r} missing"


def test_stage_names_documented(doc_text):
    report = FitReport(platform_hint="x", stages=(
        StageFit(stage="memory", params={}, residual_rms=0.0, n_samples=1),
        StageFit(stage="board", params={}, residual_rms=0.0, n_samples=1),
        StageFit(stage="rc", params={}, residual_rms=0.0, n_samples=1),
    ))
    for stage in report.stage_names():
        assert f"`{stage}`" in doc_text, f"stage {stage!r} missing"
    assert "`dvfs.<domain>`" in doc_text
    assert "`leakage.<domain>`" in doc_text


def test_error_taxonomy_documented(doc_text):
    for error in ("CalibrationError", "StabilityError", "ConfigurationError"):
        assert f"`{error}`" in doc_text, f"error {error!r} missing"


def test_every_cli_flag_documented(doc_text, calib_parsers):
    documented = set(_FLAG_RE.findall(doc_text))
    for name, sub in calib_parsers.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    assert flag in documented, (
                        f"platforms {name} flag {flag} missing from the doc"
                    )
    # Nothing documented may be stale anywhere in the platforms CLI.
    platforms = _subparser_choices(_subparser_choices(build_parser())["platforms"])
    all_flags = {
        flag
        for sub in platforms.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    stale = documented - all_flags
    assert not stale, f"documented but not in build_parser(): {sorted(stale)}"


def test_rng_stream_namespace_documented(doc_text):
    from repro.sim.rng import STREAM_NAMESPACES

    assert "calib" in STREAM_NAMESPACES
    assert "`calib.excite`" in doc_text
    assert "STREAM_NAMESPACES" in doc_text


def test_degrade_stream_namespace_documented(doc_text):
    from repro.sim.rng import STREAM_NAMESPACES

    assert "calib.degrade" in STREAM_NAMESPACES
    assert "`calib.degrade`" in doc_text


def test_tolerances_documented(doc_text):
    # The closed-loop contract numbers must appear (5 % params, 2 % run),
    # plus the degraded-trace tolerances (10 % params, 3 % run).
    assert "5 %" in doc_text and "2 %" in doc_text
    assert "10 %" in doc_text and "3 %" in doc_text


def test_degradation_knobs_documented(doc_text):
    import dataclasses

    from repro.calib import DegradationModel

    documented = set(re.findall(r"`([a-z_]+)`", doc_text))
    knobs = {f.name for f in dataclasses.fields(DegradationModel)}
    missing = knobs - documented
    assert not missing, f"degradation knobs missing from the doc: {sorted(missing)}"


def test_builtin_degradation_models_documented(doc_text):
    from repro.calib import BUILTIN_MODELS

    for name in BUILTIN_MODELS:
        assert f"`{name}`" in doc_text, f"built-in model {name!r} missing"


def test_verdicts_and_grades_documented(doc_text):
    from repro.calib import VERDICTS
    from repro.calib.robust import CONFIDENCE_GRADES

    for verdict in VERDICTS:
        assert f"`{verdict}`" in doc_text, f"verdict {verdict!r} missing"
    for grade in CONFIDENCE_GRADES:
        assert f"`{grade}`" in doc_text, f"grade {grade!r} missing"


def test_robust_modes_documented(doc_text):
    from repro.calib import ROBUST_MODES

    for mode in ROBUST_MODES:
        assert f"`{mode}`" in doc_text, f"robust mode {mode!r} missing"


def test_exit_codes_documented(doc_text):
    from repro.cli import EXIT_DEGRADED_FIT, EXIT_USAGE

    assert f"`{EXIT_USAGE}`" in doc_text
    assert f"`{EXIT_DEGRADED_FIT}`" in doc_text
