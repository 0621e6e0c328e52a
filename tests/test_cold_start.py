"""Nothing outside ``repro.calib`` imports SciPy.

The simulation path takes its root finder and quadrature from
``repro.core.numeric`` and discretises the thermal network with one
``numpy.linalg.eigh`` (``repro.thermal.model``), so SciPy is loaded only
by the calibration package (``nnls``, ``logm``).  Each check runs in a
fresh interpreter, because this test process has long since imported it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_REPORT = """
print(json.dumps(sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)))
"""

_SCENARIOS = """
import json, sys
import repro, repro.cli, repro.experiments.odroid, repro.campaign.runner
import repro.core.governor as governor
from repro.sim.experiment import AppSpec, Scenario

calls = []
real = governor.time_to_temperature_s

def counting(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)

governor.time_to_temperature_s = counting
for policy in ("stock", "proposed"):
    Scenario(
        platform="odroid-xu3",
        apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
        policy=policy,
        duration_s=6.0,
        seed=3,
    ).run()
print(len(calls))
""" + _REPORT

_CLI = """
import json, sys
from repro.cli import main

try:
    main(sys.argv[1:])
except SystemExit:
    pass
""" + _REPORT


def _probe(code: str, *argv: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_stock_and_proposed_runs_load_no_scipy():
    *out, loaded = _probe(_SCENARIOS)
    # The proposed run reached the time-to-violation quadrature, so "not
    # loaded" means "not needed", not "not reached".
    assert int(out[-1]) > 0
    assert json.loads(loaded) == []


@pytest.mark.parametrize("argv", [
    ("--help",), ("lint",), ("stability", "--power", "2.0"),
    ("obs", "check", "--campaign", "smoke", "--slo", "chaos-hardening",
     "--store"),
], ids=lambda argv: argv[0])
def test_cli_entry_point_loads_no_scipy(argv, tmp_path):
    if argv[-1] == "--store":
        argv += (str(tmp_path),)
    *_, loaded = _probe(_CLI, *argv)
    assert json.loads(loaded) == []


def test_calibration_still_loads_scipy():
    """The one remaining user; also shows the probe can see SciPy."""
    *_, loaded = _probe("import json, sys\nimport repro.calib\n" + _REPORT)
    assert {"scipy.linalg", "scipy.optimize"} <= set(json.loads(loaded))
