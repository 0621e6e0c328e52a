"""No part of the runtime imports SciPy.

The simulation path takes its root finder and quadrature from
``repro.core.numeric`` and discretises the thermal network with one
``numpy.linalg.eigh`` (``repro.thermal.model``); calibration takes its
``nnls`` and ``logm`` from ``repro.core.linalg``.  SciPy is a test
dependency only, the oracle of the ports.  Each check runs in a fresh
interpreter, because this test process has long since imported it.
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
    m for m, module in sys.modules.items()
    if module is not None and (m == "scipy" or m.startswith("scipy."))
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


#: Excite, degrade and fit one platform through the CLI at a reduced scale
#: (short dwells, soak and cooldown), counting the calls that reach the
#: calibration's ``nnls`` and ``logm``.  Prints the exit codes, then the
#: call counts.
_CALIBRATION = """
import json, sys
import repro.calib
import repro.calib.fit as fit
from repro.cli import main

calls = {"nnls": 0, "logm": 0}
for name in calls:
    def counting(*args, _real=getattr(fit, name), _name=name, **kwargs):
        calls[_name] += 1
        return _real(*args, **kwargs)
    setattr(fit, name, counting)

small = ["--dwell-s", "0.4", "--soak-s", "4", "--cooldown-s", "8", "--max-opps", "3"]
codes = [
    main(["platforms", "excite", "--platform", "odroid-xu3", "--seed", "1",
          "--out", "clean.json", *small]),
    main(["platforms", "degrade", "--trace", "clean.json", "--model",
          "noisy-sysfs", "--seed", "7", "--out", "degraded.json"]),
    main(["platforms", "fit", "--trace", "clean.json", "--out", "fitted.json"]),
]
for path in ("clean.json", "degraded.json"):
    repro.calib.fit_platform(repro.calib.load_trace_file(path))
print(json.dumps(codes))
print(json.dumps(calls))
""" + _REPORT


def _probe(code: str, *argv: str, cwd=None) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd,
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


def test_the_probe_can_see_scipy():
    *_, loaded = _probe("import json, sys\nimport scipy.linalg\n" + _REPORT)
    assert "scipy.linalg" in json.loads(loaded)


def test_calibration_loads_no_scipy(tmp_path):
    """``import repro.calib``, a clean and a degraded ``fit_platform`` and
    ``repro platforms fit``: every estimator ran, none loaded SciPy."""
    *_, codes, calls, loaded = _probe(_CALIBRATION, cwd=tmp_path)
    assert json.loads(codes) == [0, 0, 0]
    calls = json.loads(calls)
    assert calls["nnls"] > 0 and calls["logm"] > 0
    assert json.loads(loaded) == []


def test_calibration_runs_without_scipy_installed(tmp_path):
    """With ``import scipy`` made to fail, the whole pipeline still runs."""
    *_, codes, calls, loaded = _probe(
        'import sys\nsys.modules["scipy"] = None\n' + _CALIBRATION, cwd=tmp_path
    )
    assert json.loads(codes) == [0, 0, 0]
    assert json.loads(calls)["logm"] > 0
    assert json.loads(loaded) == []
