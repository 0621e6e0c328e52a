"""The simulation path never imports ``scipy.optimize`` or ``scipy.integrate``.

Each is a large import for one routine the fixed-point analysis needs
(see ``repro.core.numeric``).  The check runs in a fresh interpreter,
because this test process has long since imported both.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_PROBE = """
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
Scenario(
    platform="odroid-xu3",
    apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
    policy="proposed",
    duration_s=6.0,
    seed=3,
).run()
print(json.dumps({
    "predictions": len(calls),
    "loaded": sorted(m for m in sys.modules if m.startswith("scipy.")),
}))
"""


def test_proposed_governor_run_loads_no_scipy_optimize_or_integrate():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # The run reached the time-to-violation quadrature, so "not loaded"
    # means "not needed", not "not reached".
    assert report["predictions"] > 0
    loaded = set(report["loaded"])
    assert "scipy.optimize" not in loaded
    assert "scipy.integrate" not in loaded
