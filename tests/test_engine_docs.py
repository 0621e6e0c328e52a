"""docs/ENGINE.md must match the engine it describes."""

import pathlib
import re

from repro.thermal.model import ThermalModel

DOC = pathlib.Path(__file__).parent.parent / "docs" / "ENGINE.md"


def test_doc_exists():
    assert DOC.exists(), "docs/ENGINE.md is part of the engine contract"


def test_integrator_modes_documented():
    text = DOC.read_text()
    for mode in ThermalModel.INTEGRATORS:
        assert f"`{mode}`" in text, f"integrator {mode!r} missing from the doc"
    # And no phantom modes: every documented backticked mode exists.
    section = text.split("## Integrator modes", 1)[1].split("##", 1)[0]
    documented = set(re.findall(r"^\* `([a-z0-9_]+)`", section, re.MULTILINE))
    assert documented == set(ThermalModel.INTEGRATORS)


def test_default_engine_step_documented():
    from repro.sim.engine import Simulation
    import inspect

    dt_default = inspect.signature(Simulation.__init__).parameters["dt_s"].default
    assert dt_default == 0.01
    assert "10 ms" in DOC.read_text()
