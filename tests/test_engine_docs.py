"""docs/ENGINE.md must match the engine it describes."""

import inspect
import pathlib

from repro.sim.engine import Simulation
from repro.thermal.model import ThermalModel

DOC = pathlib.Path(__file__).parent.parent / "docs" / "ENGINE.md"


def test_doc_exists():
    assert DOC.exists(), "docs/ENGINE.md is part of the engine contract"


def test_discretisation_documented():
    """One discretisation section, naming the one path the model has."""
    text = DOC.read_text()
    section = text.split("## Discretisation", 1)[1].split("\n## ", 1)[0]
    assert "numpy.linalg.eigh" in section
    assert "## Integrator modes" not in text
    # No selectable integrator survives, in the code or in the doc.
    params = set(inspect.signature(ThermalModel.__init__).parameters)
    assert params == {"self", "spec", "dt_s", "ambient_k", "initial_k"}
    assert "thermal_integrator" not in inspect.signature(Simulation.__init__).parameters
    assert "integrator=" not in text


def test_default_engine_step_documented():
    dt_default = inspect.signature(Simulation.__init__).parameters["dt_s"].default
    assert dt_default == 0.01
    assert "10 ms" in DOC.read_text()
