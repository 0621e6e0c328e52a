"""Shared fixtures: platforms, thermal models, small ready-made simulations."""

from __future__ import annotations

import pytest

from repro.kernel.kernel import KernelConfig
from repro.sim.engine import Simulation
from repro.soc.exynos5422 import odroid_xu3
from repro.soc.snapdragon810 import nexus6p
from repro.thermal.model import ThermalModel


@pytest.fixture(scope="session")
def odroid_platform():
    return odroid_xu3()


@pytest.fixture(scope="session")
def nexus_platform():
    return nexus6p()


@pytest.fixture()
def odroid_thermal(odroid_platform):
    return ThermalModel(
        odroid_platform.thermal,
        dt_s=0.01,
        ambient_k=odroid_platform.default_ambient_k,
        initial_k=odroid_platform.initial_temp_k,
    )


@pytest.fixture()
def odroid_sim(odroid_platform):
    """A bare Odroid simulation (no apps, default kernel config)."""
    return Simulation(odroid_platform, kernel_config=KernelConfig(), seed=1)


@pytest.fixture()
def nexus_sim(nexus_platform):
    """A bare Nexus 6P simulation."""
    return Simulation(nexus_platform, kernel_config=KernelConfig(), seed=1)


@pytest.fixture()
def usage_error(capsys):
    """Check a ``repro.cli.main`` exit: bad input, reported on one line.

    ``usage_error(code, *fragments)`` asserts exit 2 and a stderr of one
    ``repro <command>: ...`` line holding every fragment (no traceback),
    and returns that line.
    """
    from repro.cli import EXIT_USAGE

    def check(code, *fragments):
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("repro "), err
        for fragment in fragments:
            assert fragment in err
        return err

    return check
