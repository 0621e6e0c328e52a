"""Deterministic RNG registry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("app.game")
    b = RngRegistry(42).stream("app.game")
    assert np.allclose(a.random(16), b.random(16))


def test_different_names_independent():
    reg = RngRegistry(42)
    a = reg.stream("app.game").random(16)
    b = reg.stream("app.bml").random(16)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").random(8)
    b = RngRegistry(2).stream("x").random(8)
    assert not np.allclose(a, b)


def test_creation_order_does_not_matter():
    r1 = RngRegistry(7)
    r1.stream("a")
    first = r1.stream("b").random(8)
    r2 = RngRegistry(7)
    second = r2.stream("b").random(8)  # "a" never created here
    assert np.allclose(first, second)


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_names_sorted():
    reg = RngRegistry(0)
    reg.stream("zeta")
    reg.stream("alpha")
    assert reg.names() == ["alpha", "zeta"]


def test_negative_seed_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="non-negative"):
        RngRegistry(-1)
