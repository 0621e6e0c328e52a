"""Deterministic random-number streams.

Reproducibility policy: a single root seed per experiment, with one
independent child stream per named consumer (each app, each sensor, the DAQ).
Adding a new consumer never perturbs the draws seen by existing consumers,
because streams are derived by name via ``numpy``'s ``SeedSequence.spawn``
keyed on a stable hash of the name.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import ConfigurationError

#: The sanctioned stream-name namespaces (the text before the first
#: ``.`` of a stream name, or the whole name).  Every consumer class
#: derives its streams under one of these; ``repro lint`` rule R602
#: checks call sites against this set, so adding a new consumer class
#: means declaring its namespace here first.
#: ``calib.degrade`` is listed alongside its parent ``calib`` namespace so
#: the degradation layer's per-channel streams (``calib.degrade.<channel>``)
#: are declared explicitly even though R602 only keys on the first segment.
STREAM_NAMESPACES = frozenset(
    {"app", "calib", "calib.degrade", "daq", "faults", "ina", "sensor"}
)


class RngRegistry:
    """Hands out named, independent ``numpy`` generators from one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        if self._seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed this registry was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical stream,
        independent of creation order.
        """
        if name not in self._streams:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def names(self) -> list[str]:
        """Names of all streams created so far (sorted for determinism)."""
        return sorted(self._streams)
