"""Time-series trace recording for simulations.

A :class:`TraceRecorder` collects named scalar channels sampled at arbitrary
times.  Channels are created lazily on first ``record``.  Analyses consume
traces through :meth:`TraceRecorder.series`, which returns ``(times, values)``
as numpy arrays, or :meth:`TraceRecorder.channel` for the raw channel object.
"""

from __future__ import annotations

from array import array
from typing import Iterable

import numpy as np

from repro.errors import AnalysisError


class TraceChannel:
    """One named scalar time series.

    Samples live in two typed ``array('d')`` buffers: 16 bytes per sample
    (a list of boxed floats costs 32 bytes per value).  The numpy arrays returned by
    :attr:`times`/:attr:`values` are cached and invalidated on
    :meth:`append` — analyses poll channels far more often than the engine
    appends, and rebuilding the arrays was an O(n) copy per access on hot
    channels.  They are copies, not views: an ``array`` that exports its
    buffer cannot grow, so a view would make the next append raise
    ``BufferError``.  The cached arrays are marked read-only so a consumer
    cannot corrupt the shared copy.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._times = array("d")
        self._values = array("d")
        self._times_arr: np.ndarray | None = None
        self._values_arr: np.ndarray | None = None

    def append(self, time_s: float, value: float) -> None:
        """Record ``value`` at ``time_s``; times must be non-decreasing."""
        if self._times and time_s < self._times[-1]:
            raise AnalysisError(
                f"channel {self.name!r}: time went backwards "
                f"({time_s} < {self._times[-1]})"
            )
        self._times.append(float(time_s))
        self._values.append(float(value))
        self._times_arr = None
        self._values_arr = None

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Sample times in seconds (cached, read-only)."""
        if self._times_arr is None:
            self._times_arr = np.array(self._times, dtype=float)
            self._times_arr.setflags(write=False)
        return self._times_arr

    @property
    def values(self) -> np.ndarray:
        """Sample values (cached, read-only)."""
        if self._values_arr is None:
            self._values_arr = np.array(self._values, dtype=float)
            self._values_arr.setflags(write=False)
        return self._values_arr

    def last(self) -> float:
        """Most recent value; raises if the channel is empty."""
        if not self._values:
            raise AnalysisError(f"channel {self.name!r} is empty")
        return self._values[-1]


class TraceRecorder:
    """Lazily-created collection of :class:`TraceChannel` objects."""

    def __init__(self) -> None:
        self._channels: dict[str, TraceChannel] = {}

    def record(self, name: str, time_s: float, value: float) -> None:
        """Append one sample to channel ``name`` (created if absent)."""
        channel = self._channels.get(name)
        if channel is None:
            channel = TraceChannel(name)
            self._channels[name] = channel
        channel.append(time_s, value)

    def record_many(self, time_s: float, samples: dict[str, float]) -> None:
        """Append one sample per (name, value) pair at a shared timestamp."""
        for name, value in samples.items():
            self.record(name, time_s, value)

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def names(self) -> list[str]:
        """Sorted names of all channels recorded so far."""
        return sorted(self._channels)

    def channel(self, name: str) -> TraceChannel:
        """Return the channel object for ``name``; raises if unknown."""
        try:
            return self._channels[name]
        except KeyError:
            raise AnalysisError(
                f"no trace channel {name!r}; available: {self.names()}"
            ) from None

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` arrays for channel ``name``."""
        channel = self.channel(name)
        return channel.times, channel.values

    def window(
        self, name: str, start_s: float, end_s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the samples of ``name`` with start_s <= t < end_s."""
        times, values = self.series(name)
        mask = (times >= start_s) & (times < end_s)
        return times[mask], values[mask]

    def merge_prefixed(self, other: "TraceRecorder", prefix: str) -> None:
        """Copy every channel of ``other`` into this recorder as ``prefix.name``."""
        for name in other.names():
            src = other.channel(name)
            dst_name = f"{prefix}.{name}"
            for t, v in zip(src.times, src.values):
                self.record(dst_name, float(t), float(v))


def resample_zoh(
    times: Iterable[float], values: Iterable[float], grid: np.ndarray
) -> np.ndarray:
    """Zero-order-hold resample a series onto ``grid``.

    Grid points before the first sample take the first value.  Used by the
    analysis layer to align channels recorded at different rates.
    """
    times = np.asarray(list(times), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if times.size == 0:
        raise AnalysisError("cannot resample an empty series")
    idx = np.searchsorted(times, grid, side="right") - 1
    idx = np.clip(idx, 0, times.size - 1)
    return values[idx]
