"""External power measurement: the National Instruments DAQ of Section III.

The paper measures the Nexus 6P's battery power with an NI PXIe-4081 at
1 kHz.  The simulated instrument supersamples the simulator's zero-order-held
battery power with additive Gaussian noise.  Samples are retained so the
analysis layer can compute means/energies exactly the way one would from a
real capture.

The capture is kept in one growable float64 pair (times, watts) that
doubles its capacity when full: 16 bytes per sample and no per-tick
allocation that outlives the tick.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError, ConfigurationError

#: Samples the capture buffers hold before their first doubling.
INITIAL_CAPACITY = 4096


class PowerDaq:
    """1 kHz (configurable) power sampler with Gaussian measurement noise."""

    def __init__(
        self,
        rng: np.random.Generator,
        sample_rate_hz: float = 1000.0,
        noise_std_w: float = 0.02,
    ) -> None:
        if sample_rate_hz <= 0.0:
            raise ConfigurationError("DAQ sample rate must be positive")
        if noise_std_w < 0.0:
            raise ConfigurationError("DAQ noise std must be non-negative")
        self._rng = rng
        self._rate = sample_rate_hz
        self._noise = noise_std_w
        self._times = np.empty(INITIAL_CAPACITY)
        self._watts = np.empty(INITIAL_CAPACITY)
        self._size = 0
        self._next_sample_s = 0.0

    @property
    def sample_rate_hz(self) -> float:
        """Configured sampling rate."""
        return self._rate

    def capture(self, start_s: float, dt_s: float, power_w: float) -> None:
        """Record the samples falling inside ``[start_s, start_s + dt_s)``.

        The simulator holds ``power_w`` constant over the tick (ZOH), so all
        samples in the window share the mean and differ only by noise.
        """
        end_s = start_s + dt_s
        period = 1.0 / self._rate
        if self._next_sample_s < start_s:
            self._next_sample_s = start_s
        n = int((end_s - self._next_sample_s) / period) + 1
        if self._next_sample_s >= end_s:
            n = 0
        if n <= 0:
            return
        times = self._next_sample_s + period * np.arange(n)
        n = int(np.count_nonzero(times < end_s - 1e-12))
        if n == 0:
            return
        start, stop = self._size, self._size + n
        if stop > self._times.size:
            self._grow(stop)
        # ``times`` is non-decreasing, so the kept samples are a prefix.
        self._times[start:stop] = times[:n]
        watts = self._watts[start:stop]
        if self._noise > 0.0:
            np.add(self._rng.normal(0.0, self._noise, size=n), power_w, out=watts)
        else:
            watts[:] = power_w
        self._size = stop
        self._next_sample_s = float(times[n - 1]) + period

    def _grow(self, needed: int) -> None:
        capacity = self._times.size
        while capacity < needed:
            capacity *= 2
        times, watts = np.empty(capacity), np.empty(capacity)
        times[: self._size] = self._times[: self._size]
        watts[: self._size] = self._watts[: self._size]
        self._times, self._watts = times, watts

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """All captured ``(times, watts)`` so far, as read-only views.

        Later captures never write into the returned prefix, so the views
        stay valid and unchanged for as long as the caller holds them.
        """
        times = self._times[: self._size]
        watts = self._watts[: self._size]
        times.setflags(write=False)
        watts.setflags(write=False)
        return times, watts

    def mean_power_w(self, start_s: float | None = None, end_s: float | None = None) -> float:
        """Average measured power over a window (whole capture by default).

        Raises :class:`~repro.errors.CalibrationError` when the capture (or
        the requested window) is empty — a degenerate capture can never
        support a calibration-grade mean.
        """
        times, watts = self.samples()
        if times.size == 0:
            raise CalibrationError("DAQ has captured no samples")
        mask = np.ones(times.size, dtype=bool)
        if start_s is not None:
            mask &= times >= start_s
        if end_s is not None:
            mask &= times < end_s
        if not mask.any():
            raise CalibrationError("DAQ window contains no samples")
        return float(watts[mask].mean())

    def energy_j(self) -> float:
        """Integrated energy of the capture (trapezoidal).

        Raises :class:`~repro.errors.CalibrationError` on empty or
        single-sample captures: the trapezoid rule has no interval to
        integrate, and silently returning 0 J would poison energy fits.
        """
        times, watts = self.samples()
        if times.size < 2:
            raise CalibrationError(
                "need at least two DAQ samples to integrate energy"
            )
        return float(np.trapezoid(watts, times))
