"""Operating performance points (OPPs) and OPP tables.

An OPP pairs a clock frequency with the supply voltage required to run at
that frequency.  DVFS actors (cpufreq governors, cooling devices, the power
model) all work in terms of an :class:`OppTable` — an immutable, ascending
list of OPPs mirroring the ``opp-table`` device-tree nodes of a real SoC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.units import hz_to_khz, hz_to_mhz, mhz


@dataclass(frozen=True)
class OperatingPoint:
    """A single frequency/voltage pair."""

    freq_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.freq_hz <= 0.0:
            raise ConfigurationError(f"OPP frequency must be positive: {self.freq_hz}")
        if self.voltage_v <= 0.0:
            raise ConfigurationError(f"OPP voltage must be positive: {self.voltage_v}")


class OppTable:
    """Immutable ascending table of :class:`OperatingPoint` entries.

    Frequencies must be strictly increasing and voltages non-decreasing —
    running faster never takes less voltage on real silicon, and several
    governor algorithms (notably IPA's power tables) rely on this
    monotonicity.
    """

    def __init__(self, points: Iterable[OperatingPoint]) -> None:
        pts = tuple(points)
        if len(pts) < 2:
            raise ConfigurationError("an OPP table needs at least two points")
        for prev, cur in zip(pts, pts[1:]):
            if cur.freq_hz <= prev.freq_hz:
                raise ConfigurationError(
                    f"OPP frequencies must be strictly increasing: "
                    f"{cur.freq_hz} after {prev.freq_hz}"
                )
            if cur.voltage_v < prev.voltage_v:
                raise ConfigurationError(
                    f"OPP voltages must be non-decreasing: "
                    f"{cur.voltage_v} after {prev.voltage_v}"
                )
        self._points = pts
        self._freqs = tuple(p.freq_hz for p in pts)
        self._voltages = tuple(p.voltage_v for p in pts)
        # Exact grid frequencies resolve by one dict lookup to what the
        # tolerant scan returns for them; other values fall back to the scan.
        self._index = {f: self._scan(f) for f in self._freqs}

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "OppTable":
        """Build a table from ``(freq_hz, voltage_v)`` tuples."""
        return cls(OperatingPoint(f, v) for f, v in pairs)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> OperatingPoint:
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OppTable):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    @property
    def min_freq_hz(self) -> float:
        """Lowest supported frequency."""
        return self._points[0].freq_hz

    @property
    def max_freq_hz(self) -> float:
        """Highest supported frequency."""
        return self._points[-1].freq_hz

    def frequencies_hz(self) -> tuple[float, ...]:
        """All frequencies, ascending."""
        return self._freqs

    def voltages_v(self) -> tuple[float, ...]:
        """Supply voltage of every OPP, in table order."""
        return self._voltages

    def frequencies_khz(self) -> tuple[int, ...]:
        """All frequencies in kilohertz (the cpufreq sysfs unit), ascending."""
        return tuple(hz_to_khz(p.freq_hz) for p in self._points)

    def _scan(self, freq_hz: float) -> int | None:
        """First OPP within 0.5 Hz of ``freq_hz``, or None."""
        for i, f in enumerate(self._freqs):
            if abs(f - freq_hz) <= 0.5:
                return i
        return None

    def index_of(self, freq_hz: float) -> int:
        """Index of the OPP within 0.5 Hz of ``freq_hz``; raises if absent."""
        i = self._index.get(freq_hz)
        if i is None:
            i = self._scan(freq_hz)
            if i is None:
                raise ConfigurationError(f"{freq_hz} Hz is not an OPP of this table")
        return i

    def voltage_for(self, freq_hz: float) -> float:
        """Supply voltage of the OPP within 0.5 Hz of ``freq_hz``."""
        return self._voltages[self.index_of(freq_hz)]

    def floor(self, freq_hz: float) -> OperatingPoint:
        """Highest OPP whose frequency does not exceed ``freq_hz``.

        Clamps to the lowest OPP when ``freq_hz`` is below the table.
        """
        chosen = self._points[0]
        for p in self._points:
            if p.freq_hz <= freq_hz + 0.5:
                chosen = p
            else:
                break
        return chosen

    def ceil(self, freq_hz: float) -> OperatingPoint:
        """Lowest OPP whose frequency is at least ``freq_hz``.

        Clamps to the highest OPP when ``freq_hz`` is above the table.
        Frequency governors use this to pick the slowest speed that still
        meets a demand.
        """
        for p in self._points:
            if p.freq_hz + 0.5 >= freq_hz:
                return p
        return self._points[-1]

    def clamp(self, freq_hz: float) -> float:
        """Clamp an arbitrary frequency into the table's range."""
        return min(max(freq_hz, self.min_freq_hz), self.max_freq_hz)

    def capped(self, max_freq_hz: float) -> tuple[OperatingPoint, ...]:
        """All OPPs at or below ``max_freq_hz`` (at least the lowest one)."""
        allowed = tuple(p for p in self._points if p.freq_hz <= max_freq_hz + 0.5)
        return allowed if allowed else (self._points[0],)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        points = ", ".join(f"{hz_to_mhz(p.freq_hz):.0f}" for p in self._points)
        return f"OppTable([{points}] MHz)"


def voltage_ladder(
    freqs_mhz: Sequence[int], v_min: float, v_max: float
) -> OppTable:
    """Linear voltage/frequency ladder between the table's endpoints.

    Real OPP tables pair each frequency with a calibrated supply voltage;
    when only the endpoints are known, a linear interpolation between
    ``v_min`` (at the lowest frequency) and ``v_max`` (at the highest) is
    the standard approximation.  Voltages are rounded to 0.1 mV, matching
    the granularity of device-tree OPP entries.
    """
    freqs = tuple(freqs_mhz)
    if len(freqs) < 2:
        raise ConfigurationError("a voltage ladder needs at least two frequencies")
    lo, hi = freqs[0], freqs[-1]
    if hi <= lo:
        raise ConfigurationError(
            f"voltage ladder frequencies must ascend: {lo}..{hi} MHz"
        )
    if v_max < v_min:
        raise ConfigurationError(
            f"voltage ladder needs v_min <= v_max, got {v_min}..{v_max} V"
        )
    pairs = []
    for f in freqs:
        volt = v_min + (v_max - v_min) * (f - lo) / (hi - lo)
        pairs.append((mhz(f), round(volt, 4)))
    return OppTable.from_pairs(pairs)
