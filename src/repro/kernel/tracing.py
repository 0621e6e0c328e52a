"""Kernel event tracing (an ftrace-flavoured ring buffer).

Scenario debugging needs the *sequence* of discrete events — migrations,
cooling-state changes, hotplug, governor decisions — not just the sampled
traces.  The :class:`EventTracer` is a bounded ring buffer the kernel and
userspace daemons emit into; it renders in an ftrace-like one-line format
and is exposed at ``/sys/kernel/debug/tracing/trace`` (with a writable
``trace_marker``, like the real thing).

When wired to a :class:`~repro.obs.metrics.MetricsRegistry` the tracer
exports its health: total/dropped event counters and buffer occupancy, so
silent ring-buffer overflow is visible in every metrics export.  The first
drop additionally logs a one-line warning.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError

log = logging.getLogger(__name__)


class SlottedRecord:
    """Base of the frozen record dataclasses a run keeps by the thousand.

    ``dataclass(slots=True)`` needs Python 3.10, so each subclass declares
    ``__slots__`` by hand, in field order: no per-instance ``__dict__``.
    Default pickling restores slots with ``setattr``, which a frozen
    dataclass refuses, so records pickle through their constructor.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True, init=False)
class TraceEvent(SlottedRecord):
    """One discrete kernel event."""

    __slots__ = ("time_s", "source", "event", "detail")

    time_s: float
    source: str
    event: str
    detail: str

    def __init__(
        self, time_s: float, source: str, event: str, detail: str = ""
    ) -> None:
        # A slot cannot carry a class-level default, hence the hand-written
        # constructor; frozen fields are set the way dataclass does it.
        for name, value in zip(self.__slots__, (time_s, source, event, detail)):
            object.__setattr__(self, name, value)

    def render(self) -> str:
        """One ftrace-like line."""
        detail = f" {self.detail}" if self.detail else ""
        return f"[{self.time_s:10.3f}] {self.source}: {self.event}{detail}"


class EventTracer:
    """Bounded ring buffer of :class:`TraceEvent`."""

    def __init__(self, capacity: int = 10000, metrics=None) -> None:
        if capacity < 1:
            raise ConfigurationError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0
        self._m_total = self._m_dropped = self._m_occupancy = None
        if metrics is not None:
            self._m_total = metrics.counter(
                "repro_tracer_events_total", "Events emitted into the ring buffer"
            )
            self._m_dropped = metrics.counter(
                "repro_tracer_events_dropped_total",
                "Events lost to the ring-buffer bound",
            )
            self._m_occupancy = metrics.gauge(
                "repro_tracer_buffer_occupancy",
                "Events currently held in the ring buffer",
            )
            metrics.gauge(
                "repro_tracer_buffer_capacity", "Ring-buffer capacity"
            ).set(capacity)

    def emit(self, time_s: float, source: str, event: str, detail: str = "") -> None:
        """Record one event (oldest events are dropped when full)."""
        if len(self._events) == self.capacity:
            if self._dropped == 0:
                log.warning(
                    "event tracer ring buffer full (capacity %d): "
                    "oldest events are being dropped",
                    self.capacity,
                )
            self._dropped += 1
            if self._m_dropped is not None:
                self._m_dropped.inc()
        self._events.append(TraceEvent(time_s, source, event, detail))
        if self._m_total is not None:
            self._m_total.inc()
            self._m_occupancy.set(len(self._events))

    @property
    def dropped(self) -> int:
        """Events lost to the ring-buffer bound."""
        return self._dropped

    def events(
        self, source: str | None = None, event: str | None = None
    ) -> list[TraceEvent]:
        """Events matching the optional source/event filters, oldest first."""
        out = []
        for entry in self._events:
            if source is not None and entry.source != source:
                continue
            if event is not None and entry.event != event:
                continue
            out.append(entry)
        return out

    def render(self) -> str:
        """The whole buffer in ftrace-like lines."""
        lines = [entry.render() for entry in self._events]
        if self._dropped:
            lines.insert(0, f"# {self._dropped} events dropped")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Empty the buffer."""
        self._events.clear()
        self._dropped = 0
        if self._m_occupancy is not None:
            self._m_occupancy.set(0)

    def __len__(self) -> int:
        return len(self._events)
