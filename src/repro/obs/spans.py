"""Lightweight span tracing for discrete decisions.

Where :class:`~repro.kernel.tracing.EventTracer` renders a flat ftrace-like
log, spans carry *structure*: parent/child nesting (a cooling-state change
caused by a governor evaluation is recorded as its child), a wall-clock
duration (how long the decision took to compute) and a simulation-clock
timestamp (when it happened in the modelled world).

The tracer is a bounded ring buffer like the kernel's: completed spans
beyond ``capacity`` drop oldest-first and are counted, never silently lost.
Finished spans are stored as typed ring columns (ids and timestamps in
``array`` buffers, attrs as an interned key tuple plus a value tuple), and
:class:`Span` objects are rebuilt when they are read; only open spans live
as objects.

Span names form a small taxonomy (``governor.update``, ``sched.migrate``,
``thermal.cooling_state``, ``thermal.trip``, ``hotplug.transition``,
``app_governor.run`` — see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.units import seconds_to_microseconds


@dataclass
class Span:
    """One finished (or in-flight) span."""

    span_id: int
    name: str
    start_wall_s: float
    start_sim_s: float
    parent_id: int | None = None
    end_wall_s: float | None = None
    end_sim_s: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float | None:
        """Wall-clock duration; None while the span is still open."""
        if self.end_wall_s is None:
            return None
        return self.end_wall_s - self.start_wall_s

    def to_dict(self) -> dict:
        """JSON-serialisable form (the ``events.jsonl`` record shape)."""
        return {
            "kind": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "sim_time_s": self.start_sim_s,
            "sim_end_s": self.end_sim_s,
            "wall_duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }

    def render(self) -> str:
        """One human-readable line (ftrace-flavoured)."""
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        dur = (
            f" ({seconds_to_microseconds(self.duration_s):.1f} us)"
            if self.duration_s is not None
            else ""
        )
        nest = f" <-{self.parent_id}" if self.parent_id is not None else ""
        body = f" {attrs}" if attrs else ""
        return f"[{self.start_sim_s:10.3f}] #{self.span_id}{nest} {self.name}{body}{dur}"


class _SpanHandle:
    """Context manager returned by :meth:`SpanTracer.span`.

    Attributes set after the ``with`` block has exited are not stored: the
    span was copied into the ring when it finished.
    """

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, **attrs) -> "_SpanHandle":
        """Attach attributes to the span; chainable."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._finish(self.span)


class SpanTracer:
    """Bounded collector of :class:`Span` with automatic nesting."""

    def __init__(
        self,
        capacity: int = 8192,
        sim_time_fn: Callable[[], float] | None = None,
        wall_time_fn: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("span tracer capacity must be >= 1")
        self.capacity = capacity
        self._sim_time = sim_time_fn or (lambda: 0.0)
        self._wall_time = wall_time_fn
        self._stack: list[Span] = []
        self._next_id = 1
        self._attr_keys: dict[tuple, tuple] = {}
        self._reset_ring()

    def _reset_ring(self) -> None:
        # One row per finished span; once ``capacity`` rows exist, row
        # ``_head`` is the oldest and the next span overwrites it.
        self._head = 0
        self._dropped = 0
        self._ids = array("q")
        self._parents = array("q")  # 0: no parent (span ids start at 1)
        self._start_wall = array("d")
        self._end_wall = array("d")
        self._start_sim = array("d")
        self._end_sim = array("d")
        self._names: list[str] = []
        self._keys: list[tuple] = []
        self._values: list[tuple] = []

    # ------------------------------------------------------------ emission

    def _new_span(self, name: str, attrs: dict) -> Span:
        stack = self._stack
        span = Span(
            self._next_id,
            name,
            self._wall_time(),
            self._sim_time(),
            stack[-1].span_id if stack else None,
            None,
            None,
            attrs,
        )
        self._next_id += 1
        return span

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a span; use as a context manager.  Nested spans get parents."""
        span = self._new_span(name, attrs)
        self._stack.append(span)
        return _SpanHandle(self, span)

    @property
    def wall_time(self) -> Callable[[], float]:
        """The wall clock spans are timed with (seconds)."""
        return self._wall_time

    def record(
        self,
        name: str,
        start_wall_s: float,
        end_wall_s: float,
        keys: tuple[str, ...],
        values: tuple,
    ) -> None:
        """Store a finished span around a region that opened no spans.

        The caller timed the region with :attr:`wall_time`; the region is
        instantaneous in simulated time (it ran inside one tick).  The
        attributes are ``dict(zip(keys, values))``.  The span gets the next
        id and the innermost open span as its parent, so it is stored
        exactly as ``with span(name, **attrs)`` around the region would
        store it, without a handle, a :class:`Span` or an attribute dict in
        between.
        """
        stack = self._stack
        sim_s = self._sim_time()
        span_id = self._next_id
        self._next_id = span_id + 1
        self._store_row(
            span_id, stack[-1].span_id if stack else 0,
            start_wall_s, end_wall_s, sim_s, sim_s, name, keys, values,
        )

    def instant(self, name: str, **attrs) -> Span:
        """A zero-duration span (a point decision, not a timed region)."""
        span = self._new_span(name, attrs)
        span.end_wall_s = span.start_wall_s
        span.end_sim_s = span.start_sim_s
        self._store(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_wall_s = self._wall_time()
        span.end_sim_s = self._sim_time()
        stack = self._stack
        # Close abandoned children too (exception unwound past them).
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        self._store(span)

    def _store(self, span: Span) -> None:
        parent = span.parent_id
        attrs = span.attrs
        self._store_row(
            span.span_id, 0 if parent is None else parent,
            span.start_wall_s, span.end_wall_s, span.start_sim_s, span.end_sim_s,
            span.name, tuple(attrs), tuple(attrs.values()),
        )

    def _store_row(
        self, span_id, parent, start_wall, end_wall, start_sim, end_sim,
        name, keys, values,
    ) -> None:
        """Write one finished span into the ring (``parent`` 0: a root)."""
        keys = self._attr_keys.setdefault(keys, keys)
        names = self._names
        if len(names) < self.capacity:
            self._ids.append(span_id)
            self._parents.append(parent)
            self._start_wall.append(start_wall)
            self._end_wall.append(end_wall)
            self._start_sim.append(start_sim)
            self._end_sim.append(end_sim)
            names.append(name)
            self._keys.append(keys)
            self._values.append(values)
            return
        i = self._head
        self._ids[i] = span_id
        self._parents[i] = parent
        self._start_wall[i] = start_wall
        self._end_wall[i] = end_wall
        self._start_sim[i] = start_sim
        self._end_sim[i] = end_sim
        names[i] = name
        self._keys[i] = keys
        self._values[i] = values
        self._head = (i + 1) % self.capacity
        self._dropped += 1

    # ------------------------------------------------------------- queries

    def _rows(self) -> Iterable[int]:
        """Row indices, oldest first."""
        return chain(range(self._head, len(self._names)), range(self._head))

    def _span_at(self, i: int) -> Span:
        parent = self._parents[i]
        return Span(
            span_id=self._ids[i],
            name=self._names[i],
            start_wall_s=self._start_wall[i],
            start_sim_s=self._start_sim[i],
            parent_id=parent if parent else None,
            end_wall_s=self._end_wall[i],
            end_sim_s=self._end_sim[i],
            attrs=dict(zip(self._keys[i], self._values[i])),
        )

    @property
    def dropped(self) -> int:
        """Finished spans lost to the ring-buffer bound."""
        return self._dropped

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans, oldest first, optionally filtered by exact name."""
        names = self._names
        return [
            self._span_at(i) for i in self._rows()
            if name is None or names[i] == name
        ]

    def by_prefix(self, prefix: str) -> list[Span]:
        """Finished spans whose name starts with ``prefix``."""
        names = self._names
        return [
            self._span_at(i) for i in self._rows()
            if names[i].startswith(prefix)
        ]

    def children_of(self, span_id: int) -> list[Span]:
        """Finished spans whose parent is ``span_id``."""
        if not span_id:
            return []  # root rows store parent 0; no span has id 0
        parents = self._parents
        return [self._span_at(i) for i in self._rows() if parents[i] == span_id]

    def to_dicts(self) -> Iterator[dict]:
        """Every finished span as a JSON-serialisable dict, oldest first."""
        for i in self._rows():
            yield self._span_at(i).to_dict()

    def render(self, limit: int | None = None) -> str:
        """The buffer as one line per span (``limit``: only the newest N)."""
        rows = list(self._rows())
        if limit is not None:
            rows = rows[-limit:] if limit > 0 else []
        lines = [self._span_at(i).render() for i in rows]
        if self._dropped:
            lines.insert(0, f"# {self._dropped} spans dropped")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop all finished spans (open spans keep nesting)."""
        self._reset_ring()

    def __len__(self) -> int:
        return len(self._names)
