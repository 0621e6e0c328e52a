"""Typed record buffers store exactly what the object-per-sample ones did.

Each property keeps the previous, object-per-sample algorithm as its
oracle and requires bit-identical results: trace channels against
``np.array([float(v) ...])``, the DAQ against its per-tick chunk capture,
and the span tracer against a deque of :class:`Span` objects.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.obs.spans import Span, SpanTracer, _SpanHandle
from repro.power.daq import PowerDaq
from repro.sim.trace import TraceChannel


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# ------------------------------------------------------------ TraceChannel

#: Every kind of value the engine hands a channel: Python floats with their
#: edge cases (signed zeros, NaN, infinities, subnormals), ints, bools and
#: numpy scalars.
sample_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
)
time_steps = st.floats(min_value=0.0, max_value=1e3, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(st.tuples(time_steps, sample_values), max_size=60),
    read_every=st.integers(min_value=1, max_value=10),
)
def test_trace_channel_round_trips_bit_for_bit(samples, read_every):
    channel = TraceChannel("x")
    times, values = [], []
    t = 0.0
    for k, (step, value) in enumerate(samples):
        t += step
        channel.append(t, value)
        times.append(t)
        values.append(value)
        assert _bits([channel.last()]) == _bits([float(value)])
        if k % read_every == 0:
            # Reading the cached arrays must not pin the buffers: the next
            # append would raise BufferError if they were views.
            assert _bits(channel.times) == _bits([float(x) for x in times])
    assert len(channel) == len(samples)
    assert _bits(channel.times) == _bits(np.array([float(x) for x in times]))
    assert _bits(channel.values) == _bits(np.array([float(v) for v in values]))
    assert channel.times.dtype == channel.values.dtype == np.float64
    assert not channel.times.flags.writeable
    assert not channel.values.flags.writeable


@given(
    start=st.floats(min_value=-1e6, max_value=1e6),
    back=st.floats(min_value=1e-9, max_value=1e3),
)
def test_trace_channel_rejects_time_going_backwards(start, back):
    channel = TraceChannel("x")
    channel.append(start, 1.0)
    _ = channel.times  # a cached read must not change the check
    with pytest.raises(AnalysisError):
        channel.append(start - back, 2.0)
    assert len(channel) == 1


def test_trace_channel_last_on_empty_raises():
    with pytest.raises(AnalysisError):
        TraceChannel("x").last()


# ------------------------------------------------------------------ PowerDaq


class _ChunkDaq:
    """The per-tick chunk capture that PowerDaq replaced (the oracle)."""

    def __init__(self, rng, sample_rate_hz, noise_std_w):
        self._rng = rng
        self._rate = sample_rate_hz
        self._noise = noise_std_w
        self._chunks = []
        self._time_chunks = []
        self._next_sample_s = 0.0

    def capture(self, start_s, dt_s, power_w):
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
        times = times[times < end_s - 1e-12]
        n = times.size
        if n == 0:
            return
        samples = np.full(n, power_w)
        if self._noise > 0.0:
            samples = samples + self._rng.normal(0.0, self._noise, size=n)
        self._chunks.append(samples)
        self._time_chunks.append(times)
        self._next_sample_s = float(times[-1]) + period

    def samples(self):
        if not self._chunks:
            return np.empty(0), np.empty(0)
        return np.concatenate(self._time_chunks), np.concatenate(self._chunks)


#: One tick: (gap before it, tick length, battery power).  Gaps model a
#: paused capture; most ticks follow on directly, as in the engine.
ticks = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.0037, 0.25]),
    st.sampled_from([0.01, 0.001, 0.05]) | st.floats(min_value=1e-4, max_value=0.2),
    st.floats(min_value=0.0, max_value=20.0),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    rate=st.sampled_from([1000.0, 10.0, 333.0, 997.0, 44100.0])
    | st.floats(min_value=1.0, max_value=5000.0),
    noise=st.sampled_from([0.0, 0.02]) | st.floats(min_value=0.0, max_value=1.0),
    sequence=st.lists(ticks, max_size=120),
)
def test_daq_buffer_matches_chunk_capture(seed, rate, noise, sequence):
    new = PowerDaq(np.random.default_rng(seed), sample_rate_hz=rate, noise_std_w=noise)
    old = _ChunkDaq(np.random.default_rng(seed), rate, noise)
    now = 0.0
    for gap, dt, power in sequence:
        now += gap
        new.capture(now, dt, power)
        old.capture(now, dt, power)
        now += dt
    (t_new, w_new), (t_old, w_old) = new.samples(), old.samples()
    assert _bits(t_new) == _bits(t_old)
    assert _bits(w_new) == _bits(w_old)
    assert t_new.dtype == w_new.dtype == np.float64
    # The random stream is where the chunk capture left it.
    assert new._rng.random() == old._rng.random()


def test_daq_samples_are_stable_read_only_views():
    daq = PowerDaq(np.random.default_rng(0), noise_std_w=0.02)
    for i in range(100):
        daq.capture(i * 0.01, 0.01, 2.0)
    times, watts = daq.samples()
    kept = times.copy(), watts.copy()
    for i in range(100, 10_000):  # several capacity doublings later
        daq.capture(i * 0.01, 0.01, 3.0)
    assert not times.flags.writeable and not watts.flags.writeable
    assert _bits(times) == _bits(kept[0]) and _bits(watts) == _bits(kept[1])
    assert daq.samples()[0].size == 100_000


# ---------------------------------------------------------------- SpanTracer


class _DequeSpanTracer:
    """The deque-of-Span tracer that SpanTracer replaced (the oracle)."""

    def __init__(self, capacity, sim_time_fn, wall_time_fn):
        self.capacity = capacity
        self._sim_time = sim_time_fn
        self._wall_time = wall_time_fn
        self._finished = deque(maxlen=capacity)
        self._stack = []
        self._next_id = 1
        self.dropped = 0

    def _new_span(self, name, attrs):
        span = Span(
            span_id=self._next_id, name=name,
            start_wall_s=self._wall_time(), start_sim_s=self._sim_time(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            attrs=attrs,
        )
        self._next_id += 1
        return span

    def span(self, name, **attrs):
        span = self._new_span(name, attrs)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def instant(self, name, **attrs):
        span = self._new_span(name, attrs)
        span.end_wall_s = span.start_wall_s
        span.end_sim_s = span.start_sim_s
        self._store(span)
        return span

    def _finish(self, span):
        span.end_wall_s = self._wall_time()
        span.end_sim_s = self._sim_time()
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._store(span)

    def _store(self, span):
        if len(self._finished) == self.capacity:
            self.dropped += 1
        self._finished.append(span)

    def spans(self, name=None):
        return [s for s in self._finished if name is None or s.name == name]

    def by_prefix(self, prefix):
        return [s for s in self._finished if s.name.startswith(prefix)]

    def children_of(self, span_id):
        return [s for s in self._finished if s.parent_id == span_id]

    def to_dicts(self):
        return [s.to_dict() for s in self._finished]

    def render(self, limit=None):
        finished = list(self._finished)
        if limit is not None:
            finished = finished[-limit:] if limit > 0 else []
        lines = [s.render() for s in finished]
        if self.dropped:
            lines.insert(0, f"# {self.dropped} spans dropped")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self):
        return len(self._finished)


class _Ticker:
    """A deterministic clock: each read advances by a fixed step."""

    def __init__(self, step):
        self.t, self.step = 0.0, step

    def __call__(self):
        self.t += self.step
        return self.t


names = st.sampled_from(["governor.update", "thermal.trip", "sched.migrate", "x"])
attrs = st.dictionaries(
    st.sampled_from(["domain", "zone", "freq_hz", "temp_c", "state", "a"]),
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
              st.none(), st.booleans()),
    max_size=3,
)
ops = st.one_of(
    st.tuples(st.just("open"), names, attrs),
    st.tuples(st.just("instant"), names, attrs),
    st.tuples(st.just("set"), attrs),
    st.tuples(st.just("close"), st.integers(min_value=0, max_value=3)),
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), script=st.lists(ops, max_size=60))
def test_span_ring_matches_deque_of_spans(capacity, script):
    tracers = []
    for cls in (SpanTracer, _DequeSpanTracer):
        tracer = cls(capacity, _Ticker(0.125), _Ticker(1e-6))
        tracers.append((tracer, []))
    for op in script:
        for tracer, handles in tracers:
            if op[0] == "open":
                handles.append(tracer.span(op[1], **op[2]))
            elif op[0] == "instant":
                tracer.instant(op[1], **op[2])
            elif op[0] == "set" and handles:
                handles[-1].set(**op[1])
            elif op[0] == "close" and handles:
                # Closing below the top unwinds past the inner spans, as an
                # exception does; they are never stored.
                depth = min(op[1], len(handles) - 1)
                handle = handles[-1 - depth]
                del handles[-1 - depth:]
                handle.__exit__(None, None, None)
    (new, _), (old, _) = tracers
    assert list(new.to_dicts()) == old.to_dicts()
    assert new.render() == old.render()
    assert new.render(limit=2) == old.render(limit=2)
    assert new.dropped == old.dropped and len(new) == len(old)
    assert new.spans() == old.spans()
    assert new.spans("x") == old.spans("x")
    assert new.by_prefix("thermal.") == old.by_prefix("thermal.")
    for span in old.spans():
        assert new.children_of(span.span_id) == old.children_of(span.span_id)
    assert new.children_of(0) == old.children_of(0) == []
