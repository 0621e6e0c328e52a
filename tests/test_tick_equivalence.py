"""The lean tick against the code it replaced: same answers, bit for bit.

Each property keeps the replaced implementation here as its oracle:

* ``OppTable.index_of``/``voltage_for`` answer from a dict of the exact
  grid frequencies; the oracle is the tolerant linear scan;
* ``_weighted_water_fill`` returns early for dust capacity and for a
  single active consumer; the oracle is the original round loop;
* IPA's power tables share one leakage factor across a domain's OPPs; the
  oracle is the original per-OPP ``dynamic + leakage`` product;
* ``SpanTracer.record`` stores a finished span directly; the oracle is the
  ``with span(...)`` block it replaces.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.kernel.kernel import LoadScaledActor
from repro.kernel.scheduler import _weighted_water_fill
from repro.kernel.thermal.cooling import DvfsCoolingDevice
from repro.obs.spans import SpanTracer
from repro.soc import registry
from repro.soc.power_model import dynamic_power_w

PLATFORMS = registry.platform_names()


def _bits(x: float) -> str:
    return float(x).hex()


# ------------------------------------------------------------------- OPPs


def _scan_index(table, freq_hz):
    for i, p in enumerate(table):
        if abs(p.freq_hz - freq_hz) <= 0.5:
            return i
    raise ConfigurationError(f"{freq_hz} Hz is not an OPP of this table")


def _opp_tables():
    for name in PLATFORMS:
        platform = registry.build(name)
        for cluster in platform.clusters:
            yield cluster.opps
        yield platform.gpu.opps


OPP_TABLES = list(_opp_tables())


@settings(max_examples=300, deadline=None)
@given(
    table=st.sampled_from(OPP_TABLES),
    pick=st.integers(min_value=0, max_value=63),
    offset=st.one_of(
        st.just(0.0),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-2.0, max_value=2.0),
    ),
)
def test_index_of_matches_the_linear_scan(table, pick, offset):
    freq = table[pick % len(table)].freq_hz + offset
    try:
        expected = _scan_index(table, freq)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            table.index_of(freq)
        with pytest.raises(ConfigurationError):
            table.voltage_for(freq)
        return
    assert table.index_of(freq) == expected
    assert table.voltage_for(freq) == table[expected].voltage_v


def test_every_grid_frequency_resolves_exactly():
    for table in OPP_TABLES:
        assert table.frequencies_hz() is table.frequencies_hz()
        for i, point in enumerate(table):
            assert table.index_of(point.freq_hz) == _scan_index(table, point.freq_hz) == i
            assert table.voltage_for(point.freq_hz) == point.voltage_v


# ------------------------------------------------------------- water fill


def _old_water_fill(capacity, ceilings, weights):
    n = len(ceilings)
    allocation = [0.0] * n
    if n == 0 or capacity <= 0.0:
        return allocation
    active = [i for i in range(n) if ceilings[i] > 0.0]
    remaining = capacity
    while active and remaining > 1e-12:
        total_weight = sum(weights[i] for i in active)
        saturated = []
        for i in active:
            share = remaining * weights[i] / total_weight
            if share >= ceilings[i] - allocation[i] - 1e-12:
                saturated.append(i)
        if not saturated:
            for i in active:
                allocation[i] += remaining * weights[i] / total_weight
            break
        for i in saturated:
            grant = ceilings[i] - allocation[i]
            allocation[i] = ceilings[i]
            remaining -= grant
            active.remove(i)
    return allocation


ceiling = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e8, allow_nan=False)
)
weight = st.one_of(
    st.just(1.0),
    st.sampled_from([1.25 ** -n for n in range(-5, 6)]),
    st.floats(min_value=1e-3, max_value=1e3),
)


@settings(max_examples=500, deadline=None)
@given(
    capacity=st.one_of(
        st.just(0.0), st.just(1e-12), st.floats(min_value=0.0, max_value=4e8)
    ),
    consumers=st.lists(st.tuples(ceiling, weight), min_size=0, max_size=6),
)
def test_water_fill_matches_the_old_loop(capacity, consumers):
    ceilings = [c for c, _ in consumers]
    weights = [w for _, w in consumers]
    new = _weighted_water_fill(capacity, list(ceilings), list(weights))
    old = _old_water_fill(capacity, list(ceilings), list(weights))
    assert [_bits(x) for x in new] == [_bits(x) for x in old]


# ------------------------------------------------------------- IPA tables


def _old_leakage_w(params, temp_k, voltage_v):
    return (
        params.kappa_w_per_k2
        * temp_k
        * temp_k
        * math.exp(-params.beta_k / temp_k)
        * (voltage_v / params.v_ref)
    )


def _old_worst_case_w(spec, busy, freq_hz, temp_k):
    voltage = spec.opps.voltage_for(freq_hz)
    dyn = spec.idle_power_w * 1.0 + dynamic_power_w(
        spec.ceff_w_per_v2hz, voltage, freq_hz, busy
    )
    return dyn + _old_leakage_w(spec.leakage, temp_k, voltage)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(PLATFORMS),
    temp_k=st.floats(min_value=250.0, max_value=420.0),
)
def test_power_tables_match_the_per_opp_product(name, temp_k):
    platform = registry.build(name)
    model = platform.power_model()
    for cluster in platform.clusters:
        table = model.max_cluster_power_table_w(cluster.name, temp_k)
        freqs = cluster.opps.frequencies_hz()
        assert len(table) == len(freqs)
        for freq, watts in zip(freqs, table):
            old = _old_worst_case_w(cluster, float(cluster.n_cores), freq, temp_k)
            assert _bits(watts) == _bits(old)
            assert _bits(model.max_cluster_power_w(cluster.name, freq, temp_k)) == _bits(old)
    gpu_table = model.max_gpu_power_table_w(temp_k)
    for freq, watts in zip(platform.gpu.opps.frequencies_hz(), gpu_table):
        old = _old_worst_case_w(platform.gpu, 1.0, freq, temp_k)
        assert _bits(watts) == _bits(old)
        assert _bits(model.max_gpu_power_w(freq, temp_k)) == _bits(old)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(PLATFORMS),
    temp_k=st.floats(min_value=250.0, max_value=420.0),
    util=st.floats(min_value=0.0, max_value=1.0),
)
def test_load_scaled_table_matches_power_at_every_opp(name, temp_k, util):
    platform = registry.build(name)
    model = platform.power_model()
    cluster = platform.clusters[0]
    policy = DvfsPolicy(cluster.name, cluster.opps)
    policy.account(0.01, util, util)
    actor = LoadScaledActor(
        DvfsCoolingDevice("cdev", policy),
        policy,
        lambda f, t: model.max_cluster_power_w(cluster.name, f, t),
        lambda t: model.max_cluster_power_table_w(cluster.name, t),
        lambda: temp_k,
    )
    table = actor.power_table_w()
    for freq, watts in zip(cluster.opps.frequencies_hz(), table):
        load = max(util, 0.1)
        old = load * _old_worst_case_w(cluster, float(cluster.n_cores), freq, temp_k)
        assert _bits(watts) == _bits(actor.max_power_w(freq)) == _bits(old)


# ------------------------------------------------------------------ spans


class _SimClock:
    """A simulation clock that only moves between operations, as the
    engine's clock only moves between ticks."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class _Ticker:
    def __init__(self, step):
        self.t, self.step = 0.0, step

    def __call__(self):
        self.t += self.step
        return self.t


values = st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=3))


@settings(max_examples=200, deadline=None)
@given(
    script=st.lists(
        st.tuples(st.sampled_from(["record", "instant", "open", "close"]), values),
        max_size=40,
    ),
    capacity=st.integers(min_value=1, max_value=6),
)
def test_record_stores_what_a_with_block_stores(script, capacity):
    """A recorded span equals the one ``with span(...)`` around the same
    region stores: same id, parent, simulation times and attributes."""
    clocks = [_SimClock(), _SimClock()]
    tracers = [SpanTracer(capacity, clock, _Ticker(1e-6)) for clock in clocks]
    open_spans = [[], []]
    for op, value in script:
        for k, tracer in enumerate(tracers):
            if op == "instant":
                tracer.instant("thermal.trip", value=value)
            elif op == "open":
                open_spans[k].append(tracer.span("thermal.zone_poll", zone="z"))
            elif op == "close" and open_spans[k]:
                open_spans[k].pop().__exit__(None, None, None)
            elif op == "record" and k == 0:
                wall = tracer.wall_time
                t0 = wall()
                t1 = wall()
                tracer.record("governor.update", t0, t1, ("domain", "v"), ("a15", value))
            elif op == "record":
                with tracer.span("governor.update", domain="a15") as span:
                    span.set(v=value)
            clocks[k].t += 0.5
    new, old = tracers

    def comparable(tracer):
        return [
            {k: v for k, v in d.items() if k != "wall_duration_s"}
            for d in tracer.to_dicts()
        ]

    assert comparable(new) == comparable(old)
    assert new.dropped == old.dropped and len(new) == len(old)
