"""Property-based tests of IPA budget allocation (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.kernel.thermal.cooling import DvfsCoolingDevice
from repro.kernel.thermal.ipa import PowerActor, PowerAllocatorGovernor
from repro.soc.opp import OppTable


def make_governor(requests, peaks):
    opps = OppTable.from_pairs([(200e6, 0.9), (800e6, 1.0), (1600e6, 1.2)])
    actors = []
    for i, (request, peak) in enumerate(zip(requests, peaks)):
        policy = DvfsPolicy(f"d{i}", opps, initial_freq_hz=1600e6)
        device = DvfsCoolingDevice(f"c{i}", policy)
        actors.append(
            PowerActor(
                device=device,
                max_power_w=lambda f, p=peak: p * f / 1600e6,
                requested_power_w=lambda r=request: r,
            )
        )
    return PowerAllocatorGovernor(
        actors, sustainable_power_w=2.0, switch_on_temp_c=50.0,
        control_temp_c=70.0,
    )


actor_lists = st.lists(
    st.tuples(st.floats(0.01, 10.0), st.floats(0.1, 10.0)),
    min_size=1, max_size=6,
)


@given(items=actor_lists, budget=st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_grants_are_bounded(items, budget):
    requests = [r for r, _ in items]
    peaks = [p for _, p in items]
    governor = make_governor(requests, peaks)
    grants = governor._allocate(budget, governor.power_tables())
    assert len(grants) == len(items)
    for grant, peak in zip(grants, peaks):
        assert -1e-9 <= grant <= peak + 1e-9
    # Never hands out more than the budget.
    assert sum(grants) <= budget + 1e-6


@given(items=actor_lists, budget=st.floats(0.1, 50.0))
@settings(max_examples=200, deadline=None)
def test_allocation_proportional_when_unconstrained(items, budget):
    requests = [r for r, _ in items]
    peaks = [1e9] * len(items)  # no ceiling binds
    governor = make_governor(requests, peaks)
    grants = governor._allocate(budget, governor.power_tables())
    total_req = sum(requests)
    for grant, request in zip(grants, requests):
        assert grant == pytest.approx(budget * request / total_req, rel=1e-6)


@given(
    items=actor_lists,
    temp=st.floats(30.0, 120.0),
    now=st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_budget_non_negative_and_monotone_in_temperature(items, temp, now):
    requests = [r for r, _ in items]
    peaks = [p for _, p in items]
    governor = make_governor(requests, peaks)
    budget = governor._budget_w(temp, now)
    assert budget >= 0.0
    hotter = make_governor(requests, peaks)._budget_w(temp + 10.0, now)
    assert hotter <= budget + 1e-9
