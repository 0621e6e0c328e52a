"""Campaign grid language: validation, expansion and JSON round-trips.

The round-trip property tests are the serialisation contract of the
content-addressed store: for every spec the wire format must rebuild an
*equal* object (``from_dict(to_dict(x)) == x``), otherwise cache keys
would drift between processes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import CATALOG
from repro.apps.mibench import MIBENCH_SUITE
from repro.campaign.spec import Axis, CampaignSpec, canonical_json
from repro.core.governor import GovernorConfig
from repro.errors import ConfigurationError
from repro.sim.experiment import SUMMARY_START_S, AppSpec, Scenario

# --------------------------------------------------------------- strategies

_clusters = st.sampled_from([None, "a7", "a15"])

app_specs = st.one_of(
    st.builds(AppSpec.catalog, st.sampled_from(sorted(CATALOG)), _clusters),
    st.builds(AppSpec.batch, st.sampled_from(sorted(MIBENCH_SUITE)), _clusters),
)

_finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def governor_configs(draw):
    period_s = draw(st.floats(0.01, 5.0, **_finite))
    return GovernorConfig(
        t_limit_c=draw(st.floats(40.0, 100.0, **_finite)),
        horizon_s=draw(st.floats(1.0, 300.0, **_finite)),
        window_s=period_s * draw(st.floats(1.0, 20.0, **_finite)),
        period_s=period_s,
        predictive=draw(st.booleans()),
        action=draw(st.sampled_from(["migrate", "duty_cycle"])),
        min_quota=draw(st.floats(0.05, 1.0, **_finite)),
        migrate_back=draw(st.booleans()),
        back_margin_c=draw(st.floats(0.0, 20.0, **_finite)),
        back_dwell_s=draw(st.floats(0.1, 60.0, **_finite)),
    )


scenarios = st.builds(
    Scenario,
    platform=st.sampled_from(["nexus6p", "odroid-xu3"]),
    apps=st.lists(app_specs, min_size=1, max_size=3).map(tuple),
    policy=st.sampled_from(["none", "stock", "proposed"]),
    # A scenario must outlast the warm-up its summary skips.
    duration_s=st.floats(SUMMARY_START_S, 600.0, exclude_min=True, **_finite),
    seed=st.integers(0, 2**31 - 1),
    t_limit_c=st.one_of(st.none(), st.floats(40.0, 100.0, **_finite)),
    governor=st.one_of(st.none(), governor_configs()),
    ambient_c=st.one_of(st.none(), st.floats(0.0, 45.0, **_finite)),
)


# ---------------------------------------------------------- round-tripping


@given(spec=app_specs)
@settings(max_examples=100, deadline=None)
def test_appspec_roundtrip(spec):
    data = json.loads(json.dumps(spec.to_dict()))
    assert AppSpec.from_dict(data) == spec


@given(config=governor_configs())
@settings(max_examples=100, deadline=None)
def test_governor_config_roundtrip(config):
    data = json.loads(json.dumps(config.to_dict()))
    assert GovernorConfig.from_dict(data) == config


@given(scenario=scenarios)
@settings(max_examples=100, deadline=None)
def test_scenario_roundtrip(scenario):
    data = json.loads(json.dumps(scenario.to_dict()))
    rebuilt = Scenario.from_dict(data)
    assert rebuilt == scenario
    # Equality and the cache key agree: equal scenarios, equal canon.
    assert canonical_json(rebuilt.to_dict()) == canonical_json(scenario.to_dict())


@given(scenario=scenarios)
@settings(max_examples=50, deadline=None)
def test_scenario_result_dict_is_json_stable(scenario):
    """to_dict is pure: two calls produce identical canonical JSON."""
    assert canonical_json(scenario.to_dict()) == canonical_json(scenario.to_dict())


def test_appspec_from_dict_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        AppSpec.from_dict({"kind": "daemon", "name": "bml"})


def test_governor_from_dict_rejects_unknown_field():
    with pytest.raises(ConfigurationError):
        GovernorConfig.from_dict({"t_limit_c": 60.0, "hysteresis": 2.0})


def test_scenario_from_dict_rejects_unknown_field():
    with pytest.raises(ConfigurationError):
        Scenario.from_dict({
            "platform": "nexus6p",
            "apps": [{"kind": "catalog", "name": "stickman", "cluster": None}],
            "overclock": True,
        })


def test_campaign_spec_roundtrip_through_json():
    spec = CampaignSpec(
        name="rt-check",
        base={
            "platform": "odroid-xu3",
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "duration_s": 30.0,
            "governor": {"t_limit_c": 60.0},
        },
        axes=(
            Axis("policy", ("none", "proposed")),
            Axis("governor.horizon_s", (10.0, 60.0)),
        ),
    )
    rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert [r.run_id for r in rebuilt.expand()] == [
        r.run_id for r in spec.expand()
    ]


# ---------------------------------------------------------------- validation


def test_axis_rejects_unknown_name():
    with pytest.raises(ConfigurationError):
        Axis("frequency", (1.0, 2.0))


def test_axis_rejects_unknown_governor_field():
    with pytest.raises(ConfigurationError):
        Axis("governor.boost", (1.0,))


def test_axis_rejects_empty_and_duplicate_values():
    with pytest.raises(ConfigurationError):
        Axis("seed", ())
    with pytest.raises(ConfigurationError):
        Axis("seed", (1, 2, 1))


@pytest.mark.parametrize("data, missing", [
    ({}, "['name', 'values']"),
    ({"values": [1]}, "['name']"),
    ({"name": "seed"}, "['values']"),
])
def test_axis_from_dict_names_missing_keys(data, missing):
    with pytest.raises(ConfigurationError, match="axis: missing key") as err:
        Axis.from_dict(data)
    assert missing in str(err.value)


@pytest.mark.parametrize("data, message", [
    ({}, r"campaign spec: missing key\(s\) \['name'\]"),
    ({"base": {}, "axes": []}, r"campaign spec: missing key\(s\) \['name'\]"),
    ([], "campaign spec must be a JSON object, got list"),
    ({"name": "x", "axes": [{"name": "seed"}]},
     r"axis: missing key\(s\) \['values'\]"),
    ({"name": "x", "axes": ["seed"]}, "axis must be a JSON object, got str"),
])
def test_campaign_spec_from_dict_names_missing_keys(data, message):
    with pytest.raises(ConfigurationError, match=message):
        CampaignSpec.from_dict(data)


@pytest.mark.parametrize("data, message", [
    ({"name": 5}, "campaign 'name' must be a string, got int"),
    ({"name": "x", "axes": 5}, "campaign 'axes' must be a list, got int"),
    ({"name": "x", "axes": {"name": "seed"}}, "campaign 'axes' must be a list, got dict"),
    ({"name": "x", "base": 5}, "campaign 'base' must be a JSON object, got int"),
    ({"name": "x", "base": []}, "campaign 'base' must be a JSON object, got list"),
    ({"name": "x", "axes": [{"name": "seed", "values": 5}]},
     "axis 'seed' 'values' must be a list, got int"),
    ({"name": "x", "axes": [{"name": 5, "values": [1]}]},
     "axis 'name' must be a string, got int"),
])
def test_campaign_spec_from_dict_names_wrongly_typed_fields(data, message):
    with pytest.raises(ConfigurationError, match=message):
        CampaignSpec.from_dict(data)


def test_axis_rejects_wrongly_typed_fields():
    with pytest.raises(ConfigurationError, match="axis 'name' must be a string"):
        Axis(5, (1,))
    with pytest.raises(ConfigurationError, match="'values' must be a list, got str"):
        Axis("platform", "nexus6p")


def test_axis_normalizes_apps_values():
    axis = Axis("apps", (AppSpec.catalog("stickman"),
                         ({"kind": "batch", "name": "bml", "cluster": None},)))
    assert axis.values[0] == (AppSpec.catalog("stickman"),)
    assert axis.values[1] == (AppSpec.batch("bml"),)


def test_campaign_name_must_be_a_slug():
    base = {"platform": "nexus6p", "apps": (AppSpec.catalog("stickman"),)}
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="Bad Name", base=base, axes=())
    CampaignSpec(name="ok-name.v2", base=base, axes=())


def test_campaign_requires_platform_and_apps():
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="x", base={"platform": "nexus6p"}, axes=())
    with pytest.raises(ConfigurationError):
        CampaignSpec(
            name="x", base={"apps": (AppSpec.catalog("stickman"),)}, axes=(),
        )
    # ... unless supplied as an axis.
    CampaignSpec(
        name="x",
        base={"apps": (AppSpec.catalog("stickman"),)},
        axes=(Axis("platform", ("nexus6p", "odroid-xu3")),),
    )


def test_campaign_rejects_duplicate_axes_and_unknown_base():
    base = {"platform": "nexus6p", "apps": (AppSpec.catalog("stickman"),)}
    with pytest.raises(ConfigurationError):
        CampaignSpec(
            name="x", base=base,
            axes=(Axis("seed", (1,)), Axis("seed", (2,))),
        )
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="x", base={**base, "voltage": 1.1}, axes=())


def test_campaign_rejects_unknown_governor_base_field():
    base = {
        "platform": "nexus6p",
        "apps": (AppSpec.catalog("stickman"),),
        "governor": {"boost": True},
    }
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="x", base=base, axes=())


# ----------------------------------------------------------------- expansion


def test_expand_is_deterministic_product_order():
    spec = CampaignSpec(
        name="grid",
        base={"platform": "odroid-xu3",
              "apps": (AppSpec.catalog("stickman"),)},
        axes=(Axis("policy", ("none", "stock")), Axis("seed", (1, 2, 3))),
    )
    assert spec.size == 6
    runs = spec.expand()
    assert [r.index for r in runs] == list(range(6))
    # First axis varies slowest (itertools.product order).
    assert [(r.scenario.policy, r.scenario.seed) for r in runs] == [
        ("none", 1), ("none", 2), ("none", 3),
        ("stock", 1), ("stock", 2), ("stock", 3),
    ]
    assert runs == spec.expand()  # stable
    assert len({r.run_id for r in runs}) == 6


def test_expand_applies_governor_axes():
    spec = CampaignSpec(
        name="gov",
        base={
            "platform": "odroid-xu3",
            "apps": (AppSpec.catalog("stickman"),),
            "policy": "proposed",
            "governor": {"t_limit_c": 60.0},
        },
        axes=(Axis("governor.horizon_s", (10.0, 120.0)),),
    )
    runs = spec.expand()
    assert [r.scenario.governor.horizon_s for r in runs] == [10.0, 120.0]
    assert all(r.scenario.governor.t_limit_c == 60.0 for r in runs)


def test_apps_axis_dedup_happens_after_normalization():
    # The same mix spelled as AppSpecs and as dicts is one grid point,
    # not two — otherwise the campaign would silently run it twice.
    with pytest.raises(ConfigurationError):
        Axis("apps", (
            (AppSpec.catalog("stickman"),),
            ({"kind": "catalog", "name": "stickman", "cluster": None},),
        ))
