"""PlatformDef schema: validation, serialisation, and property tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernel.kernel import ThermalConfig
from repro.soc.defs import DEFAULT_T_LIMIT_C, PlatformDef
from repro.soc.platform import PlatformSpec
from repro.soc.registry import REGISTRY, platform_names


# -- every registered platform ----------------------------------------------


@pytest.mark.parametrize("name", platform_names())
def test_registered_platform_compiles(name):
    spec = REGISTRY.get(name).validate()
    assert isinstance(spec, PlatformSpec)
    assert spec.name == name
    assert spec.big_cluster is not spec.little_cluster


@pytest.mark.parametrize("name", platform_names())
def test_registered_platform_round_trips_through_json(name):
    pdef = REGISTRY.get(name)
    wire = json.dumps(pdef.to_dict(), sort_keys=True)
    again = PlatformDef.from_dict(json.loads(wire))
    assert again == pdef
    assert again.compile() == pdef.compile()
    assert json.dumps(again.to_dict(), sort_keys=True) == wire


@pytest.mark.parametrize("name", platform_names())
def test_registered_platform_software_defaults(name):
    pdef = REGISTRY.get(name)
    config = pdef.stock_thermal_config()
    assert isinstance(config, ThermalConfig)
    assert config.sensor in {s["name"] for s in pdef.sensors}
    assert pdef.default_t_limit_c > 0.0


def test_to_dict_is_a_deep_copy():
    pdef = REGISTRY.get("nexus6p")
    data = pdef.to_dict()
    data["thermal"]["nodes"][0]["capacitance_j_per_k"] = 1e9
    assert pdef.compile() == REGISTRY.build("nexus6p")


# -- schema rejections -------------------------------------------------------


def _phone_data(**overrides):
    data = REGISTRY.get("pixel-xl").to_dict()
    data["name"] = "schema-probe"
    data.update(overrides)
    return data


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError) as err:
        PlatformDef.from_dict(_phone_data(price_usd=769))
    assert "price_usd" in str(err.value)


def test_from_dict_names_missing_fields():
    with pytest.raises(ConfigurationError) as err:
        PlatformDef.from_dict({})
    assert "PlatformDef: missing key(s) " in str(err.value)
    for name in ("name", "clusters", "gpu", "memory", "thermal", "sensors"):
        assert repr(name) in str(err.value)
    data = _phone_data()
    del data["thermal"]
    with pytest.raises(ConfigurationError, match=r"missing key\(s\) \['thermal'\]"):
        PlatformDef.from_dict(data)
    # Fields with defaults may be left out.
    data = _phone_data()
    del data["extras"], data["board_power_w"]
    assert PlatformDef.from_dict(data).board_power_w == 0.0


def test_from_dict_rejects_a_non_object():
    with pytest.raises(ConfigurationError, match="JSON object, got list"):
        PlatformDef.from_dict([])


def test_bad_platform_names_rejected():
    for name in ("", "Pixel XL", "UPPER", "-leading", "a b"):
        with pytest.raises(ConfigurationError):
            PlatformDef.from_dict(_phone_data(name=name))


def test_cluster_unknown_key_rejected_at_compile():
    data = _phone_data()
    data["clusters"][0]["tdp_w"] = 2.0
    with pytest.raises(ConfigurationError) as err:
        PlatformDef.from_dict(data).compile()
    assert "tdp_w" in str(err.value)


def test_opp_block_must_be_ladder_or_points():
    data = _phone_data()
    data["clusters"][0]["opps"] = {"freqs_mhz": [100, 200], "v_min": 0.8}
    with pytest.raises(ConfigurationError):
        PlatformDef.from_dict(data).compile()
    data["clusters"][0]["opps"] = {
        "points_mhz_v": [[100, 0.8], [200, 0.9, 1.0]]
    }
    with pytest.raises(ConfigurationError):
        PlatformDef.from_dict(data).compile()


def test_explicit_opp_points_compile():
    data = _phone_data()
    data["gpu"]["opps"] = {"points_mhz_v": [[100, 0.80], [200, 0.95]]}
    gpu = PlatformDef.from_dict(data).compile().gpu
    assert gpu.opps.frequencies_khz() == (100000, 200000)
    assert gpu.opps[1].voltage_v == 0.95


def test_software_unknown_key_rejected_at_construction():
    with pytest.raises(ConfigurationError) as err:
        PlatformDef.from_dict(_phone_data(software={"governor": "ipa"}))
    assert "governor" in str(err.value)


def test_software_thermal_unknown_key_rejected():
    data = _phone_data()
    data["software"]["thermal"]["fan_curve"] = [1, 2]
    pdef = PlatformDef.from_dict(data)
    with pytest.raises(ConfigurationError):
        pdef.stock_thermal_config()


def test_software_sensor_must_exist():
    data = _phone_data()
    data["software"]["thermal"]["sensor"] = "bogus"
    with pytest.raises(ConfigurationError) as err:
        PlatformDef.from_dict(data).validate()
    assert "bogus" in str(err.value)


def test_no_software_block_means_unmanaged_defaults():
    data = _phone_data(software={})
    pdef = PlatformDef.from_dict(data)
    assert pdef.stock_thermal_config() is None
    assert pdef.default_t_limit_c == DEFAULT_T_LIMIT_C
    pdef.validate()


def test_non_json_data_rejected():
    with pytest.raises(ConfigurationError):
        PlatformDef.from_dict(_phone_data(extras={"when": object()}))


# -- property tests ----------------------------------------------------------

_volts = st.floats(min_value=0.5, max_value=1.0, allow_nan=False,
                   allow_infinity=False)
_caps = st.floats(min_value=0.1, max_value=100.0, allow_nan=False,
                  allow_infinity=False)
_conductances = st.floats(min_value=0.01, max_value=5.0, allow_nan=False,
                          allow_infinity=False)


@st.composite
def platform_defs(draw):
    """Small but fully valid definitions with randomised constants."""
    def opps():
        n = draw(st.integers(min_value=2, max_value=8))
        freqs = draw(st.lists(st.integers(100, 3000), min_size=n, max_size=n,
                              unique=True))
        v_min = draw(_volts)
        return {"freqs_mhz": sorted(freqs), "v_min": v_min,
                "v_max": v_min + draw(st.floats(0.0, 0.5))}

    def leakage():
        return {
            "kappa_w_per_k2": draw(st.floats(1e-6, 1e-3)),
            "beta_k": draw(st.floats(500.0, 3000.0)),
        }

    def cluster(name, big):
        return {
            "name": name, "core_type": name.upper(),
            "n_cores": draw(st.integers(1, 8)), "opps": opps(),
            "ceff_w_per_v2hz": draw(st.floats(1e-11, 1e-9)),
            "leakage": leakage(), "thermal_node": "die",
            "rail": name, "is_big": big,
        }

    name = draw(st.from_regex(r"[a-z0-9][a-z0-9._-]{0,8}", fullmatch=True))
    return PlatformDef(
        name=name,
        clusters=(cluster("small", False), cluster("large", True)),
        gpu={
            "name": "gfx", "gpu_type": "GFX", "opps": opps(),
            "ceff_w_per_v2hz": draw(st.floats(1e-10, 1e-8)),
            "leakage": leakage(), "thermal_node": "die", "rail": "gfx",
        },
        memory={"name": "mem", "base_power_w": draw(st.floats(0.0, 1.0)),
                "thermal_node": "die", "rail": "mem"},
        thermal={
            "nodes": [{"name": "die", "capacitance_j_per_k": draw(_caps)}],
            "links": [{"a": "die", "b": "ambient",
                       "conductance_w_per_k": draw(_conductances)}],
            "power_split": {
                rail: {"die": 1.0}
                for rail in ("small", "large", "gfx", "mem", "board")
            },
        },
        sensors=({"name": "t_die", "node": "die",
                  "quantization_c": draw(st.floats(0.0, 1.0))},),
        board_power_w=draw(st.floats(0.0, 2.0)),
        default_ambient_c=draw(st.floats(0.0, 45.0)),
        software={
            "thermal": {
                "kind": "step_wise", "sensor": "t_die",
                "cooled": ["large", "small"],
                "trips": [{"temp_c": draw(st.floats(40.0, 90.0))}],
            },
            "t_limit_c": draw(st.floats(40.0, 110.0)),
        },
    )


@settings(max_examples=25, deadline=None)
@given(pdef=platform_defs())
def test_generated_defs_compile_and_round_trip(pdef):
    spec = pdef.validate()
    assert spec.big_cluster.name == "large"
    assert spec.little_cluster.name == "small"
    wire = json.dumps(pdef.to_dict(), sort_keys=True)
    again = PlatformDef.from_dict(json.loads(wire))
    assert again == pdef
    assert again.compile() == spec
    assert again.default_t_limit_c == pdef.default_t_limit_c


@settings(max_examples=10, deadline=None)
@given(pdef=platform_defs())
def test_generated_defs_register_and_build(pdef):
    from repro.soc.registry import PlatformRegistry

    reg = PlatformRegistry()
    reg.register(pdef)
    assert reg.build(pdef.name) == pdef.compile()
