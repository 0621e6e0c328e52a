"""Declarative scenario runner."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.experiment import (
    SUMMARY_START_S,
    AppSpec,
    Scenario,
    compare_policies,
)


def test_appspec_validation():
    with pytest.raises(ConfigurationError):
        AppSpec.catalog("tiktok")
    with pytest.raises(ConfigurationError):
        AppSpec.batch("prime95")


def test_scenario_validation():
    apps = (AppSpec.catalog("stickman"),)
    with pytest.raises(ConfigurationError):
        Scenario(platform="pixel", apps=apps)
    with pytest.raises(ConfigurationError):
        Scenario(platform="nexus6p", apps=apps, policy="magic")
    with pytest.raises(ConfigurationError):
        Scenario(platform="nexus6p", apps=())
    with pytest.raises(ConfigurationError):
        Scenario(platform="nexus6p", apps=apps, duration_s=0.0)


@pytest.mark.parametrize("duration_s", [0.5, 2.0, SUMMARY_START_S, float("nan")])
def test_scenario_shorter_than_the_summary_warmup_is_rejected(duration_s):
    # The summary averages from SUMMARY_START_S on: a run that ends by
    # then has no samples to summarise, so it must not start at all.
    with pytest.raises(ConfigurationError, match="warm-up"):
        Scenario(platform="odroid-xu3", apps=(AppSpec.catalog("stickman"),),
                 duration_s=duration_s)


def test_scenario_just_past_the_summary_warmup_runs():
    result = Scenario(
        platform="odroid-xu3", apps=(AppSpec.catalog("stickman"),),
        duration_s=SUMMARY_START_S + 0.01,
    ).run()
    assert result.mean_power_w > 0.0


def test_scenario_runs_and_summarises():
    result = Scenario(
        platform="odroid-xu3",
        apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
        policy="none",
        duration_s=20.0,
    ).run()
    assert "stickman" in result.fps
    assert result.peak_temp_c > 45.0
    assert result.mean_power_w > 0.5
    assert abs(sum(result.breakdown.shares.values()) - 1.0) < 1e-9


def test_proposed_policy_registers_catalog_apps():
    result = Scenario(
        platform="odroid-xu3",
        apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
        policy="proposed",
        duration_s=40.0,
        t_limit_c=60.0,
    ).run()
    # Only the batch kernel may be acted upon.
    assert result.governor_events
    assert all(name == "bml" for _, name, _ in result.governor_events)


def test_stock_policy_uses_platform_default():
    nexus = Scenario(
        platform="nexus6p", apps=(AppSpec.catalog("stickman"),),
        policy="stock", duration_s=30.0,
    ).run()
    assert nexus.governor_events == ()
    # The phone's trip governor holds the package near 40 degC.
    assert nexus.peak_temp_c < 43.0


def test_compare_policies_shapes():
    results = compare_policies(
        "odroid-xu3",
        (AppSpec.catalog("hangouts"), AppSpec.batch("bml")),
        duration_s=30.0,
        t_limit_c=60.0,
    )
    assert set(results) == {"none", "stock", "proposed"}
    # Unmanaged runs hottest.
    assert results["none"].peak_temp_c >= results["proposed"].peak_temp_c - 0.5


def test_batch_cluster_override():
    result = Scenario(
        platform="odroid-xu3",
        apps=(AppSpec.batch("bml", cluster="a7"),),
        policy="none",
        duration_s=10.0,
    ).run()
    assert result.breakdown.shares["a7"] > result.breakdown.shares["a15"]


def test_pixel_xl_runs_every_policy():
    """The data-defined phone runs end-to-end with no code branches."""
    results = compare_policies(
        "pixel-xl", (AppSpec.catalog("stickman"),), duration_s=20.0,
    )
    assert set(results) == {"none", "stock", "proposed"}
    for result in results.values():
        assert result.peak_temp_c > 25.0
        assert "stickman" in result.fps
    # The proposed governor defaults to the definition's 45 degC limit.
    assert results["proposed"].peak_temp_c <= results["none"].peak_temp_c + 0.5


def test_proposed_limit_comes_from_platform_definition():
    from repro.soc.registry import get

    assert get("nexus6p").default_t_limit_c == 41.0
    assert get("odroid-xu3").default_t_limit_c == 85.0
    assert get("pixel-xl").default_t_limit_c == 45.0
