"""Built-in campaigns: existing ablations ported onto the runner.

Each preset returns a :class:`~repro.campaign.spec.CampaignSpec` mirroring
a sweep the repository already performs serially elsewhere:

* :func:`governor_horizon_campaign` — the prediction-horizon ablation of
  ``benchmarks/bench_ablation_governor_params.py`` (game + background BML
  on the Odroid-XU3 under the proposed governor);
* :func:`table1_seed_campaign` — the paper's Table I grid (each catalog
  app alone on the Nexus 6P, with and without thermal management) swept
  across seeds;
* :func:`smoke_campaign` — a four-run miniature for the CLI tests and the
  ``make telemetry-smoke`` target;
* :func:`platform_matrix_campaign` — one short stock-policy run on every
  platform in :mod:`repro.soc.registry`, proving that data-defined
  devices sweep through campaigns with no campaign-code changes;
* :func:`chaos_campaign` — every built-in fault plan against both the
  stock and the (hardened) proposed governor on every registered
  platform, the grid behind the resilience report and the acceptance
  property that hardening never *worsens* the peak temperature;
* :func:`fan_stop_campaign` — the fan-stop plan against a deliberately
  tight limit, unmanaged vs hardened: the seeded-breach grid the
  ``chaos-hardening`` SLO spec must flag (``repro obs check``).

Presets are looked up by name through :data:`PRESETS` (the CLI's
``--preset`` choices).  Platform names come from the registry's exported
constants — no layer of the campaign system spells device strings.
"""

from __future__ import annotations

from repro.apps.catalog import popular_app_names
from repro.campaign.spec import FAULTS_AXIS, Axis, CampaignSpec
from repro.faults.plan import builtin_plan_names
from repro.sim.experiment import AppSpec
from repro.soc.exynos5422 import ODROID_XU3
from repro.soc.registry import platform_names
from repro.soc.snapdragon810 import NEXUS6P


def governor_horizon_campaign(
    horizons_s: tuple[float, ...] = (10.0, 30.0, 60.0, 120.0),
    duration_s: float = 150.0,
    seed: int = 3,
    t_limit_c: float = 60.0,
) -> CampaignSpec:
    """The governor-parameter ablation as a campaign.

    Sweeps the application-aware governor's prediction horizon on the
    3DMark-like foreground + BML background scenario: longer horizons act
    earlier and cap the peak temperature, while the foreground frame rate
    stays protected in every configuration.
    """
    return CampaignSpec(
        name="governor-horizon",
        base={
            "platform": ODROID_XU3,
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "policy": "proposed",
            "duration_s": duration_s,
            "seed": seed,
            "governor": {"t_limit_c": t_limit_c},
        },
        axes=(Axis("governor.horizon_s", tuple(horizons_s)),),
    )


def table1_seed_campaign(
    seeds: tuple[int, ...] = (1, 2, 3),
    duration_s: float = 120.0,
) -> CampaignSpec:
    """The paper's Table I grid swept across seeds.

    Every catalog app runs alone on the Nexus 6P twice per seed: without
    thermal management (``none`` — the table's "FPS w/o" column) and under
    the stock trip governor (``stock`` — "FPS w/").
    """
    return CampaignSpec(
        name="table1-seeds",
        base={"platform": NEXUS6P, "duration_s": duration_s},
        axes=(
            Axis(
                "apps",
                tuple((AppSpec.catalog(name),) for name in popular_app_names()),
            ),
            Axis("policy", ("none", "stock")),
            Axis("seed", tuple(seeds)),
        ),
    )


def smoke_campaign(duration_s: float = 8.0) -> CampaignSpec:
    """Four short Odroid runs — the CI smoke campaign."""
    return CampaignSpec(
        name="smoke",
        base={
            "platform": ODROID_XU3,
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "duration_s": duration_s,
        },
        axes=(
            Axis("policy", ("none", "stock")),
            Axis("seed", (3, 4)),
        ),
    )


def platform_matrix_campaign(duration_s: float = 8.0) -> CampaignSpec:
    """One short stock-policy run on every registered platform.

    The platform axis is read from the registry at expansion time, so a
    newly registered device definition joins this sweep automatically.
    """
    return CampaignSpec(
        name="platform-matrix",
        base={
            "apps": (AppSpec.catalog("stickman"),),
            "policy": "stock",
            "duration_s": duration_s,
        },
        axes=(Axis("platform", platform_names()),),
    )


def chaos_campaign(
    duration_s: float = 25.0,
    seed: int = 3,
) -> CampaignSpec:
    """Every built-in fault plan x policy x platform — the chaos grid.

    The game + background-BML mix runs long enough for each plan's fault
    window to open, act and (where the plan closes it) heal.  Each policy
    targets its platform's own limit (the proposed governor defaults to the
    definition's ``software.t_limit_c``, the stock policy to its registered
    trip table); comparing the ``stock`` and ``proposed`` rows per
    (platform, plan) cell yields the resilience report and checks the
    hardening acceptance property: the hardened governor's excess over the
    platform limit never exceeds stock's.
    """
    return CampaignSpec(
        name="chaos",
        base={
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "duration_s": duration_s,
            "seed": seed,
        },
        axes=(
            Axis("platform", platform_names()),
            Axis("policy", ("stock", "proposed")),
            Axis(FAULTS_AXIS, builtin_plan_names()),
        ),
    )


def fan_stop_campaign(
    duration_s: float = 40.0,
    seed: int = 3,
    t_limit_c: float = 55.0,
) -> CampaignSpec:
    """The fan-stop chaos grid: unmanaged vs hardened under a dying fan.

    The game + background-BML mix on the Odroid-XU3 with the fan pinned at
    20 % throughput mid-run, against a deliberately tight thermal limit.
    The ``none`` row overshoots that limit by many degrees — the seeded
    breach the ``chaos-hardening`` SLO spec (``repro obs check``) must
    flag — while the hardened ``proposed`` row detects the fault and rides
    it out in failsafe.
    """
    return CampaignSpec(
        name="fan-stop",
        base={
            "platform": ODROID_XU3,
            "apps": (AppSpec.catalog("stickman"), AppSpec.batch("bml")),
            "duration_s": duration_s,
            "seed": seed,
            "t_limit_c": t_limit_c,
            "faults": "fan-stop",
        },
        axes=(Axis("policy", ("none", "proposed")),),
    )


#: Name → factory, as exposed by ``repro campaign --preset``.
PRESETS = {
    "chaos": chaos_campaign,
    "fan-stop": fan_stop_campaign,
    "governor-horizon": governor_horizon_campaign,
    "platform-matrix": platform_matrix_campaign,
    "smoke": smoke_campaign,
    "table1-seeds": table1_seed_campaign,
}
