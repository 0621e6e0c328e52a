"""The paper's claims as contracts, at the shortest horizons that show them.

* **Table I shape** (Nexus 6P): under the stock thermal governor the games
  lose more than a fifth of their median frame rate; Hangouts, the
  mildest casualty, loses less than 16 %.
* **Table II** (Odroid-XU3, 3DMark with the background BML): the proposed
  governor's frame rate is at least the stock policy's and at least 95 %
  of the benchmark running alone.
* **Analytic cross-check** on every registered platform: under constant
  dynamic power the simulated hotspot settles at the stable root of
  :mod:`repro.core.fixed_point` and crosses a target when
  :func:`~repro.core.time_to_fixed_point.time_to_temperature_s` says.

The full-length runs are ``repro table1``/``repro table2`` and the
``benchmarks/bench_table*`` shape checks; these contracts keep the shapes
in tier-1, so a change that moves output bytes still has to keep them.
"""

import pytest

from repro.analysis.tables import percent_reduction
from repro.apps.catalog import CATALOG, make_app, popular_app_names
from repro.apps.gfxbench import ThreeDMarkApp
from repro.core.calibration import _platform_rail_shares, lump_platform
from repro.core.fixed_point import analyze, critical_power_w
from repro.core.time_to_fixed_point import time_to_temperature_s
from repro.experiments import odroid
from repro.experiments.nexus import DEFAULT_SEED, nexus_thermal_config
from repro.kernel.kernel import KernelConfig
from repro.sim.engine import Simulation
from repro.soc import registry
from repro.soc.platform import BOARD_RAIL
from repro.soc.snapdragon810 import nexus6p
from repro.thermal.model import ThermalModel
from repro.thermal.rc_network import (
    AMBIENT,
    ThermalLinkSpec,
    ThermalNetworkSpec,
    ThermalNodeSpec,
)

# ----------------------------------------------------------------- Table I

#: Stickman is the slowest game to throttle: its loss is 15 % at 80 s and
#: 23 % at 100 s (Paper.io 39 %, Hangouts 2 %).  The paper's figures run
#: 140 s.
TABLE1_HORIZON_S = 100.0

GAMES = tuple(name for name in popular_app_names() if CATALOG[name].kind == "gpu")


def _table1_reduction_pct(app_name: str) -> float:
    fps = []
    for throttled in (False, True):
        app = make_app(app_name)
        sim = Simulation(
            nexus6p(), [app], seed=DEFAULT_SEED,
            kernel_config=KernelConfig(
                thermal=nexus_thermal_config() if throttled else None
            ),
        )
        sim.run(TABLE1_HORIZON_S)
        fps.append(app.fps.median_fps(start_s=5.0))
    return percent_reduction(*fps)


@pytest.mark.parametrize("game", GAMES)
def test_table1_games_lose_over_a_fifth_under_throttling(game):
    # Paper: Paper.io 34 %, Stickman Hook 32 %.
    assert _table1_reduction_pct(game) > 20.0


def test_table1_hangouts_is_the_mild_casualty():
    # Paper: 10 %; 16 % sits below every game's loss in the paper.
    assert _table1_reduction_pct("hangouts") < 16.0


# ---------------------------------------------------------------- Table II

#: Seconds per 3DMark graphics test.  BML must cost the stock policy
#: frames for the protection to mean anything: GT2 drops 52 -> 50 FPS at
#: 45 s per test, 52 -> 47 at 60 s (the paper-length table runs 125 s).
TABLE2_TEST_S = 60.0


def _table2_fps(scenario: str) -> tuple[float, float]:
    mark = ThreeDMarkApp(gt1_duration_s=TABLE2_TEST_S, gt2_duration_s=TABLE2_TEST_S)
    sim, _governor = odroid._build(scenario, mark, odroid.DEFAULT_SEED)
    sim.run(mark.total_duration_s)
    return mark.gt1_fps(), mark.gt2_fps()


def test_table2_proposed_governor_protects_the_benchmark():
    alone, stock, proposed = (
        _table2_fps(s) for s in ("alone", "bml_default", "bml_proposed")
    )
    # The horizon is long enough that BML costs frames under stock ...
    assert stock[1] < alone[1]
    for test, (a, s, p) in enumerate(zip(alone, stock, proposed), start=1):
        # ... and the proposed governor wins them back.  Scores are
        # medians of whole-second FPS buckets, where a tie is a real
        # outcome, so "at least stock" is non-strict.
        assert p >= s, f"GT{test}: proposed {p} < stock {s}"
        # Paper: 93 of 97 (GT1), 51 of 51 (GT2).
        assert p >= 0.95 * a, f"GT{test}: proposed {p} < 95 % of alone {a}"


# -------------------------------------------------------- analytic cross-check


def _settle(model: ThermalModel, node: str, inject, horizon_s: float,
            target_k: float) -> float:
    """Step ``inject(T_node)`` until ``horizon_s``; return the first time
    ``node`` reached ``target_k``."""
    crossed = None
    for tick in range(1, round(horizon_s / model.dt_s) + 1):
        model.step(inject(model.temperature_k(node)))
        if crossed is None and model.temperature_k(node) >= target_k:
            crossed = tick * model.dt_s
    assert crossed is not None, "the target was never reached"
    return crossed


@pytest.mark.parametrize("platform_name", registry.platform_names())
def test_simulated_hotspot_meets_the_fixed_point_analysis(platform_name):
    platform = registry.build(platform_name)
    # ZOH is exact at any step for the linear network; only the explicit
    # leakage coupling sees dt, and a rest point of the stepped system is
    # the continuous fixed point whatever dt is.  So 0.1 s keeps 25 slowest
    # time constants of the phones (~200 s each) at 50k steps.
    network = ThermalModel(platform.thermal, 0.1, ambient_k=platform.default_ambient_k)
    params = lump_platform(platform, network)
    hotspot = platform.big_cluster.thermal_node
    # Half the critical power: a stable root well inside the stable range.
    p_dyn = 0.5 * critical_power_w(params)
    stable_k = analyze(params, p_dyn).stable_temp_k
    start_k = network.temperature_k(hotspot)
    target_k = start_k + 0.9 * (stable_k - start_k)
    predicted_s = time_to_temperature_s(params, p_dyn, start_k, target_k)

    # The full network, fed the lumped model's own power law: dynamic power
    # plus leakage at the hotspot temperature, split over the rails as the
    # lumping assumed, plus the constant board power it folds into the
    # ambient.  Its steady state is then exactly the lumped fixed point.
    shares = _platform_rail_shares(platform)
    shares = {rail: s / sum(shares.values()) for rail, s in shares.items()}
    board = {BOARD_RAIL: platform.board_power_w} if platform.board_power_w > 0 else {}

    def full_power(temp_k):
        total = p_dyn + params.leakage_w(temp_k)
        return {**{rail: s * total for rail, s in shares.items()}, **board}

    crossed_s = _settle(
        network, hotspot, full_power,
        25.0 * network.dominant_time_constant_s(), target_k,
    )
    # After 25 slowest time constants the transient is below 1e-6 K even
    # with the leakage loop slowing it; 1e-3 K is far below any behaviour.
    assert network.temperature_k(hotspot) == pytest.approx(stable_k, abs=1e-3)
    # The lumped model keeps only the slowest pole.  The faster die and
    # package modes make the real hotspot lead it: at the 90 % point it
    # arrives after 0.82-0.99 of the predicted time on these platforms.
    # 25 % below catches a wrong R, C or quadrature, not that lead.
    assert 0.75 * predicted_s <= crossed_s <= 1.02 * predicted_s

    # The network the analysis assumes, one node of R and C, at the
    # engine's 10 ms step: there the two agree up to discretisation.
    lumped = ThermalModel(
        ThermalNetworkSpec(
            nodes=(ThermalNodeSpec("hot", params.c_j_per_k),),
            links=(ThermalLinkSpec("hot", AMBIENT, 1.0 / params.r_k_per_w),),
            power_split={"p": {"hot": 1.0}},
        ),
        0.01, ambient_k=params.t_ambient_k, initial_k=start_k,
    )
    crossed_s = _settle(
        lumped, "hot", lambda t: {"p": p_dyn + params.leakage_w(t)},
        predicted_s + 1.0, target_k,
    )
    # Explicit leakage lags by under a step, and the crossing is read at
    # a step boundary: two steps bound both.
    assert crossed_s == pytest.approx(predicted_s, abs=2 * lumped.dt_s)
