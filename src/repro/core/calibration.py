"""Identify lumped stability-analysis parameters from a full platform model.

On real hardware the governor's (R, C, kappa, beta) would come from a
characterisation run; here they come from probing the multi-node thermal
network and the component leakage models — the same identification step,
against the simulated plant:

* R — the DC gain from a weighted rail-power vector to the hotspot node;
* effective ambient — the true ambient plus the hotspot offset produced by
  power the governor cannot see (the constant board rail);
* (kappa, beta) — log-linear regression of total SoC leakage vs temperature;
* C — from the network's dominant time constant, C = tau / R.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.stability import LumpedThermalParams
from repro.errors import StabilityError
from repro.soc.platform import BOARD_RAIL, PlatformSpec
from repro.thermal.model import ThermalModel

#: Default weighting of the rails when probing the effective resistance —
#: roughly the power distribution of a GPU-heavy workload with busy big CPUs.
DEFAULT_RAIL_SHARES = {"big": 0.50, "gpu": 0.30, "little": 0.08, "mem": 0.12}


def _platform_rail_shares(platform: PlatformSpec) -> dict[str, float]:
    """Map the default shares onto this platform's actual rail names."""
    shares = {
        platform.big_cluster.rail: DEFAULT_RAIL_SHARES["big"],
        platform.little_cluster.rail: DEFAULT_RAIL_SHARES["little"],
        platform.gpu.rail: DEFAULT_RAIL_SHARES["gpu"],
        platform.memory.rail: DEFAULT_RAIL_SHARES["mem"],
    }
    return shares


def effective_resistance_k_per_w(
    model: ThermalModel, node: str, rail_shares: Mapping[str, float]
) -> float:
    """DC kelvin-per-watt from a power *mix* to one node.

    ``rail_shares`` describes how one watt of total power splits across
    rails; the result is the share-weighted sum of DC gains.
    """
    total = sum(rail_shares.values())
    if total <= 0.0:
        raise StabilityError("rail shares must sum to a positive value")
    return sum(
        (share / total) * model.dc_gain(node, rail)
        for rail, share in rail_shares.items()
    )


def ambient_offset_k(
    model: ThermalModel, node: str, constant_rails: Mapping[str, float]
) -> float:
    """Hotspot offset caused by constant power invisible to the governor."""
    return sum(
        model.dc_gain(node, rail) * watts for rail, watts in constant_rails.items()
    )


def fit_log_linear_leakage(temps_k, totals_w) -> tuple[float, float]:
    """Fit ``(kappa, beta)`` to leakage totals at the reference voltage.

    Regresses ``log(P / T^2) = log kappa - beta / T`` — the De Vogeleer
    temperature-bias correction: dividing by ``T^2`` before taking logs
    keeps the regression linear in ``1/T`` and unbiased across the
    temperature range.  Raises :class:`~repro.errors.StabilityError` on
    non-positive totals or a non-physical fitted beta.

    The single leakage estimator of the project: :func:`fit_leakage` uses it
    for the lumped stability analysis and the trace-calibration pipeline
    (:mod:`repro.calib.fit`) for its leakage stage.
    """
    temps_k = np.asarray(temps_k, dtype=float)
    totals = np.asarray(totals_w, dtype=float)
    if np.any(totals <= 0.0):
        raise StabilityError("platform has zero leakage; nothing to fit")
    y = np.log(totals / temps_k**2)
    a = np.column_stack([np.ones_like(temps_k), -1.0 / temps_k])
    coeffs, *_ = np.linalg.lstsq(a, y, rcond=None)
    kappa = float(np.exp(coeffs[0]))
    beta = float(coeffs[1])
    if beta <= 0.0:
        raise StabilityError(f"fitted beta is non-physical: {beta}")
    return kappa, beta


def fit_leakage(
    platform: PlatformSpec, temps_k: np.ndarray | None = None
) -> tuple[float, float]:
    """Fit (kappa, beta) to the platform's total SoC leakage vs temperature.

    Evaluates every component's leakage at its maximum-OPP voltage over a
    temperature grid and fits it with :func:`fit_log_linear_leakage`.
    """
    from repro.soc.power_model import leakage_power_w

    if temps_k is None:
        temps_k = np.linspace(305.0, 380.0, 16)
    components = [
        (c.leakage, c.opps[len(c.opps) - 1].voltage_v) for c in platform.clusters
    ]
    components.append(
        (platform.gpu.leakage, platform.gpu.opps[len(platform.gpu.opps) - 1].voltage_v)
    )
    components.append((platform.memory.leakage, platform.memory.leakage.v_ref))
    totals = []
    for t in temps_k:
        total = sum(
            leakage_power_w(params, float(t), volt) for params, volt in components
        )
        totals.append(total)
    return fit_log_linear_leakage(temps_k, totals)


def lump_platform(
    platform: PlatformSpec,
    model: ThermalModel,
    node: str | None = None,
    rail_shares: Mapping[str, float] | None = None,
) -> LumpedThermalParams:
    """Full identification: lumped parameters for the stability analysis."""
    hotspot = node or platform.big_cluster.thermal_node
    shares = dict(rail_shares) if rail_shares else _platform_rail_shares(platform)
    r_eff = effective_resistance_k_per_w(model, hotspot, shares)
    constant = {}
    if platform.board_power_w > 0.0:
        constant[BOARD_RAIL] = platform.board_power_w
    t_amb_eff = model.ambient_k + ambient_offset_k(model, hotspot, constant)
    kappa, beta = fit_leakage(platform)
    tau = model.dominant_time_constant_s()
    return LumpedThermalParams(
        r_k_per_w=r_eff,
        c_j_per_k=tau / r_eff,
        kappa_w_per_k2=kappa,
        beta_k=beta,
        t_ambient_k=t_amb_eff,
    )
