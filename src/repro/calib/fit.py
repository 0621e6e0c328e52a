"""Staged estimators: from a :class:`CalibTrace` to fitted model parameters.

The identification is gray-box — the model *structure* (CV^2 f dynamic
power, De Vogeleer-style ``kappa T^2 exp(-beta/T)`` leakage, a linear RC
thermal network) is assumed, and the trace determines the numbers:

* ``dvfs.<domain>`` — per-OPP regression of rail power against
  ``V^2 f busy`` over the staircase samples where the component is active
  (cpuidle keeps the idle scale at 1 there), recovering the effective
  switched capacitance, the idle floor, and the voltage ladder endpoints
  from the regulator-telemetry channel;
* ``leakage.<domain>`` — two-step leakage fit: a non-negative joint fit
  over a beta grid separates the leakage column from the dynamic terms,
  then the *shared* log-linear estimator
  (:func:`repro.core.calibration.fit_log_linear_leakage`, which the lumped
  stability analysis uses too) refines (kappa, beta) on the
  temperature-bias-corrected residual;
* ``memory`` — same two-step scheme against the re-derived memory activity
  (the engine's documented ``0.25 * busy/cores + 0.6 * gpu`` mix);
* ``rc`` — one-step state regression over clean record pairs recovers the
  discrete transition matrices; the matrix logarithm maps them back to
  continuous time, and a single non-negative least-squares assembly pins
  capacitances and link conductances to the declared topology;
* ``board`` — the constant rest-of-platform rail.

Each stage reports its parameters, residual, sample count, a *verdict*
and an uncertainty block in a :class:`StageFit`; :func:`fit_trace` runs
all stages and returns the :class:`FitReport` that
:mod:`repro.calib.assemble` turns into a :class:`~repro.soc.defs.
PlatformDef`.

Two fit paths share this module.  The *clean* path is the original PR 8
estimator sequence — it runs whenever the trace is sample-aligned,
uniform and undegraded, so clean-trace fits never depend on the robust
machinery.  The
*robust* path (``robust="on"``, or ``"auto"`` on a degraded trace) builds
on :mod:`repro.calib.robust`: gap-aware grid alignment, Hampel despiking,
Huber/IRLS weighting, and per-parameter confidence grades.  Unless
``robust="off"``, a stage whose channels are missing or unusably noisy is
*demoted* to its structural prior with an ``unfitted`` verdict instead of
raising — a degraded trace never tracebacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.calib import robust as rb
from repro.calib.trace import (
    BUSY_PREFIX,
    FREQ_PREFIX,
    POWER_PREFIX,
    TEMP_PREFIX,
    VOLT_PREFIX,
)
from repro.core.calibration import fit_log_linear_leakage
from repro.core.linalg import logm, nnls, nnls_scan
from repro.errors import CalibrationError, StabilityError
from repro.kernel.cpuidle import IDLE_BUSY_THRESHOLD
from repro.soc.power_model import memory_activity_proxy
from repro.units import celsius_to_kelvin, mhz

#: Wire-format version of the fit-report JSON schema.  The robustness
#: extension (``verdict`` / ``uncertainty`` per stage) is additive with
#: defaults, so version 1 reports from older writers still load.
FIT_REPORT_FORMAT = "repro.calib.fit_report/1"

#: Fit-path selector values accepted by :func:`fit_trace`.
ROBUST_MODES = ("auto", "on", "off")

#: Stage verdicts: ``fitted`` (trustworthy numbers), ``low_confidence``
#: (fitted but at least one parameter graded low), ``unfitted`` (stage
#: demoted to its structural prior).
VERDICTS = ("fitted", "low_confidence", "unfitted")

#: Structural-prior fallbacks used when a stage is demoted: deliberately
#: generic order-of-magnitude numbers, never tuned to any platform.
PRIOR_CLUSTER_CEFF = 2e-10
PRIOR_GPU_CEFF = 1e-9
PRIOR_IDLE_W = 0.05
PRIOR_V_MIN = 0.6
PRIOR_V_MAX = 1.0
PRIOR_LEAKAGE = {"kappa_w_per_k2": 0.0, "beta_k": 1000.0}
PRIOR_MEMORY = {"base_power_w": 0.1, "activity_power_w": 0.5}
PRIOR_NODE_CAPACITANCE = 10.0
PRIOR_LINK_CONDUCTANCE = 0.5

#: Search range for the leakage activation temperature (kelvin).
BETA_GRID_K = (600.0, 4000.0)

#: Ladder-regression residual (volts) below which the fitted OPP table is
#: emitted as a compact ``{freqs_mhz, v_min, v_max}`` ladder.
LADDER_RMS_MAX_V = 1e-3

#: Minimum clean samples a per-component regression needs.
MIN_SAMPLES = 8

#: A rail whose recorded power never moves more than this (std, watts) is
#: treated as constant and folded into the RC regression intercept.
CONSTANT_RAIL_STD_W = 1e-6


# --------------------------------------------------------------------------
# report containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StageFit:
    """Result of one estimator stage.

    ``params`` holds the fitted quantities in definition-schema shape;
    ``diagnostics`` holds everything else (visited OPPs, time constants,
    condition numbers) that aids debugging but never feeds the assembly.
    ``verdict`` is one of :data:`VERDICTS`; ``uncertainty`` (robust path)
    carries ``residual_mad``, ``n_effective`` and a ``params`` mapping of
    per-parameter confidence grades
    (:data:`~repro.calib.robust.CONFIDENCE_GRADES`).
    """

    stage: str
    params: Mapping
    residual_rms: float
    n_samples: int
    diagnostics: Mapping = field(default_factory=dict)
    verdict: str = "fitted"
    uncertainty: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise CalibrationError(
                f"stage {self.stage!r}: unknown verdict {self.verdict!r}; "
                f"have {VERDICTS}"
            )

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "stage": self.stage,
            "params": dict(self.params),
            "residual_rms": self.residual_rms,
            "n_samples": self.n_samples,
            "diagnostics": dict(self.diagnostics),
            "verdict": self.verdict,
            "uncertainty": dict(self.uncertainty),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageFit":
        """Inverse of :meth:`to_dict` (``verdict``/``uncertainty`` default
        for reports written before the robustness extension)."""
        return cls(
            stage=data["stage"],
            params=data["params"],
            residual_rms=data["residual_rms"],
            n_samples=data["n_samples"],
            diagnostics=data.get("diagnostics", {}),
            verdict=data.get("verdict", "fitted"),
            uncertainty=data.get("uncertainty", {}),
        )


class FitReport:
    """All stage results of one identification run."""

    def __init__(
        self,
        platform_hint: str = "",
        stages: tuple = (),
        warnings: tuple = (),
    ) -> None:
        self.platform_hint = str(platform_hint)
        self.stages = tuple(stages)
        self.warnings = tuple(str(w) for w in warnings)
        names = [s.stage for s in self.stages]
        if len(set(names)) != len(names):
            raise CalibrationError(f"duplicate stage names in report: {names}")

    def stage_names(self) -> list[str]:
        """Stage names in fit order."""
        return [s.stage for s in self.stages]

    def stage(self, name: str) -> StageFit:
        """Stage result by name; raises listing the available stages."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise CalibrationError(
            f"no stage {name!r} in report; have {self.stage_names()}"
        )

    def verdicts(self) -> dict[str, str]:
        """Mapping of stage name to verdict, in fit order."""
        return {s.stage: s.verdict for s in self.stages}

    def degraded(self) -> tuple[StageFit, ...]:
        """Stages that did not come out fully ``fitted``."""
        return tuple(s for s in self.stages if s.verdict != "fitted")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FitReport):
            return NotImplemented
        return (
            self.platform_hint == other.platform_hint
            and self.warnings == other.warnings
            and [s.to_dict() for s in self.stages]
            == [s.to_dict() for s in other.stages]
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :meth:`from_dict`)."""
        return {
            "format": FIT_REPORT_FORMAT,
            "platform_hint": self.platform_hint,
            "stages": [s.to_dict() for s in self.stages],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FitReport":
        """Inverse of :meth:`to_dict`; checks the wire-format version."""
        fmt = data.get("format")
        if fmt != FIT_REPORT_FORMAT:
            raise CalibrationError(
                f"unsupported fit-report format {fmt!r}; "
                f"this reader speaks {FIT_REPORT_FORMAT!r}"
            )
        return cls(
            platform_hint=data.get("platform_hint", ""),
            stages=tuple(StageFit.from_dict(s) for s in data.get("stages", ())),
            warnings=tuple(data.get("warnings", ())),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        """Parse a report from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CalibrationError(f"malformed fit-report JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CalibrationError("fit-report JSON must be an object")
        return cls.from_dict(data)

    def summary(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        lines = [f"fit report: {self.platform_hint or '(unnamed platform)'}"]
        for s in self.stages:
            keys = ", ".join(
                f"{k}={v:.4g}" for k, v in s.params.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            )
            marker = "" if s.verdict == "fitted" else f" [{s.verdict}]"
            lines.append(
                f"  {s.stage:<18} rms={s.residual_rms:.3e}  "
                f"n={s.n_samples:<5d} {keys}{marker}"
            )
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# trace access helpers
# --------------------------------------------------------------------------


def _grid(trace, names) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Values of ``names`` on the shared record grid.

    The staged estimators need sample-aligned channels (power, frequency
    and busy values of the *same* tick); sysfs-style logs with per-channel
    clocks must be resampled before fitting.
    """
    times = None
    values = {}
    for name in names:
        t, v = trace.series(name)
        if times is None:
            times = t
        elif t.shape != times.shape or not np.allclose(t, times):
            raise CalibrationError(
                f"channel {name!r} is not sampled on the shared record grid; "
                "the estimators need aligned channels"
            )
        values[name] = v
    return times, values


def _beta_column(volts, temps_k, beta: float) -> np.ndarray:
    return volts * temps_k**2 * np.exp(-beta / temps_k)


def _beta_grid_search(p, dyn_col, volts, temps_k, design_extra) -> float:
    """The beta of least joint-NNLS residual: a 35-point grid over
    :data:`BETA_GRID_K`, then two 9-point refinements around the best.
    Every grid point of one pass is scored in one :func:`nnls_scan`."""
    fixed = np.column_stack([*design_extra, dyn_col])
    lo, hi = BETA_GRID_K
    grid = np.linspace(lo, hi, 35)
    for _ in range(3):
        leakage = _beta_column(volts[:, None], temps_k[:, None], grid)
        best = int(np.argmin(nnls_scan(fixed, leakage, p)))
        step = grid[1] - grid[0]
        lo = max(BETA_GRID_K[0], grid[best] - step)
        hi = min(BETA_GRID_K[1], grid[best] + step)
        beta = float(grid[best])
        grid = np.linspace(lo, hi, 9)
    return beta


def _two_step_leakage(
    p, dyn_col, volts, temps_k, design_extra, warnings, what: str
) -> tuple[np.ndarray, float, float]:
    """Joint NNLS over a beta grid, then the shared log-linear refinement.

    ``design_extra`` supplies the non-leakage columns (intercept first).
    Returns ``(linear_coeffs, kappa, beta)`` with the leakage evaluated at
    the reference voltage (the ``volts`` column carries the V/v_ref bias).
    """
    beta = _beta_grid_search(p, dyn_col, volts, temps_k, design_extra)
    # Refinement loop: fix beta, re-solve the linear terms, re-fit
    # (kappa, beta) on the leakage residual with the shared estimator.
    for _ in range(3):
        a = np.column_stack([*design_extra, dyn_col, _beta_column(volts, temps_k, beta)])
        coef = nnls(a, p)[0]
        linear = np.column_stack([*design_extra, dyn_col]) @ coef[:-1]
        totals = (p - linear) / volts
        valid = totals > 0.0
        if valid.sum() < MIN_SAMPLES:
            kappa, beta = float(coef[-1]), float(beta)
            if kappa > 1e-12:
                warnings.append(
                    f"{what}: too few positive leakage residuals; "
                    "keeping the grid-search (kappa, beta)"
                )
            break
        try:
            kappa, beta = fit_log_linear_leakage(temps_k[valid], totals[valid])
        except StabilityError:
            kappa, beta = float(coef[-1]), float(beta)
            warnings.append(
                f"{what}: leakage refinement failed; "
                "keeping the grid-search (kappa, beta)"
            )
            break
    return coef[:-1], kappa, beta


def _fit_ladder(
    prior_freqs_mhz, f_mhz, volts, warnings, what: str
) -> tuple[dict, float | None]:
    """Recover the OPP table from observed (frequency, voltage) pairs.

    When the observed pairs sit on a linear ladder (within
    :data:`LADDER_RMS_MAX_V`), emit the compact ladder block over the full
    prior frequency list; otherwise fall back to explicit points over the
    visited OPPs.
    """
    pairs = sorted({(round(float(f), 3), float(v)) for f, v in zip(f_mhz, volts)})
    if len(pairs) < 2:
        raise CalibrationError(
            f"{what}: saw {len(pairs)} distinct OPPs; a fit needs >= 2"
        )
    freqs = [p[0] for p in pairs]
    lo, hi = min(prior_freqs_mhz), max(prior_freqs_mhz)
    if abs(freqs[0] - lo) > 1e-3 or abs(freqs[-1] - hi) > 1e-3:
        warnings.append(
            f"{what}: ladder endpoints not visited; emitting explicit points"
        )
        return {"points_mhz_v": [list(p) for p in pairs]}, None
    v_min, v_max = pairs[0][1], pairs[-1][1]
    predicted = np.array([
        round(v_min + (v_max - v_min) * (f - lo) / (hi - lo), 4) for f, _ in pairs
    ])
    observed = np.array([v for _, v in pairs])
    rms = float(np.sqrt(np.mean((predicted - observed) ** 2)))
    if rms >= LADDER_RMS_MAX_V:
        warnings.append(
            f"{what}: voltages deviate from a linear ladder "
            f"(rms {rms:.2e} V); emitting explicit points"
        )
        return {"points_mhz_v": [list(p) for p in pairs]}, rms
    return {
        "freqs_mhz": [float(f) for f in prior_freqs_mhz],
        "v_min": v_min,
        "v_max": v_max,
    }, rms


# --------------------------------------------------------------------------
# per-component stages
# --------------------------------------------------------------------------


def _component_stages(
    trace, domain: str, n_units: float, rail: str, node: str,
    prior_freqs_mhz, warnings,
) -> tuple[StageFit, StageFit]:
    """``dvfs.<domain>`` and ``leakage.<domain>`` for one CPU cluster or GPU."""
    what = f"domain {domain!r}"
    _, chans = _grid(trace, [
        f"power.{rail}", f"freq.{domain}", f"volt.{domain}",
        f"busy.{domain}", f"temp.{node}",
    ])
    p = chans[f"power.{rail}"]
    freq_hz = mhz(chans[f"freq.{domain}"])
    volts = chans[f"volt.{domain}"]
    busy = np.minimum(chans[f"busy.{domain}"], n_units)
    temps_k = celsius_to_kelvin(chans[f"temp.{node}"])

    stable = np.zeros(p.size, dtype=bool)
    stable[1:] = np.abs(np.diff(freq_hz)) < 0.5
    active = busy / n_units > IDLE_BUSY_THRESHOLD
    mask = stable & active
    if mask.sum() < MIN_SAMPLES:
        raise CalibrationError(
            f"{what}: only {int(mask.sum())} clean active samples; "
            "the staircase must dwell longer or record faster"
        )

    dyn_col = (volts**2 * freq_hz * busy)[mask]
    linear, kappa, beta = _two_step_leakage(
        p[mask], dyn_col, volts[mask], temps_k[mask],
        [np.ones(int(mask.sum()))], warnings, what,
    )
    idle_w, ceff = float(linear[0]), float(linear[1])
    model = (
        idle_w + ceff * dyn_col
        + kappa * _beta_column(volts[mask], temps_k[mask], beta)
    )
    rms = float(np.sqrt(np.mean((p[mask] - model) ** 2)))

    opps, ladder_rms = _fit_ladder(
        prior_freqs_mhz, chans[f"freq.{domain}"][mask], volts[mask],
        warnings, what,
    )
    dvfs = StageFit(
        stage=f"dvfs.{domain}",
        params={
            "ceff_w_per_v2hz": ceff,
            "idle_power_w": idle_w,
            "opps": opps,
        },
        residual_rms=rms,
        n_samples=int(mask.sum()),
        diagnostics={
            "ladder_rms_v": ladder_rms,
            "visited_mhz": sorted({round(float(f), 3) for f in chans[f"freq.{domain}"][mask]}),
        },
    )
    leakage = StageFit(
        stage=f"leakage.{domain}",
        params={"kappa_w_per_k2": kappa, "beta_k": beta},
        residual_rms=rms,
        n_samples=int(mask.sum()),
        diagnostics={
            "temp_span_k": [float(temps_k[mask].min()), float(temps_k[mask].max())],
        },
    )
    return dvfs, leakage


def _memory_stage(trace, meta, warnings) -> StageFit:
    """``memory``: base + activity power and leakage of the DRAM rail.

    The memory activity is not logged; it is re-derived from the busy
    channels with the engine's documented mix — a modelling assumption a
    real calibration would replace with DRAM event counters:
    ``act = min(1, 0.25 * sum(busy) / total_cores + 0.6 * busy_gpu)``.
    """
    mem = meta["memory"]
    clusters = meta["clusters"]
    names = [f"busy.{c['name']}" for c in clusters]
    _, chans = _grid(trace, [
        f"power.{mem['rail']}", f"temp.{mem['thermal_node']}", "busy.gpu", *names,
    ])
    total_cores = sum(int(c["n_cores"]) for c in clusters)
    total_busy = np.sum([chans[n] for n in names], axis=0)
    act = memory_activity_proxy(total_busy, total_cores, chans["busy.gpu"])
    p = chans[f"power.{mem['rail']}"]
    temps_k = celsius_to_kelvin(chans[f"temp.{mem['thermal_node']}"])
    ones = np.ones(p.size)

    linear, kappa, beta = _two_step_leakage(
        p, act, ones, temps_k, [ones], warnings, "memory",
    )
    base, act_pw = float(linear[0]), float(linear[1])
    if kappa < 1e-12:
        # The rail shows no measurable temperature dependence; emit the
        # spec default so the definition stays well-formed.
        kappa, beta = 0.0, 1000.0
    model = base + act_pw * act + kappa * _beta_column(ones, temps_k, beta)
    rms = float(np.sqrt(np.mean((p - model) ** 2)))
    return StageFit(
        stage="memory",
        params={
            "base_power_w": base,
            "activity_power_w": act_pw,
            "kappa_w_per_k2": kappa,
            "beta_k": beta,
        },
        residual_rms=rms,
        n_samples=int(p.size),
        diagnostics={"activity_span": [float(act.min()), float(act.max())]},
    )


def _board_stage(trace) -> StageFit:
    """``board``: the constant rest-of-platform power, if the rail exists."""
    if "power.board" not in trace:
        return StageFit(
            stage="board", params={"board_power_w": 0.0},
            residual_rms=0.0, n_samples=0,
        )
    _, p = trace.series("power.board")
    return StageFit(
        stage="board",
        params={"board_power_w": float(np.mean(p))},
        residual_rms=float(np.std(p)),
        n_samples=int(p.size),
    )


# --------------------------------------------------------------------------
# RC-network identification
# --------------------------------------------------------------------------


def _clean_pairs(times, freq_chans, busy_chans, rail_chans) -> np.ndarray:
    """Mask of record pairs ``(k, k+1)`` usable for one-step regression.

    A pair is dirty when the recording cadence breaks, any DVFS domain
    changes frequency, any busy count moves, or any rail power jumps more
    than measurement drift explains (cpuidle gating steps, task churn).
    """
    dt = np.diff(times)
    dt_rec = float(np.median(dt))
    mask = np.abs(dt - dt_rec) < 1e-9
    for chan in freq_chans:
        mask &= np.abs(np.diff(chan)) < 0.5
    for chan in busy_chans:
        mask &= np.abs(np.diff(chan)) < 1e-9
    for chan in rail_chans:
        jump = np.abs(np.diff(chan))
        limit = np.maximum(0.01 * np.abs(chan[:-1]), 0.005)
        mask &= jump <= limit
    return mask


def _rc_stage(trace, meta, warnings) -> StageFit:
    """``rc``: capacitances and link conductances of the declared topology."""
    thermal = meta["thermal"]
    nodes = list(thermal["nodes"])
    links = [tuple(pair) for pair in thermal["links"]]
    split = thermal["power_split"]
    rails = sorted(split)
    cluster_names = [c["name"] for c in meta["clusters"]]
    domains = cluster_names + ["gpu"]

    times, chans = _grid(trace, (
        [f"temp.{n}" for n in nodes]
        + [f"power.{r}" for r in rails]
        + [f"freq.{d}" for d in domains]
        + [f"busy.{d}" for d in domains]
    ))
    temps = np.column_stack([
        celsius_to_kelvin(chans[f"temp.{n}"]) for n in nodes
    ])
    powers = {r: chans[f"power.{r}"] for r in rails}
    varying = [r for r in rails if float(np.std(powers[r])) > CONSTANT_RAIL_STD_W]
    constant = [r for r in rails if r not in varying]

    pair_mask = _clean_pairs(
        times,
        [chans[f"freq.{d}"] for d in domains],
        [chans[f"busy.{d}"] for d in domains],
        [powers[r] for r in varying],
    )
    n_pairs = int(pair_mask.sum())
    n = len(nodes)
    if n_pairs < 10 * (n + len(varying) + 1):
        raise CalibrationError(
            f"rc: only {n_pairs} clean record pairs for "
            f"{n + len(varying) + 1} regressors; record a longer trace"
        )
    dt_rec = float(np.median(np.diff(times)))

    q = np.column_stack([powers[r] for r in varying]) if varying else np.empty((temps.shape[0], 0))
    design = np.column_stack([
        temps[:-1][pair_mask], q[:-1][pair_mask], np.ones(n_pairs),
    ])
    target = temps[1:][pair_mask]
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    ad = coeffs[:n, :].T
    bd = coeffs[n:n + len(varying), :].T
    c_int = coeffs[-1, :]

    eigvals = np.linalg.eigvals(ad)
    if np.any(np.abs(eigvals) >= 1.0) or np.any(eigvals.real <= 0.0):
        raise CalibrationError(
            f"rc: estimated transition matrix is not a stable thermal "
            f"propagator (eigenvalues {np.round(eigvals, 4)})"
        )
    a_mat = logm(ad) / dt_rec
    gain = np.linalg.solve(a_mat, ad - np.eye(n))
    b_mat = np.linalg.solve(gain, bd)
    b_int = np.linalg.solve(gain, c_int)

    t_amb_k = celsius_to_kelvin(trace.ambient_c)
    q_const = {r: float(np.mean(powers[r])) for r in constant}
    caps, conducts, node_index = _assemble_rc_params(
        nodes, links, split, varying, constant,
        a_mat, b_mat, b_int, q_const, t_amb_k,
    )

    pred = design @ coeffs
    rms = float(np.sqrt(np.mean((target - pred) ** 2)))
    taus = sorted((-1.0 / ev.real) for ev in np.linalg.eigvals(a_mat) if ev.real < 0.0)
    return StageFit(
        stage="rc",
        params=_rc_params(nodes, links, caps, conducts, node_index),
        residual_rms=rms,
        n_samples=n_pairs,
        diagnostics={
            "dt_rec_s": dt_rec,
            "time_constants_s": [float(t) for t in taus],
            "constant_rails": constant,
        },
    )


def _rc_params(nodes, links, caps, conducts, node_index) -> dict:
    """Definition-schema ``nodes``/``links`` blocks from the assembly output."""
    return {
        "nodes": [
            {"name": name, "capacitance_j_per_k": float(caps[i])}
            for name, i in node_index.items()
        ],
        "links": [
            {"a": a, "b": b, "conductance_w_per_k": float(conducts[l])}
            for l, (a, b) in enumerate(links)
        ],
    }


def _assemble_rc_params(
    nodes, links, split, varying, constant,
    a_mat, b_mat, b_int, q_const, t_amb_k,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """NNLS assembly pinning capacitances/conductances to the topology.

    Shared by the clean and robust RC stages; the inputs are the
    continuous-time regression results, so the two paths differ only in
    how those were estimated.
    """
    n = len(nodes)
    node_index = {name: i for i, name in enumerate(nodes)}
    rows, rhs = [], []
    n_unknowns = n + len(links)

    def row(caps=(), conducts=(), value=0.0):
        r = np.zeros(n_unknowns)
        for i, coeff in caps:
            r[i] = coeff
        for l, coeff in conducts:
            r[n + l] = coeff
        rows.append(r)
        rhs.append(value)

    # Anchors: a varying rail deposits a known fraction of its watts on a
    # node, so B[i, r] * C_i must equal that fraction.  This fixes the
    # overall scale the homogeneous conductance rows cannot.
    for r_idx, rail in enumerate(varying):
        frac = split[rail]
        for name, i in node_index.items():
            row(caps=[(i, float(b_mat[i, r_idx]))], value=float(frac.get(name, 0.0)))

    link_index: dict[tuple[str, str], int] = {}
    incident: dict[int, list[int]] = {i: [] for i in range(n)}
    ambient_of: dict[int, int] = {}
    for l, (a, b) in enumerate(links):
        link_index[(a, b)] = link_index[(b, a)] = l
        for end in (a, b):
            if end == "ambient":
                continue
            incident[node_index[end]].append(l)
        if "ambient" in (a, b):
            other = b if a == "ambient" else a
            i = node_index[other]
            if i in ambient_of:
                raise CalibrationError(
                    f"rc: node {other!r} has multiple ambient links; "
                    "they are not separately identifiable from one trace"
                )
            ambient_of[i] = l

    # Off-diagonal couplings: C_i * A[i, j] equals the conductance of the
    # (i, j) link, or zero when the topology declares none.
    for name_i, i in node_index.items():
        for name_j, j in node_index.items():
            if i == j:
                continue
            l = link_index.get((name_i, name_j))
            if l is None:
                row(caps=[(i, float(a_mat[i, j]))])
            else:
                row(caps=[(i, float(a_mat[i, j]))], conducts=[(l, -1.0)])

    # Diagonals: every conductance incident on a node (ambient included —
    # it is already in the incidence list) drains it, so
    # C_i * A[i, i] + sum(g) = 0.
    for name_i, i in node_index.items():
        row(
            caps=[(i, float(a_mat[i, i]))],
            conducts=[(l, 1.0) for l in incident[i]],
        )

    # Ambient drive: the regression intercept is w_i * T_amb plus the
    # constant rails' contribution, i.e. C_i * b_int_i = q_const_i +
    # g_ambient_i * T_amb.  This pins the ambient conductances directly.
    for name_i, i in node_index.items():
        q_const_i = sum(
            float(split[r].get(name_i, 0.0)) * q_const[r] for r in constant
        )
        conducts = [(ambient_of[i], -1.0)] if i in ambient_of else []
        row(
            caps=[(i, float(b_int[i]) / t_amb_k)],
            conducts=conducts,
            value=q_const_i / t_amb_k,
        )

    matrix = np.vstack(rows)
    if np.linalg.matrix_rank(matrix) < n_unknowns:
        raise CalibrationError(
            "rc: the declared topology is not identifiable from this trace "
            "(assembly system is rank-deficient)"
        )
    solution, _ = nnls(matrix, np.asarray(rhs))
    return solution[:n], solution[n:], node_index


# --------------------------------------------------------------------------
# robust stage variants (gap-aware, despiked, IRLS-weighted)
# --------------------------------------------------------------------------


def _verdict_from_grades(grades: Mapping) -> str:
    return "low_confidence" if "low" in set(grades.values()) else "fitted"


def _uncertainty(residuals, weights, grades: Mapping) -> dict:
    return {
        "residual_mad": rb.MAD_SCALE * rb.mad(residuals),
        "n_effective": rb.effective_samples(weights),
        "params": dict(grades),
    }


def _fit_ladder_robust(prior_freqs_mhz, f_mhz, volts, warnings, what: str):
    """Per-frequency median voltages, then the clean ladder regression.

    Aggregating first makes quantized/noisy regulator telemetry collapse
    back to one voltage per OPP, so the ladder test sees the same shape a
    clean capture would.
    """
    freqs, key = _rounded_mhz(f_mhz)
    # Samples grouped by key, each group in sample order.
    order = np.argsort(key, kind="stable")
    grouped = np.asarray(volts, dtype=float)[order]
    bounds = np.searchsorted(key[order], np.arange(len(freqs) + 1))
    medians = [
        float(rb.median(grouped[lo:hi]))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return _fit_ladder(prior_freqs_mhz, freqs, medians, warnings, what)


def _rounded_mhz(f_mhz) -> tuple[list[float], np.ndarray]:
    """Sorted distinct ``round(f, 3)`` keys of ``f_mhz`` and each sample's
    key index, rounding each distinct frequency once.  Rounding is
    monotone, so distinct frequencies that share a key are neighbours in
    ``np.unique``'s order and merge into one group."""
    distinct, inverse = np.unique(
        np.asarray(f_mhz, dtype=float), return_inverse=True
    )
    rounded = [round(float(f), 3) for f in distinct]
    fresh = [True] + [a != b for a, b in zip(rounded, rounded[1:])]
    freqs = [f for f, new in zip(rounded, fresh) if new]
    return freqs, (np.cumsum(fresh) - 1)[inverse]


def _two_step_leakage_robust(
    p, dyn_col, volts, temps_k, design_extra, warnings, what: str
):
    """IRLS variant of :func:`_two_step_leakage`.

    Same beta grid search, but the refinement loop re-solves the NNLS with
    Huber weights and refits (kappa, beta) with the robust log-linear
    estimator.  Returns ``(linear_coeffs, kappa, beta, weights,
    leak_stderr)`` where ``leak_stderr`` is ``(se_log_kappa, se_beta)``.
    """
    def design_at(beta: float) -> np.ndarray:
        return np.column_stack(
            [*design_extra, dyn_col, _beta_column(volts, temps_k, beta)]
        )

    beta = _beta_grid_search(p, dyn_col, volts, temps_k, design_extra)
    weights = np.ones(p.size)
    leak_se = (float("inf"), float("inf"))
    # Huber scale never drops below 0.1% of the typical rail power:
    # residual structure finer than the meter resolves is refinement
    # error, and downweighting it would bias the hottest (most
    # leakage-informative) samples.
    scale_floor = 1e-3 * float(rb.median(np.abs(p)))
    for _ in range(3):
        sw = np.sqrt(weights)
        design = design_at(beta)
        coef = nnls(design * sw[:, None], p * sw)[0]
        residuals = p - design @ coef
        scale = max(rb.robust_scale(residuals), scale_floor)
        if scale > 0.0:
            weights = rb.huber_weights(np.abs(residuals), scale)
        linear = np.column_stack([*design_extra, dyn_col]) @ coef[:-1]
        totals = (p - linear) / volts
        valid = totals > 0.0
        if valid.sum() < MIN_SAMPLES:
            kappa = float(coef[-1])
            if kappa > 1e-12:
                warnings.append(
                    f"{what}: too few positive leakage residuals; "
                    "keeping the grid-search (kappa, beta)"
                )
            break
        try:
            kappa, beta, leak_se = rb.fit_log_linear_leakage_robust(
                temps_k[valid], totals[valid]
            )
        except StabilityError:
            kappa = float(coef[-1])
            warnings.append(
                f"{what}: leakage refinement failed; "
                "keeping the grid-search (kappa, beta)"
            )
            break
    return coef[:-1], kappa, beta, weights, leak_se


def _component_stages_robust(
    trace, domain: str, n_units: float, rail: str, node: str,
    prior_freqs_mhz, warnings,
) -> tuple[StageFit, StageFit]:
    """Robust ``dvfs.<domain>`` / ``leakage.<domain>``: gap-aware and IRLS."""
    what = f"domain {domain!r}"
    names = [
        f"power.{rail}", f"freq.{domain}", f"volt.{domain}",
        f"busy.{domain}", f"temp.{node}",
    ]
    grid = rb.align_channels(trace, names)
    p = grid.values[f"power.{rail}"]
    freq_mhz_col = grid.values[f"freq.{domain}"]
    freq_hz = mhz(freq_mhz_col)
    volts = grid.values[f"volt.{domain}"]
    busy = np.minimum(grid.values[f"busy.{domain}"], n_units)
    temps_c, spiky = rb.hampel(grid.values[f"temp.{node}"])
    temps_k = celsius_to_kelvin(temps_c)
    window = (float(grid.times[0]), float(grid.times[-1]))

    present = grid.all_present(names)
    stable = np.zeros(p.size, dtype=bool)
    stable[1:] = present[1:] & present[:-1] & (np.abs(np.diff(freq_hz)) < 0.5)
    active = present & (busy / n_units > IDLE_BUSY_THRESHOLD)
    # Drop spike-flagged records outright: the rolling-median replacement
    # lags true temperature during transients, which biases the leakage
    # column far more than losing the sample does.
    mask = stable & active & ~spiky
    n_used = int(mask.sum())
    if n_used < MIN_SAMPLES:
        raise CalibrationError(
            f"{what}: only {n_used} clean active samples survive the gaps; "
            "the staircase must dwell longer or record faster",
            channel=f"power.{rail}", segment=f"staircase-{domain}",
            window_s=window,
        )

    dyn_col = (volts**2 * freq_hz * busy)[mask]
    linear, kappa, beta, weights, leak_se = _two_step_leakage_robust(
        p[mask], dyn_col, volts[mask], temps_k[mask],
        [np.ones(n_used)], warnings, what,
    )
    idle_w, ceff = float(linear[0]), float(linear[1])
    if ceff <= 0.0:
        raise CalibrationError(
            f"{what}: effective capacitance came out non-positive "
            f"({ceff!r}); the staircase does not separate dynamic power",
            channel=f"power.{rail}", segment=f"staircase-{domain}",
            window_s=window,
        )
    beta_col = _beta_column(volts[mask], temps_k[mask], beta)
    model = idle_w + ceff * dyn_col + kappa * beta_col
    residuals = p[mask] - model
    rms = float(np.sqrt(np.mean(residuals**2)))

    design = np.column_stack([np.ones(n_used), dyn_col, beta_col])
    stderr = rb.lstsq_stderr(
        design, p[mask], np.array([idle_w, ceff, kappa]), weights,
    )
    dvfs_grades = {
        "idle_power_w": rb.grade_param(idle_w, float(stderr[0]), floor=0.005),
        "ceff_w_per_v2hz": rb.grade_param(ceff, float(stderr[1])),
    }
    leak_grades = {
        "kappa_w_per_k2": (
            "high" if kappa <= 1e-12
            else rb.grade_param(1.0, leak_se[0])
        ),
        "beta_k": (
            "high" if kappa <= 1e-12
            else rb.grade_param(beta, leak_se[1])
        ),
    }

    opps, ladder_rms = _fit_ladder_robust(
        prior_freqs_mhz, freq_mhz_col[mask], volts[mask], warnings, what,
    )
    dvfs = StageFit(
        stage=f"dvfs.{domain}",
        params={
            "ceff_w_per_v2hz": ceff,
            "idle_power_w": idle_w,
            "opps": opps,
        },
        residual_rms=rms,
        n_samples=n_used,
        diagnostics={
            "ladder_rms_v": ladder_rms,
            "visited_mhz": _rounded_mhz(freq_mhz_col[mask])[0],
            "temp_outliers_replaced": int(spiky.sum()),
        },
        verdict=_verdict_from_grades(dvfs_grades),
        uncertainty=_uncertainty(residuals, weights, dvfs_grades),
    )
    leakage = StageFit(
        stage=f"leakage.{domain}",
        params={"kappa_w_per_k2": kappa, "beta_k": beta},
        residual_rms=rms,
        n_samples=n_used,
        diagnostics={
            "temp_span_k": [
                float(temps_k[mask].min()), float(temps_k[mask].max())
            ],
        },
        verdict=_verdict_from_grades(leak_grades),
        uncertainty=_uncertainty(residuals, weights, leak_grades),
    )
    return dvfs, leakage


def _memory_stage_robust(trace, meta, warnings) -> StageFit:
    """Robust ``memory`` stage (see :func:`_memory_stage` for the proxy)."""
    mem = meta["memory"]
    clusters = meta["clusters"]
    busy_names = [f"busy.{c['name']}" for c in clusters]
    names = [
        f"power.{mem['rail']}", f"temp.{mem['thermal_node']}",
        "busy.gpu", *busy_names,
    ]
    grid = rb.align_channels(trace, names)
    temps_all, spiky = rb.hampel(grid.values[f"temp.{mem['thermal_node']}"])
    present = grid.all_present(names) & ~spiky
    n_used = int(present.sum())
    window = (float(grid.times[0]), float(grid.times[-1]))
    if n_used < MIN_SAMPLES:
        raise CalibrationError(
            f"memory: only {n_used} complete records survive the gaps",
            channel=f"power.{mem['rail']}", window_s=window,
        )
    total_cores = sum(int(c["n_cores"]) for c in clusters)
    total_busy = np.sum([grid.values[n][present] for n in busy_names], axis=0)
    act = memory_activity_proxy(
        total_busy, total_cores, grid.values["busy.gpu"][present]
    )
    p = grid.values[f"power.{mem['rail']}"][present]
    temps_k = celsius_to_kelvin(temps_all[present])
    ones = np.ones(n_used)

    linear, kappa, beta, weights, leak_se = _two_step_leakage_robust(
        p, act, ones, temps_k, [ones], warnings, "memory",
    )
    base, act_pw = float(linear[0]), float(linear[1])
    if kappa < 1e-12:
        kappa, beta = 0.0, 1000.0
    model = base + act_pw * act + kappa * _beta_column(ones, temps_k, beta)
    residuals = p - model
    rms = float(np.sqrt(np.mean(residuals**2)))
    design = np.column_stack([ones, act, _beta_column(ones, temps_k, beta)])
    stderr = rb.lstsq_stderr(
        design, p, np.array([base, act_pw, kappa]), weights,
    )
    grades = {
        "base_power_w": rb.grade_param(base, float(stderr[0]), floor=0.005),
        "activity_power_w": rb.grade_param(
            act_pw, float(stderr[1]), floor=0.005
        ),
        "kappa_w_per_k2": (
            "high" if kappa <= 1e-12 else rb.grade_param(1.0, leak_se[0])
        ),
        "beta_k": (
            "high" if kappa <= 1e-12 else rb.grade_param(beta, leak_se[1])
        ),
    }
    return StageFit(
        stage="memory",
        params={
            "base_power_w": base,
            "activity_power_w": act_pw,
            "kappa_w_per_k2": kappa,
            "beta_k": beta,
        },
        residual_rms=rms,
        n_samples=n_used,
        diagnostics={
            "activity_span": [float(act.min()), float(act.max())],
            "temp_outliers_replaced": int(spiky.sum()),
        },
        verdict=_verdict_from_grades(grades),
        uncertainty=_uncertainty(residuals, weights, grades),
    )


def _board_stage_robust(trace) -> StageFit:
    """Robust ``board``: median/MAD of the rest-of-platform rail."""
    if "power.board" not in trace:
        return StageFit(
            stage="board", params={"board_power_w": 0.0},
            residual_rms=0.0, n_samples=0,
        )
    _, p = trace.series("power.board")
    board_w = float(rb.median(p))
    residuals = p - board_w
    spread = rb.MAD_SCALE * rb.mad(p)
    grades = {
        "board_power_w": rb.grade_param(
            board_w, spread / np.sqrt(max(p.size, 1)), floor=0.005
        ),
    }
    return StageFit(
        stage="board",
        params={"board_power_w": board_w},
        residual_rms=float(np.std(p)),
        n_samples=int(p.size),
        verdict=_verdict_from_grades(grades),
        uncertainty=_uncertainty(residuals, np.ones(p.size), grades),
    )


RC_WINDOW_RECORDS = 30
RC_MIN_WINDOW_RECORDS = 6


def _rc_windows(present, trans, tile: int, min_recs: int) -> list:
    """Index sets for energy-balance windows: cut at every input transition,
    tile the constant-input runs, keep windows with enough clean records."""
    m = present.size
    bounds = [0] + list(np.flatnonzero(trans)) + [m]
    windows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for start in range(lo, hi, tile):
            stop = min(start + tile, hi)
            idx = np.flatnonzero(present[start:stop]) + start
            if idx.size >= min_recs:
                windows.append(idx)
    return windows


def _energy_balance_system(
    times, windows, nodes, links, temps, powers, split, varying, q_const,
    t_amb_k,
) -> tuple[np.ndarray, np.ndarray]:
    """Design and target of the windowed energy balance (see
    :func:`_rc_stage_robust`): one row per (window, node), windows outer.

    Node ``i``'s row holds ``T_i(t1) - T_i(t0)`` in column ``i`` and
    ``-int(T_other - T_i) dt`` in each incident link's column; its target
    is the heat the rails deposit on it.  Windows are grouped by record
    count, and each group's integrands (link temperature differences and
    varying rail powers) are integrated by one ``np.trapezoid`` along the
    last axis of a C-ordered ``(integrand, window, record)`` array.  numpy
    reduces each such row with the same pairwise sum it applies to one
    window's 1-D array, so every integral, and every row, has the bits of
    a per-window loop.
    """
    n = len(nodes)
    node_temps = np.vstack([temps[name] for name in nodes])
    # One integrand per (node, incident link): each node integrates
    # T_other - T_node itself, because negating the other end's integral
    # would flip the sign of an exactly-zero one.
    ends, columns, differences = [], [], []
    for i, name in enumerate(nodes):
        for l, (a, b) in enumerate(links):
            if name in (a, b):
                other = b if a == name else a
                other_temp = t_amb_k if other == "ambient" else temps[other]
                ends.append(i)
                columns.append(n + l)
                differences.append(other_temp - temps[name])
    integrands = np.array(
        [*differences, *(powers[r] for r in varying)], dtype=float
    ).reshape(-1, times.size)

    first = np.array([w[0] for w in windows])
    last = np.array([w[-1] for w in windows])
    rises = node_temps[:, last] - node_temps[:, first]
    spans = times[last] - times[first]
    lengths = np.array([w.size for w in windows])
    integrals = np.empty((integrands.shape[0], lengths.size))
    for length in np.unique(lengths):
        members = np.flatnonzero(lengths == length)
        idx = np.stack([windows[w] for w in members])
        # np.take keeps the records last in memory (fancy indexing does
        # not), so the sum runs along them as in the 1-D call.
        integrals[:, members] = np.trapezoid(
            np.take(integrands, idx, axis=1), times[idx], axis=-1
        )

    design = np.zeros((lengths.size, n, n + len(links)))
    design[:, np.arange(n), np.arange(n)] = rises.T
    design[:, ends, columns] = -integrals[: len(ends)].T
    rail_row = {r: len(ends) + j for j, r in enumerate(varying)}
    target = np.zeros((n, lengths.size))
    for i, name in enumerate(nodes):
        for rail in sorted(split):
            frac = float(split[rail].get(name, 0.0))
            if frac == 0.0:
                continue
            if rail in rail_row:
                target[i] += frac * integrals[rail_row[rail]]
            else:
                target[i] += frac * q_const[rail] * spans
    return design.reshape(-1, n + len(links)), target.T.ravel()


def _rc_stage_robust(trace, meta, warnings) -> StageFit:
    """Robust ``rc``: windowed energy-balance NNLS over the declared topology.

    The clean estimator's one-step state regression is quantization-limited:
    a slow node moves only millikelvins per record, so sysfs-grade rounding
    drowns exactly the partial signal that identifies its row.  Integrating
    each node's heat balance over multi-second windows instead makes every
    regressor kelvin- or joule-scale,

        C_i * (T_i(t1) - T_i(t0)) =
            sum_links G_l * int(T_other - T_i) dt + split_i * int(q) dt,

    which is *linear* in all capacitances and conductances jointly, needs
    no matrix logarithm, and tolerates interior sample drops (the trapezoid
    just spans them).  Windows never cross an input transition, so the
    held-input assumption behind the recorded rail powers stays exact.
    """
    thermal = meta["thermal"]
    nodes = list(thermal["nodes"])
    links = [tuple(pair) for pair in thermal["links"]]
    split = thermal["power_split"]
    rails = sorted(split)
    cluster_names = [c["name"] for c in meta["clusters"]]
    domains = cluster_names + ["gpu"]

    names = (
        [f"temp.{n}" for n in nodes]
        + [f"power.{r}" for r in rails]
        + [f"freq.{d}" for d in domains]
        + [f"busy.{d}" for d in domains]
    )
    grid = rb.align_channels(trace, names)
    times = grid.times
    window = (float(times[0]), float(times[-1]))
    despiked = {}
    flagged = np.zeros(times.size, dtype=bool)
    for node in nodes:
        despiked[node], spiky = rb.hampel(grid.values[f"temp.{node}"])
        flagged |= spiky
    outliers = int(flagged.sum())
    temps = {n: celsius_to_kelvin(despiked[n]) for n in nodes}
    powers = {r: grid.values[f"power.{r}"] for r in rails}
    varying = [
        r for r in rails
        if float(np.nanstd(powers[r])) > CONSTANT_RAIL_STD_W
    ]
    constant = [r for r in rails if r not in varying]
    q_const = {r: float(np.nanmedian(powers[r])) for r in constant}

    present = grid.all_present(names) & ~flagged
    trans = np.zeros(times.size, dtype=bool)
    idx = np.flatnonzero(present)
    for d in domains:
        freq = mhz(grid.values[f"freq.{d}"])
        busy = grid.values[f"busy.{d}"]
        changed = (
            (np.abs(np.diff(freq[idx])) >= 0.5)
            | (np.abs(np.diff(busy[idx])) >= 1e-9)
        )
        trans[idx[1:][changed]] = True
    windows = _rc_windows(
        present, trans, RC_WINDOW_RECORDS, RC_MIN_WINDOW_RECORDS
    )
    n = len(nodes)
    n_unknowns = n + len(links)
    if len(windows) * n < 3 * n_unknowns:
        raise CalibrationError(
            f"rc: only {len(windows)} clean energy-balance windows for "
            f"{n_unknowns} unknowns; record a longer trace",
            channel=f"temp.{nodes[0]}", window_s=window,
        )

    node_index = {name: i for i, name in enumerate(nodes)}
    design, target = _energy_balance_system(
        times, windows, nodes, links, temps, powers, split, varying, q_const,
        celsius_to_kelvin(trace.ambient_c),
    )
    if np.linalg.matrix_rank(design) < n_unknowns:
        raise CalibrationError(
            "rc: the declared topology is not identifiable from the "
            "degraded trace (energy-balance system is rank-deficient)",
            channel=f"temp.{nodes[0]}", window_s=window,
        )
    solution, weights = rb.irls_nnls(
        design, target,
        min_scale=1e-3 * float(rb.median(np.abs(target))),
    )
    caps, conducts = solution[:n], solution[n:]
    if np.any(caps <= 0.0) or np.any(conducts <= 0.0):
        raise CalibrationError(
            "rc: the energy balance collapsed a capacitance or conductance "
            "to zero; the degraded trace does not excite the topology enough",
            channel=f"temp.{nodes[0]}", window_s=window,
        )

    # Residuals in kelvin: each row's heat mismatch spread over that node's
    # fitted capacitance is the temperature-prediction error per window.
    residuals_j = target - design @ solution
    caps_per_row = np.tile(caps, len(windows))
    residuals_k = residuals_j / caps_per_row
    rms = float(np.sqrt(np.mean(residuals_k**2)))
    stderr = rb.lstsq_stderr(design, target, solution, weights)
    grades = {
        **{
            f"node.{name}.capacitance_j_per_k": rb.grade_param(
                float(caps[i]), float(stderr[i])
            )
            for name, i in node_index.items()
        },
        **{
            f"link.{a}-{b}.conductance_w_per_k": rb.grade_param(
                float(conducts[l]), float(stderr[n + l])
            )
            for l, (a, b) in enumerate(links)
        },
    }

    # Reconstruct the continuous-time propagator from the fitted network
    # for the same time-constant diagnostics the clean stage reports.
    a_mat = np.zeros((n, n))
    for l, (a, b) in enumerate(links):
        if "ambient" in (a, b):
            other = b if a == "ambient" else a
            i = node_index[other]
            a_mat[i, i] -= conducts[l] / caps[i]
            continue
        i, j = node_index[a], node_index[b]
        a_mat[i, j] += conducts[l] / caps[i]
        a_mat[j, i] += conducts[l] / caps[j]
        a_mat[i, i] -= conducts[l] / caps[i]
        a_mat[j, j] -= conducts[l] / caps[j]
    taus = sorted(
        (-1.0 / ev.real)
        for ev in np.linalg.eigvals(a_mat) if ev.real < 0.0
    )
    return StageFit(
        stage="rc",
        params=_rc_params(nodes, links, caps, conducts, node_index),
        residual_rms=rms,
        n_samples=int(design.shape[0]),
        diagnostics={
            "dt_rec_s": grid.dt_s,
            "n_windows": len(windows),
            "time_constants_s": [float(t) for t in taus],
            "constant_rails": constant,
            "temp_outliers_replaced": outliers,
        },
        verdict=_verdict_from_grades(grades),
        uncertainty=_uncertainty(residuals_k, weights, grades),
    )


# --------------------------------------------------------------------------
# structural-prior fallbacks (graceful degradation)
# --------------------------------------------------------------------------


def _prior_uncertainty(param_names) -> dict:
    return {
        "residual_mad": 0.0,
        "n_effective": 0.0,
        "params": {name: "prior" for name in param_names},
    }


def _prior_component_stages(
    domain: str, prior_freqs_mhz, reason: str
) -> tuple[StageFit, StageFit]:
    """``unfitted`` dvfs/leakage stages holding only structural priors."""
    ceff = PRIOR_GPU_CEFF if domain == "gpu" else PRIOR_CLUSTER_CEFF
    dvfs = StageFit(
        stage=f"dvfs.{domain}",
        params={
            "ceff_w_per_v2hz": ceff,
            "idle_power_w": PRIOR_IDLE_W,
            "opps": {
                "freqs_mhz": [float(f) for f in prior_freqs_mhz],
                "v_min": PRIOR_V_MIN,
                "v_max": PRIOR_V_MAX,
            },
        },
        residual_rms=0.0,
        n_samples=0,
        diagnostics={"reason": reason},
        verdict="unfitted",
        uncertainty=_prior_uncertainty(("ceff_w_per_v2hz", "idle_power_w")),
    )
    leakage = StageFit(
        stage=f"leakage.{domain}",
        params=dict(PRIOR_LEAKAGE),
        residual_rms=0.0,
        n_samples=0,
        diagnostics={"reason": reason},
        verdict="unfitted",
        uncertainty=_prior_uncertainty(("kappa_w_per_k2", "beta_k")),
    )
    return dvfs, leakage


def _prior_memory_stage(reason: str) -> StageFit:
    return StageFit(
        stage="memory",
        params={**PRIOR_MEMORY, **PRIOR_LEAKAGE},
        residual_rms=0.0,
        n_samples=0,
        diagnostics={"reason": reason},
        verdict="unfitted",
        uncertainty=_prior_uncertainty(
            ("base_power_w", "activity_power_w", "kappa_w_per_k2", "beta_k")
        ),
    )


def _prior_rc_stage(meta, reason: str) -> StageFit:
    thermal = meta["thermal"]
    nodes = list(thermal["nodes"])
    links = [tuple(pair) for pair in thermal["links"]]
    return StageFit(
        stage="rc",
        params={
            "nodes": [
                {"name": n, "capacitance_j_per_k": PRIOR_NODE_CAPACITANCE}
                for n in nodes
            ],
            "links": [
                {"a": a, "b": b, "conductance_w_per_k": PRIOR_LINK_CONDUCTANCE}
                for a, b in links
            ],
        },
        residual_rms=0.0,
        n_samples=0,
        diagnostics={"reason": reason},
        verdict="unfitted",
        uncertainty=_prior_uncertainty(
            tuple(f"node.{n}.capacitance_j_per_k" for n in nodes)
            + tuple(f"link.{a}-{b}.conductance_w_per_k" for a, b in links)
        ),
    )


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def needs_robust(trace) -> bool:
    """Whether ``robust="auto"`` should take the robust path for ``trace``.

    True when the trace carries a ``degradation`` provenance block, when
    the estimator-relevant channels are not sample-aligned, or when the
    shared grid is not uniform — exactly the conditions under which the
    clean estimators would either raise or silently mis-fit.
    """
    if "degradation" in trace.meta:
        return True
    prefixes = (
        POWER_PREFIX, TEMP_PREFIX, FREQ_PREFIX, VOLT_PREFIX, BUSY_PREFIX,
    )
    shared = None
    for name in trace.names():
        if not name.startswith(prefixes):
            continue
        t, _ = trace.series(name)
        if shared is None:
            shared = t
        elif t.shape != shared.shape or not np.array_equal(t, shared):
            return True
    if shared is None or shared.size < 2:
        return False
    gaps = np.diff(shared)
    return bool(np.max(np.abs(gaps - np.median(gaps))) > 1e-9)


def fit_trace(trace, robust: str = "auto") -> FitReport:
    """Run every estimator stage against ``trace`` and collect the report.

    The trace ``meta`` must carry the structural prior written by
    :func:`repro.calib.excite.structural_meta` (cluster inventory, thermal
    topology); everything numeric comes from the channels.

    ``robust`` selects the fit path (:data:`ROBUST_MODES`): ``"off"`` is
    the clean PR 8 numerics (raises on any defect), ``"on"`` forces the
    robust estimators, and ``"auto"`` (default) picks per
    :func:`needs_robust` — so clean traces give the clean path's bytes.
    Except under ``"off"``, a stage that cannot be fitted is demoted to
    its structural prior with an ``unfitted`` verdict instead of raising.
    """
    if robust not in ROBUST_MODES:
        raise CalibrationError(
            f"unknown robust mode {robust!r}; have {ROBUST_MODES}"
        )
    meta = trace.meta
    for key in ("clusters", "gpu", "memory", "thermal"):
        if key not in meta:
            raise CalibrationError(
                f"trace meta lacks the structural prior key {key!r}; "
                "capture traces with repro.calib.excite (or supply the "
                "device inventory by hand)"
            )
    use_robust = robust == "on" or (robust == "auto" and needs_robust(trace))
    demote = robust != "off"
    warnings: list[str] = []
    stages: list[StageFit] = []

    def guarded(what, build, fallback):
        try:
            return build()
        except CalibrationError as exc:
            if not demote:
                raise
            warnings.append(f"{what} demoted to structural prior: {exc}")
            return fallback(str(exc))

    component = _component_stages_robust if use_robust else _component_stages
    components = [
        (c["name"], float(c["n_cores"]), c["rail"], c["thermal_node"],
         c["freqs_mhz"])
        for c in meta["clusters"]
    ]
    gpu = meta["gpu"]
    components.append(
        ("gpu", 1.0, gpu["rail"], gpu["thermal_node"], gpu["freqs_mhz"])
    )
    for domain, n_units, rail, node, freqs_mhz in components:
        stages += guarded(
            f"dvfs/leakage.{domain}",
            lambda: component(
                trace, domain, n_units, rail, node, freqs_mhz, warnings
            ),
            lambda reason: _prior_component_stages(domain, freqs_mhz, reason),
        )
    memory = _memory_stage_robust if use_robust else _memory_stage
    stages.append(guarded(
        "memory",
        lambda: memory(trace, meta, warnings),
        _prior_memory_stage,
    ))
    board = _board_stage_robust if use_robust else _board_stage
    stages.append(board(trace))
    rc = _rc_stage_robust if use_robust else _rc_stage
    stages.append(guarded(
        "rc",
        lambda: rc(trace, meta, warnings),
        lambda reason: _prior_rc_stage(meta, reason),
    ))
    return FitReport(
        platform_hint=trace.platform_hint or meta.get("platform", ""),
        stages=tuple(stages),
        warnings=tuple(warnings),
    )
