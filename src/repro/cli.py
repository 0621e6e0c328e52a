"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artefacts or run one-off analyses:

* ``table1`` / ``table2`` — the paper's tables;
* ``fig7`` / ``fig8`` / ``fig9`` — the analysis/odroid figures (as text);
* ``stability --power P`` — classify one operating point;
* ``budget --limit C`` — safe dynamic power for a thermal limit;
* ``critical`` — the critical power of the Odroid-XU3 lumped model;
* ``advise --app A`` — profile a catalog app and print tuning advice;
* ``describe --platform P`` — dump a platform's thermal RC network;
* ``platforms list|describe|validate`` — inspect the platform registry:
  the device catalogue, one definition's full data (``--format json`` is
  the round-trippable PlatformDef schema of ``docs/PLATFORMS.md``), or a
  validation pass over every registered definition (``validate --file``
  checks an out-of-tree JSON definition instead);
* ``platforms excite|degrade|fit`` — the auto-calibration pipeline: record
  an identification-grade excitation trace of a registered platform,
  degrade it with a declarative sensor-pathology model (quantization,
  noise, drops, spikes, jitter), or fit a registrable PlatformDef from a
  trace alone (``docs/CALIBRATION.md``).  ``fit`` exits 2 on an unusable
  trace and 3 when the fit completed but had to demote stages;
* ``metrics --app A`` — run an app and print its Prometheus metrics
  (``--format json`` prints the canonical registry snapshot instead);
* ``trace --app A`` — run an app and print its span/ftrace event log
  (``--format json`` prints the merged event records as a JSON array);
* ``obs check`` — evaluate a declarative SLO spec (built-in name or JSON
  file, see ``docs/OBSERVABILITY.md``) against a campaign's stored fleet
  aggregate; exits non-zero on any breached rule;
* ``lint`` — domain-aware static analysis over ``src/repro`` (unit
  discipline, determinism, sysfs contract, float hygiene); exits non-zero
  on findings that are neither suppressed nor baselined.  See
  ``docs/STATIC_ANALYSIS.md``.
* ``campaign run|status|results|watch`` — expand a declarative scenario
  grid (``--spec`` JSON file or built-in ``--preset``), fan the cache
  misses out over ``--jobs`` worker processes into a content-addressed
  result store, and report per-run outcomes.  Completed runs are cached
  by scenario content, so re-running executes only the missing work and
  ``--resume`` continues an interrupted campaign.  ``run --watch`` shows
  a live in-terminal dashboard (``--no-tty`` for plain deterministic
  lines), ``run --slo`` gates the exit code on an SLO spec, and
  ``watch`` renders the dashboard for a store populated earlier.  See
  ``docs/CAMPAIGNS.md``.
* ``chaos`` — run the built-in fault-injection grid (every fault plan x
  policy x platform) and print the resilience report comparing how the
  stock and hardened proposed governors ride out each plan; exits
  non-zero if any run fails or the hardened governor overshoots the
  thermal limit by more than stock anywhere.  See ``docs/FAULTS.md``.

``table1``/``table2``/``fig8``/``fig9`` accept ``--export-dir DIR`` to dump
each underlying run's full observability bundle — ``manifest.json``,
``metrics.prom``, ``events.jsonl`` and per-channel trace CSVs (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.tables import render_table
from repro.core.budget import safe_power_budget_w
from repro.core.fixed_point import analyze, critical_power_w
from repro.core.stability import ODROID_XU3_LUMPED
from repro.soc.snapdragon810 import NEXUS6P
from repro.units import celsius_to_kelvin, hz_to_mhz, kelvin_to_celsius


def _maybe_export(args: argparse.Namespace, command: str, runs_fn) -> str:
    """Export the command's run set if ``--export-dir`` was given."""
    export_dir = getattr(args, "export_dir", None)
    if not export_dir:
        return ""
    from repro.obs.exporters import export_run_set

    export_run_set(runs_fn(args.seed), export_dir,
                   command=command, seed=args.seed)
    return f"\n\nObservability bundle exported to {export_dir}"


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.experiments.nexus import table1, table1_runs

    rows = table1(seed=args.seed)
    out = render_table(
        ["App", "FPS w/o", "FPS w/", "Reduction %", "paper w/o", "paper w/"],
        [[r.app, r.fps_without, r.fps_with, r.reduction_pct,
          r.paper_fps_without, r.paper_fps_with] for r in rows],
        title="Table I",
    )
    return out + _maybe_export(args, "table1", table1_runs)


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.experiments.odroid import table2, table2_runs

    rows = table2(seed=args.seed)
    out = render_table(
        ["Test", "Alone", "+BML", "+BML proposed", "unit"],
        [[r.test, r.alone, r.with_bml, r.with_proposed, r.unit] for r in rows],
        title="Table II",
    )
    return out + _maybe_export(args, "table2", table2_runs)


def _cmd_fig7(args: argparse.Namespace) -> str:
    from repro.experiments.fig7 import figure7

    lines = ["Figure 7: fixed-point analysis"]
    for curve in figure7():
        report = curve.report
        if report.stable_temp_k is None:
            lines.append(
                f"  P_dyn={curve.p_dyn_w:.1f} W: {report.classification.value}"
            )
        else:
            lines.append(
                f"  P_dyn={curve.p_dyn_w:.1f} W: {report.classification.value}, "
                f"T_stable={kelvin_to_celsius(report.stable_temp_k):.1f} degC "
                f"(x={report.stable_aux:.2f})"
            )
    return "\n".join(lines)


def _cmd_fig8(args: argparse.Namespace) -> str:
    from repro.experiments.odroid import figure8, figure89_runs

    lines = ["Figure 8: max temperature (degC)"]
    for scenario, series in figure8(seed=args.seed).items():
        lines.append(
            f"  {scenario:13s}: t=50s {series.at(50):5.1f}  "
            f"t=150s {series.at(150):5.1f}  end {series.final():5.1f}"
        )
    return "\n".join(lines) + _maybe_export(args, "fig8", figure89_runs)


def _cmd_fig9(args: argparse.Namespace) -> str:
    from repro.experiments.odroid import INA_RAILS, figure9, figure89_runs

    lines = ["Figure 9: power distribution"]
    for scenario, pie in figure9(seed=args.seed).items():
        shares = "  ".join(
            f"{rail}={pie.share_pct(rail):4.1f}%" for rail in INA_RAILS
        )
        lines.append(f"  {scenario:13s}: {pie.total_w:4.2f} W   {shares}")
    return "\n".join(lines) + _maybe_export(args, "fig9", figure89_runs)


def _cmd_stability(args: argparse.Namespace) -> str:
    report = analyze(ODROID_XU3_LUMPED, args.power)
    if report.stable_temp_k is None:
        return (
            f"P_dyn = {args.power:.2f} W: {report.classification.value} "
            f"(no fixed point — thermal runaway)"
        )
    return (
        f"P_dyn = {args.power:.2f} W: {report.classification.value}, "
        f"stable fixed point at {kelvin_to_celsius(report.stable_temp_k):.1f} "
        f"degC (aux x = {report.stable_aux:.3f})"
    )


def _cmd_budget(args: argparse.Namespace) -> str:
    budget = safe_power_budget_w(
        ODROID_XU3_LUMPED, celsius_to_kelvin(args.limit)
    )
    return (
        f"Safe dynamic power for a {args.limit:.1f} degC limit: {budget:.2f} W"
    )


def _build_platform(name: str):
    """Resolve a platform name through the registry, exiting nicely."""
    from repro.errors import ConfigurationError
    from repro.soc import registry as platform_registry

    try:
        return platform_registry.build(name)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_advise(args: argparse.Namespace) -> str:
    from repro.apps.catalog import CATALOG, make_app
    from repro.core.advisor import advise, render_advice
    from repro.kernel.kernel import KernelConfig
    from repro.sim.engine import Simulation

    if args.app not in CATALOG:
        raise SystemExit(f"unknown app {args.app!r}; have {sorted(CATALOG)}")
    sim = Simulation(
        _build_platform(args.platform), [make_app(args.app)],
        kernel_config=KernelConfig(), seed=args.seed,
    )
    sim.run(args.profile_s)
    return render_advice(advise(sim, args.app, t_limit_c=args.limit))


def _cmd_describe(args: argparse.Namespace) -> str:
    from repro.thermal.describe import describe_network

    return describe_network(_build_platform(args.platform).thermal)


def _run_catalog_app(args: argparse.Namespace):
    """Run one catalog app on a platform model for the obs commands."""
    from repro.apps.catalog import CATALOG, make_app
    from repro.kernel.kernel import KernelConfig
    from repro.sim.engine import Simulation

    if args.app not in CATALOG:
        raise SystemExit(f"unknown app {args.app!r}; have {sorted(CATALOG)}")
    sim = Simulation(
        _build_platform(args.platform), [make_app(args.app)],
        kernel_config=KernelConfig(), seed=args.seed, profile=args.profile,
    )
    sim.run(args.duration)
    return sim


def _cmd_metrics(args: argparse.Namespace) -> str:
    from repro.obs.exporters import prometheus_text

    sim = _run_catalog_app(args)
    if args.format == "json":
        # The canonical registry snapshot: sorted keys, sorted children —
        # the machine-readable twin of the Prometheus exposition.
        return json.dumps(
            sim.metrics.snapshot(as_of_s=sim.clock.now),
            indent=2, sort_keys=True,
        )
    out = prometheus_text(sim.metrics)
    if args.profile:
        out += "\n" + sim.profiler.report().render()
    return out


def _cmd_trace(args: argparse.Namespace) -> str:
    sim = _run_catalog_app(args)
    if args.format == "json":
        from repro.obs.exporters import iter_event_dicts

        records = list(iter_event_dicts(sim.spans, sim.kernel.tracer))
        if args.limit is not None:
            records = records[-args.limit:]
        return json.dumps(records, indent=2, sort_keys=True)
    sections = []
    spans = sim.spans.render(limit=args.limit)
    if spans:
        sections.append(f"# spans (last {args.limit})\n{spans}")
    events = sim.kernel.tracer.render()
    if events:
        sections.append(f"# kernel events\n{events}")
    if args.profile:
        sections.append(sim.profiler.report().render())
    return "\n\n".join(sections) if sections else "(no spans or events)"


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import all_rules, run_lint, update_baseline
    from repro.lint.cache import default_cache_path

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}")
            print(f"      {rule.rationale}")
        return 0
    cache_path = (
        default_cache_path() if args.cache == "" else args.cache
    )
    report = run_lint(
        targets=args.paths or None,
        baseline_path=args.baseline,
        use_baseline=not args.no_baseline,
        jobs=args.jobs,
        cache_path=cache_path,
    )
    if args.update_baseline:
        count = update_baseline(report, baseline_path=args.baseline)
        print(f"baseline updated: {count} entr(ies)")
        return 0
    if args.format == "sarif":
        print(report.render_sarif(), end="")
    elif args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    # Exit-code contract (docs/STATIC_ANALYSIS.md): 0 clean, 1 new
    # findings, 2 only-stale-baseline (prune with --update-baseline).
    return report.exit_code


def _load_campaign_spec(args: argparse.Namespace):
    """Resolve ``--spec FILE`` / ``--preset NAME`` into a CampaignSpec."""
    from repro.campaign import PRESETS, CampaignSpec

    if bool(args.spec) == bool(args.preset):
        raise SystemExit(
            "campaign: give exactly one of --spec FILE or --preset NAME"
        )
    if args.preset:
        try:
            return PRESETS[args.preset]()
        except KeyError:
            raise SystemExit(
                f"unknown preset {args.preset!r}; have {sorted(PRESETS)}"
            ) from None
    try:
        with open(args.spec) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"campaign: cannot read spec: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"campaign: malformed spec JSON: {exc}") from None
    return CampaignSpec.from_dict(data)


def _campaign_runner(args: argparse.Namespace, jobs: int = 1,
                     timeout_s: float | None = None, observer=None):
    from repro.campaign import CampaignRunner, ResultStore

    spec = _load_campaign_spec(args)
    store = ResultStore(args.store)
    return CampaignRunner(
        spec, store, jobs=jobs, timeout_s=timeout_s, observer=observer,
    )


def _resolve_slo_arg(ref):
    """Resolve an ``--slo`` value, exiting nicely on a bad reference."""
    from repro.errors import ConfigurationError
    from repro.obs.telemetry import resolve_slo

    if ref is None:
        return None
    try:
        return resolve_slo(ref)
    except ConfigurationError as exc:
        raise SystemExit(f"slo: {exc}") from None


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    slo = _resolve_slo_arg(args.slo)
    observer = None
    if args.watch:
        from repro.obs.telemetry import WatchView

        observer = WatchView(
            tty=False if args.no_tty else None, slo=slo
        )
    runner = _campaign_runner(
        args, jobs=args.jobs, timeout_s=args.timeout, observer=observer,
    )
    if args.resume and runner.store.load_campaign_manifest(runner.spec.name) is None:
        raise SystemExit(
            f"campaign: nothing to resume — no manifest for "
            f"{runner.spec.name!r} under {args.store}"
        )
    report = runner.run()
    print(report.render_json() if args.format == "json"
          else report.render_text())
    slo_ok = True
    if slo is not None and runner.last_aggregate is not None:
        verdict = slo.evaluate(runner.last_aggregate)
        slo_ok = verdict.ok
        print(verdict.render_text())
    return 0 if report.ok and slo_ok else 1


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import aggregate_block

    slo = _resolve_slo_arg(args.slo)
    runner = _campaign_runner(args)
    aggregate = runner.aggregate()
    if args.format == "json":
        payload = aggregate.to_dict()
        payload.pop("snapshot", None)  # bulky; `telemetry.json` has it
        if slo is not None:
            payload["slo"] = slo.evaluate(aggregate).to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    total = len(aggregate.samples)
    pending = int(aggregate.scalar("runs_pending"))
    lines = [f"campaign {runner.spec.name}: {total - pending}/{total} resolved"]
    lines += aggregate_block(aggregate, slo=slo, stragglers=False)
    print("\n".join(lines))
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    runner = _campaign_runner(args)
    report = runner.status()
    print(report.render_json() if args.format == "json"
          else report.render_text())
    return 0


def _cmd_campaign_results(args: argparse.Namespace) -> int:
    runner = _campaign_runner(args)
    results = runner.results()
    missing = [run.run_id for run in runner.runs if run.run_id not in results]
    if args.format == "json":
        payload = {
            "name": runner.spec.name,
            "results": {rid: res.to_dict() for rid, res in results.items()},
            "missing": missing,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for run in runner.runs:
        result = results.get(run.run_id)
        if result is None:
            continue
        fps = "  ".join(f"{app}={val:.1f}" for app, val in sorted(result.fps.items()))
        faults = "-"
        if result.fault_plan is not None:
            faults = f"{result.fault_plan} ({len(result.faults_injected)})"
        rows.append([
            run.run_id, result.policy, f"{result.peak_temp_c:.1f}",
            f"{result.end_temp_c:.1f}", f"{result.mean_power_w:.2f}", fps,
            faults,
        ])
    out = render_table(
        ["run", "policy", "peak degC", "end degC", "mean W", "median FPS",
         "faults"],
        rows, title=f"Campaign {runner.spec.name}: cached results",
    )
    if missing:
        out += f"\n{len(missing)} run(s) not cached yet: " + ", ".join(missing)
    print(out)
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore
    from repro.errors import ConfigurationError
    from repro.obs.telemetry import CampaignAggregate

    slo = _resolve_slo_arg(args.slo)
    store = ResultStore(args.store)
    data = store.load_aggregate(args.campaign)
    if data is None:
        raise SystemExit(
            f"obs check: no aggregate for campaign {args.campaign!r} under "
            f"{args.store} — run `repro campaign run` first"
        )
    try:
        aggregate = CampaignAggregate.from_dict(data)
    except ConfigurationError as exc:
        raise SystemExit(f"obs check: {exc}") from None
    report = slo.evaluate(aggregate)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True)
          if args.format == "json" else report.render_text())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner, ResultStore
    from repro.campaign.presets import chaos_campaign
    from repro.faults.report import resilience_report

    spec = chaos_campaign(duration_s=args.duration, seed=args.seed)
    runner = CampaignRunner(
        spec, ResultStore(args.store), jobs=args.jobs, timeout_s=args.timeout
    )
    campaign = runner.run()
    resilience = resilience_report(runner.runs, runner.results())
    if args.format == "json":
        payload = {
            "campaign": campaign.to_dict(),
            "resilience": resilience.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(campaign.render_text())
        print()
        print(resilience.render_text())
    return 0 if campaign.ok and not resilience.hardening_regressions() else 1


def _cmd_platforms_list(args: argparse.Namespace) -> str:
    from repro.soc import registry as platform_registry

    if args.format == "json":
        payload = {
            name: platform_registry.get(name).to_dict()
            for name in platform_registry.platform_names()
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    rows = []
    for name in platform_registry.platform_names():
        pdef = platform_registry.get(name)
        spec = pdef.compile()
        thermal = pdef.stock_thermal_config()
        rows.append([
            name,
            str(spec.extras.get("soc", "?")),
            "+".join(c.name for c in spec.clusters),
            str(len(spec.thermal.nodes)),
            thermal.kind,
            f"{pdef.default_t_limit_c:.0f}",
        ])
    return render_table(
        ["platform", "soc", "clusters", "nodes", "stock policy", "limit degC"],
        rows, title="Registered platforms",
    )


def _cmd_platforms_describe(args: argparse.Namespace) -> str:
    from repro.errors import ConfigurationError
    from repro.soc import registry as platform_registry
    from repro.thermal.describe import describe_network

    try:
        pdef = platform_registry.get(args.platform)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    if args.format == "json":
        return json.dumps(pdef.to_dict(), indent=2, sort_keys=True)
    spec = pdef.compile()
    thermal = pdef.stock_thermal_config()
    lines = [f"{pdef.name}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(spec.extras.items())
        if isinstance(v, str)
    )]
    for cluster in spec.clusters:
        role = "LITTLE" if cluster.is_little else ("big" if cluster.is_big else "mid")
        lines.append(
            f"  cluster {cluster.name} ({cluster.core_type}, {role}): "
            f"{cluster.n_cores}x {hz_to_mhz(cluster.opps.min_freq_hz):.0f}-"
            f"{hz_to_mhz(cluster.opps.max_freq_hz):.0f} MHz"
        )
    lines.append(
        f"  gpu {spec.gpu.name} ({spec.gpu.gpu_type}): "
        f"{hz_to_mhz(spec.gpu.opps.min_freq_hz):.0f}-"
        f"{hz_to_mhz(spec.gpu.opps.max_freq_hz):.0f} MHz"
    )
    lines.append(
        f"  sensors: " + ", ".join(s.name for s in spec.sensors)
    )
    lines.append(
        f"  stock policy: {thermal.kind} on {thermal.sensor}, "
        f"limit {pdef.default_t_limit_c:.1f} degC"
    )
    lines.append("")
    lines.append(describe_network(spec.thermal))
    return "\n".join(lines)


def _cmd_platforms_validate(args: argparse.Namespace) -> str:
    from repro.errors import ConfigurationError
    from repro.soc import registry as platform_registry
    from repro.soc.defs import PlatformDef

    if args.file:
        try:
            with open(args.file) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise SystemExit(f"platforms: cannot read {args.file}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SystemExit(f"platforms: malformed JSON: {exc}") from None
        try:
            pdef = PlatformDef.from_dict(data)
            pdef.validate()
        except ConfigurationError as exc:
            raise SystemExit(f"platforms: invalid definition: {exc}") from None
        return f"{pdef.name}: OK"
    lines = []
    for name in platform_registry.platform_names():
        try:
            platform_registry.get(name).validate()
        except ConfigurationError as exc:
            raise SystemExit(f"platforms: {name}: {exc}") from None
        lines.append(f"{name}: OK")
    lines.append(f"{len(lines)} platform definition(s) valid")
    return "\n".join(lines)


def _cmd_platforms_excite(args: argparse.Namespace) -> str:
    from repro.calib import ExcitationConfig, run_excitation
    from repro.errors import ConfigurationError

    try:
        config = ExcitationConfig(
            dwell_s=args.dwell_s,
            max_opps_per_domain=args.max_opps,
            soak_s=args.soak_s,
            cooldown_s=args.cooldown_s,
        )
        trace = run_excitation(args.platform, seed=args.seed, config=config)
    except ConfigurationError as exc:
        raise SystemExit(f"platforms: {exc}") from None
    text = trace.to_json(indent=None) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise SystemExit(f"platforms: cannot write {args.out}: {exc}") from None
        return (
            f"{args.platform}: excitation trace "
            f"({trace.duration_s():.1f} s, {len(trace.names())} channels) "
            f"-> {args.out}"
        )
    return text.rstrip("\n")


#: Exit code for an unusable trace or degradation model (unreadable file,
#: malformed/truncated JSON, wrong wire format, absent channels).
EXIT_TRACE_ERROR = 2

#: Exit code for a fit that completed but demoted at least one stage
#: (``unfitted``/``low_confidence`` verdicts in the report).
EXIT_DEGRADED_FIT = 3


def _cmd_platforms_degrade(args: argparse.Namespace):
    from repro.calib import load_trace_file, resolve_model
    from repro.errors import CalibrationError, ConfigurationError

    try:
        trace = load_trace_file(args.trace)
        model = resolve_model(args.model)
        degraded = model.apply(trace, seed=args.seed)
    except (CalibrationError, ConfigurationError) as exc:
        print(f"platforms: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    text = degraded.to_json(indent=None) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise SystemExit(
                f"platforms: cannot write {args.out}: {exc}"
            ) from None
        return (
            f"{args.trace}: degraded with {args.model!r} "
            f"(seed {args.seed}) -> {args.out}"
        )
    return text.rstrip("\n")


def _cmd_platforms_fit(args: argparse.Namespace):
    from repro.calib import fit_platform, load_trace_file
    from repro.errors import CalibrationError, ConfigurationError
    from repro.soc import registry as platform_registry

    try:
        trace = load_trace_file(args.trace)
    except CalibrationError as exc:
        print(f"platforms: bad trace: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    try:
        pdef, report = fit_platform(trace, name=args.name, robust=args.robust)
    except CalibrationError as exc:
        # Only robust="off" lets stage errors propagate this far; a trace
        # defect is a trace problem, so it shares the trace exit code.
        print(f"platforms: fit failed: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    except ConfigurationError as exc:
        raise SystemExit(f"platforms: fit failed: {exc}") from None
    lines = []
    if args.out:
        try:
            with open(args.out, "w") as handle:
                json.dump(pdef.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise SystemExit(f"platforms: cannot write {args.out}: {exc}") from None
        lines.append(f"{pdef.name}: fitted definition -> {args.out}")
    if args.register:
        try:
            platform_registry.register(pdef)
        except ConfigurationError as exc:
            raise SystemExit(f"platforms: cannot register: {exc}") from None
        lines.append(f"{pdef.name}: registered (this process)")
    if args.format == "json":
        output = json.dumps(
            {"platform": pdef.to_dict(), "report": report.to_dict()},
            indent=2, sort_keys=True,
        )
    else:
        lines.append(report.summary())
        output = "\n".join(lines)
    degraded = report.degraded()
    if degraded:
        print(output)
        names = ", ".join(f"{s.stage}={s.verdict}" for s in degraded)
        print(
            f"platforms: degraded fit ({names}); "
            f"exit {EXIT_DEGRADED_FIT}",
            file=sys.stderr,
        )
        return EXIT_DEGRADED_FIT
    return output


def _cmd_critical(args: argparse.Namespace) -> str:
    return (
        f"Critical power (Odroid-XU3, fan off): "
        f"{critical_power_w(ODROID_XU3_LUMPED):.2f} W"
    )


_EPILOG = """\
commands:
  table1     Table I: app FPS with/without thermal throttling (Nexus 6P)
  table2     Table II: benchmark scores under background load (Odroid-XU3)
  fig7       Figure 7: fixed-point stability analysis
  fig8       Figure 8: maximum temperature traces (3DMark scenarios)
  fig9       Figure 9: power distribution pies (3DMark scenarios)
  stability  classify one dynamic-power operating point
  budget     safe dynamic power for a thermal limit
  critical   critical power of the Odroid-XU3 lumped model
  advise     profile a catalog app and print tuning advice
  describe   dump a platform's thermal RC network
  platforms  list/describe/validate the registered platform definitions,
             excite one for calibration, degrade a trace with a sensor
             model, or fit a definition from a trace
  metrics    run a catalog app, print its Prometheus metrics
  trace      run a catalog app, print its span/ftrace event log
  lint       static analysis: units, determinism, sysfs paths, float ==
  campaign   run/status/results/watch of a parallel, cached campaign
  obs        check: evaluate an SLO spec against a campaign aggregate
  chaos      fault-injection grid + resilience report (docs/FAULTS.md)
"""


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, needs_seed in (
        ("table1", _cmd_table1, True),
        ("table2", _cmd_table2, True),
        ("fig7", _cmd_fig7, False),
        ("fig8", _cmd_fig8, True),
        ("fig9", _cmd_fig9, True),
        ("critical", _cmd_critical, False),
    ):
        cmd = sub.add_parser(name)
        cmd.set_defaults(fn=fn)
        if needs_seed:
            cmd.add_argument("--seed", type=int, default=3)
            cmd.add_argument(
                "--export-dir", dest="export_dir", default=None,
                help="write manifest/metrics/events/trace CSVs per run here",
            )

    stab = sub.add_parser("stability")
    stab.add_argument("--power", type=float, required=True,
                      help="dynamic power in watts")
    stab.set_defaults(fn=_cmd_stability)

    budget = sub.add_parser("budget")
    budget.add_argument("--limit", type=float, required=True,
                        help="thermal limit in degC")
    budget.set_defaults(fn=_cmd_budget)

    advise_cmd = sub.add_parser("advise")
    advise_cmd.add_argument("--app", required=True,
                            help="catalog app to profile")
    advise_cmd.add_argument("--platform", default=NEXUS6P,
                            help="registered platform to profile on")
    advise_cmd.add_argument("--limit", type=float, default=40.0,
                            help="thermal limit in degC")
    advise_cmd.add_argument("--profile-s", type=float, default=60.0,
                            dest="profile_s")
    advise_cmd.add_argument("--seed", type=int, default=3)
    advise_cmd.set_defaults(fn=_cmd_advise)

    lint_cmd = sub.add_parser("lint")
    lint_cmd.add_argument("paths", nargs="*",
                          help="files/dirs to lint (default: the repro "
                               "package)")
    lint_cmd.add_argument("--format", choices=("text", "json", "sarif"),
                          default="text")
    lint_cmd.add_argument("--baseline", default=None,
                          help="baseline file (default: the checked-in "
                               "src/repro/lint/baseline.json)")
    lint_cmd.add_argument("--no-baseline", action="store_true",
                          help="report every finding, ignoring the baseline")
    lint_cmd.add_argument("--update-baseline", action="store_true",
                          help="grandfather the current findings and exit 0")
    lint_cmd.add_argument("--list-rules", action="store_true",
                          help="print the rule catalogue and exit")
    lint_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="lint files on N worker processes "
                               "(byte-identical to serial; default 1)")
    lint_cmd.add_argument("--cache", nargs="?", const="", default=None,
                          metavar="PATH",
                          help="enable the incremental cache, optionally at "
                               "PATH (bare --cache uses "
                               "~/.cache/repro-lint/cache.json; omitted = "
                               "cold run)")
    lint_cmd.set_defaults(fn=_cmd_lint)

    campaign_cmd = sub.add_parser("campaign")
    campaign_sub = campaign_cmd.add_subparsers(dest="action", required=True)
    for action, fn in (
        ("run", _cmd_campaign_run),
        ("status", _cmd_campaign_status),
        ("results", _cmd_campaign_results),
        ("watch", _cmd_campaign_watch),
    ):
        cmd = campaign_sub.add_parser(action)
        cmd.add_argument("--spec", default=None,
                         help="campaign spec JSON file (docs/CAMPAIGNS.md)")
        cmd.add_argument("--preset", default=None,
                         help="built-in campaign (chaos, fan-stop, smoke, "
                              "governor-horizon, platform-matrix, "
                              "table1-seeds)")
        cmd.add_argument("--store", default="campaign-store",
                         help="result-store directory (created on demand)")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        if action in ("run", "watch"):
            cmd.add_argument("--slo", default=None,
                             help="SLO spec: a built-in name or a JSON file "
                                  "(docs/OBSERVABILITY.md); run exits "
                                  "non-zero on breach")
        if action == "run":
            cmd.add_argument("--jobs", type=int, default=1,
                             help="worker processes (1 = run in-process)")
            cmd.add_argument("--timeout", type=float, default=None,
                             help="per-run wall-clock timeout in seconds")
            cmd.add_argument("--resume", action="store_true",
                             help="continue an interrupted campaign; errors "
                                  "if it was never started")
            cmd.add_argument("--watch", action="store_true",
                             help="show a live progress dashboard while "
                                  "the campaign runs")
            cmd.add_argument("--no-tty", action="store_true", dest="no_tty",
                             help="plain deterministic watch output (no "
                                  "escape codes; for CI logs and pipes)")
        cmd.set_defaults(fn=fn)

    obs_cmd = sub.add_parser("obs")
    obs_sub = obs_cmd.add_subparsers(dest="action", required=True)
    ocheck = obs_sub.add_parser("check")
    ocheck.add_argument("--slo", required=True,
                        help="SLO spec: a built-in name (chaos-hardening, "
                             "fps-protection) or a JSON file")
    ocheck.add_argument("--campaign", required=True,
                        help="campaign name whose aggregate to evaluate")
    ocheck.add_argument("--store", default="campaign-store",
                        help="result-store directory holding the campaign")
    ocheck.add_argument("--format", choices=("text", "json"), default="text")
    ocheck.set_defaults(fn=_cmd_obs_check)

    chaos_cmd = sub.add_parser("chaos")
    chaos_cmd.add_argument("--duration", type=float, default=25.0,
                           help="simulated seconds per run")
    chaos_cmd.add_argument("--seed", type=int, default=3)
    chaos_cmd.add_argument("--jobs", type=int, default=1,
                           help="worker processes (1 = run in-process)")
    chaos_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-run wall-clock timeout in seconds")
    chaos_cmd.add_argument("--store", default="campaign-store",
                           help="result-store directory (created on demand)")
    chaos_cmd.add_argument("--format", choices=("text", "json"),
                           default="text")
    chaos_cmd.set_defaults(fn=_cmd_chaos)

    describe_cmd = sub.add_parser("describe")
    describe_cmd.add_argument("--platform", required=True,
                              help="a registered platform name "
                                   "(see `repro platforms list`)")
    describe_cmd.set_defaults(fn=_cmd_describe)

    platforms_cmd = sub.add_parser("platforms")
    platforms_sub = platforms_cmd.add_subparsers(dest="action", required=True)
    plist = platforms_sub.add_parser("list")
    plist.add_argument("--format", choices=("text", "json"), default="text")
    plist.set_defaults(fn=_cmd_platforms_list)
    pdesc = platforms_sub.add_parser("describe")
    pdesc.add_argument("--platform", required=True,
                       help="a registered platform name")
    pdesc.add_argument("--format", choices=("text", "json"), default="text")
    pdesc.set_defaults(fn=_cmd_platforms_describe)
    pval = platforms_sub.add_parser("validate")
    pval.add_argument("--file", default=None,
                      help="validate this PlatformDef JSON file instead of "
                           "the registry")
    pval.set_defaults(fn=_cmd_platforms_validate)
    pexc = platforms_sub.add_parser("excite")
    pexc.add_argument("--platform", required=True,
                      help="registered platform to excite")
    pexc.add_argument("--seed", type=int, default=0,
                      help="RNG seed of the excitation run")
    pexc.add_argument("--out", default=None,
                      help="write the CalibTrace JSON here (default: stdout)")
    pexc.add_argument("--dwell-s", type=float, default=1.2,
                      help="nominal hold time per OPP step")
    pexc.add_argument("--soak-s", type=float, default=12.0,
                      help="all-out heat soak duration")
    pexc.add_argument("--cooldown-s", type=float, default=25.0,
                      help="parked cooldown duration")
    pexc.add_argument("--max-opps", type=int, default=8,
                      help="max OPPs per staircase (endpoints always kept)")
    pexc.set_defaults(fn=_cmd_platforms_excite)
    pdeg = platforms_sub.add_parser("degrade")
    pdeg.add_argument("--trace", required=True,
                      help="CalibTrace JSON file to degrade")
    pdeg.add_argument("--model", required=True,
                      help="built-in degradation model name (sysfs, "
                           "noisy-sysfs, harsh) or a DegradationModel "
                           "JSON file")
    pdeg.add_argument("--seed", type=int, default=0,
                      help="RNG seed of the degradation draws")
    pdeg.add_argument("--out", default=None,
                      help="write the degraded CalibTrace JSON here "
                           "(default: stdout)")
    pdeg.set_defaults(fn=_cmd_platforms_degrade)
    pfit = platforms_sub.add_parser("fit")
    pfit.add_argument("--trace", required=True,
                      help="CalibTrace JSON file to fit from")
    pfit.add_argument("--name", default=None,
                      help="name the fitted definition (default: from trace)")
    pfit.add_argument("--out", default=None,
                      help="write the fitted PlatformDef JSON here")
    pfit.add_argument("--register", action="store_true",
                      help="register the fitted definition in this process "
                           "(proves it compiles and does not collide)")
    pfit.add_argument("--robust", choices=("auto", "on", "off"),
                      default="auto",
                      help="fit path: auto picks robust estimators only "
                           "for degraded/misaligned traces; off restores "
                           "strict clean-trace fitting")
    pfit.add_argument("--format", choices=("text", "json"), default="text")
    pfit.set_defaults(fn=_cmd_platforms_fit)

    for name, fn in (("metrics", _cmd_metrics), ("trace", _cmd_trace)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--app", default="hangouts",
                         help="catalog app to run")
        cmd.add_argument("--platform", default=NEXUS6P,
                         help="registered platform to run on")
        cmd.add_argument("--duration", type=float, default=30.0,
                         help="simulated seconds to run")
        cmd.add_argument("--seed", type=int, default=3)
        cmd.add_argument("--profile", action="store_true",
                         help="also print the step-phase wall-clock profile")
        cmd.add_argument("--format", choices=("text", "json"), default="text",
                         help="json: machine-readable output with stable "
                              "key order")
        if name == "trace":
            cmd.add_argument("--limit", type=int, default=200,
                             help="max spans to print (newest only)")
        cmd.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Command functions either return the text to print (exit code 0) or —
    for commands with meaningful exit codes, like ``lint`` — print their
    own output and return the code as an int.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    result = args.fn(args)
    if isinstance(result, int):
        return result
    print(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
