"""Child-side measurement: timed passes, checks, and the metric catalogue.

End-to-end metrics come from untraced passes only.  With tracing on, the
same number of passes runs again under :class:`layers.LayerTracer`, in
process; the difference from untraced passes of the same shape is the
tracing overhead, and every pass must reproduce the first one's outputs
digest exactly.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time

import layers

#: End-to-end metrics and their units.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "sim_s_per_s": "sim-s/s",
    "peak_rss_mb": "MB",
}


def _layer_catalogue() -> dict[str, str]:
    units = {}
    for span in layers.ENGINE_SPANS:
        units[f"{span.name}.self_us_per_tick"] = "us/tick"
        units[f"{span.name}.calls_per_tick"] = "1/tick"
    units.update({
        "sim.step.us.p50": "us",
        "sim.step.us.p99": "us",
        "kernel.cpufreq.change_ratio": "ratio",
        "core.governor.action_ratio": "ratio",
        "campaign.expand.ms": "ms",
        "campaign.scenario.ms.p50": "ms",
        "campaign.store_save.ms_per_call": "ms",
        "obs.aggregate.ms": "ms",
        "campaign.runner.self_ms": "ms",
        "campaign.run_s.p50": "s",
        "campaign.worker_busy_ratio": "ratio",
    })
    for span in layers.CALIB_SPANS:
        units[f"{span.name}.ms_per_fit"] = "ms/fit"
        units[f"{span.name}.calls_per_fit"] = "1/fit"
    units.update({
        "calib.fitted_ratio": "ratio",
        "setup.import_ms": "ms",
        "trace.overhead_pct": "%",
        "trace.coverage": "ratio",
    })
    return units


#: Per-layer metrics and their units.  A layer a workload never calls
#: reads 0 with n = 0.
PER_LAYER = _layer_catalogue()

#: Spans traced per workload.
TRACED_SPANS = {
    "table2": (layers.STEP, *layers.ENGINE_SPANS),
    "chaos": (layers.STEP, *layers.ENGINE_SPANS, *layers.CAMPAIGN_SPANS),
    "fit-clean": layers.CALIB_SPANS,
    "fit-degraded": layers.CALIB_SPANS,
}


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def host_facts() -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        pass
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024  # bytes vs KiB
    return peak / scale


def run_passes(workload, seconds: float | None = None, count: int | None = None,
               **flags) -> list:
    """Whole passes: ``count`` of them, or as many as end within
    ``seconds`` (at least one)."""
    passes, spent = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(**flags))
        spent.append(time.perf_counter() - t0)
        if count is not None:
            if len(passes) >= count:
                return passes
        elif time.perf_counter() - started + statistics.median(spent) > seconds:
            return passes


def _failures(passes, reference: str, what: str, problems: list) -> int:
    """Failed operations: those whose check failed, and every operation of
    a pass whose outputs digest differs from the reference."""
    failed = 0
    for i, p in enumerate(passes):
        problems += p.problems
        if p.digest != reference:
            problems.append(f"{what} pass {i} digest {p.digest[:12]} != {reference[:12]}")
            failed += len(p.op_s)
        else:
            failed += sum(not ok for ok in p.op_ok)
    return failed


def end_to_end(passes) -> dict:
    ops = [t for p in passes for t in p.op_s]
    return {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s", len(passes)),
        "op_s.p50": metric(statistics.median(ops), "s", len(ops)),
        "sim_s_per_s": metric(
            statistics.median(p.sim_s / p.wall_s for p in passes), "sim-s/s", len(passes)
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
    }


def _sum_counters(passes) -> dict:
    totals: dict = {}
    for p in passes:
        for key, value in p.counters.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced, baseline, traced, tracer, jobs: int) -> dict:
    """Every per-layer metric except ``setup.import_ms`` (the parent times
    that in fresh interpreters).  ``baseline`` is the untraced run of the
    same shape as ``traced``, for the tracing overhead."""
    out = {k: metric(0.0, u, 0) for k, u in PER_LAYER.items() if k != "setup.import_ms"}
    stats = tracer.stats
    counters = _sum_counters(untraced)
    baseline_ops = sum(t for p in baseline for t in p.op_s)
    traced_ops = sum(t for p in traced for t in p.op_s)
    out["trace.overhead_pct"] = metric(
        100.0 * (traced_ops / baseline_ops - 1.0), "%", len(traced)
    )

    if "sim.step" in stats:
        step = stats["sim.step"]
        ticks = step.calls
        for span in layers.ENGINE_SPANS:
            s = stats[span.name]
            out[f"{span.name}.self_us_per_tick"] = metric(
                _ratio(s.self_ns / 1e3, ticks), "us/tick", s.calls
            )
            out[f"{span.name}.calls_per_tick"] = metric(
                _ratio(s.calls, ticks), "1/tick", ticks
            )
        durations_us = [d / 1e3 for d in step.durations_ns]
        out["sim.step.us.p50"] = metric(statistics.median(durations_us), "us", ticks)
        out["sim.step.us.p99"] = metric(nearest_rank(durations_us, 0.99), "us", ticks)
        out["trace.coverage"] = metric(
            _ratio(step.total_ns - step.self_ns, step.total_ns), "ratio", ticks
        )
        updates = counters["repro_governor_updates_total"]
        out["kernel.cpufreq.change_ratio"] = metric(
            _ratio(counters["repro_governor_freq_changes_total"], updates),
            "ratio", int(updates),
        )
        periods = counters["repro_app_governor_runs_total"]
        out["core.governor.action_ratio"] = metric(
            _ratio(counters["repro_app_governor_actions_total"], periods),
            "ratio", int(periods),
        )

    if "campaign.runner" in stats:
        n = len(traced)
        scenario = stats["campaign.scenario"]
        save = stats["campaign.store_save"]
        out["campaign.expand.ms"] = metric(
            stats["campaign.expand"].total_ns / 1e6 / n, "ms", stats["campaign.expand"].calls
        )
        out["campaign.scenario.ms.p50"] = metric(
            statistics.median(d / 1e6 for d in scenario.durations_ns), "ms", scenario.calls
        )
        out["campaign.store_save.ms_per_call"] = metric(
            _ratio(save.total_ns / 1e6, save.calls), "ms", save.calls
        )
        out["obs.aggregate.ms"] = metric(
            stats["obs.aggregate"].total_ns / 1e6 / n, "ms", stats["obs.aggregate"].calls
        )
        out["campaign.runner.self_ms"] = metric(
            stats["campaign.runner"].self_ns / 1e6 / n, "ms", stats["campaign.runner"].calls
        )
        run_s = [t for p in untraced for t in p.op_s]
        out["campaign.run_s.p50"] = metric(statistics.median(run_s), "s", len(run_s))
        busy = [sum(p.op_s) / (p.wall_s * jobs) for p in untraced]
        out["campaign.worker_busy_ratio"] = metric(statistics.median(busy), "ratio", len(busy))

    if "calib.fit_trace" in stats:
        fits = sum(len(p.op_s) for p in traced)
        named_ns = 0
        for span in layers.CALIB_SPANS:
            s = stats[span.name]
            named_ns += s.self_ns
            out[f"{span.name}.ms_per_fit"] = metric(s.self_ns / 1e6 / fits, "ms/fit", s.calls)
            out[f"{span.name}.calls_per_fit"] = metric(s.calls / fits, "1/fit", fits)
        out["trace.coverage"] = metric(named_ns / 1e9 / traced_ops, "ratio", fits)
        out["calib.fitted_ratio"] = metric(
            _ratio(counters["stages_fitted"], counters["stages"]), "ratio", int(counters["stages"])
        )
    return out


def measure(workload, seconds: float, trace: bool, jobs: int) -> dict:
    """Run the workload's timed passes (and, with ``trace``, the traced
    ones) and return the child's result document."""
    untraced = run_passes(workload, seconds=seconds)
    problems: list[str] = []
    reference = untraced[0].digest
    failed = _failures(untraced, reference, "untraced", problems)
    attempted = sum(len(p.op_s) for p in untraced)
    result = {
        "host": host_facts(),
        "outputs": {"outputs_sha256": reference, **untraced[0].outputs},
    }
    if not trace:
        result["metrics"] = end_to_end(untraced)
    else:
        # The traced passes run in-process; a workload whose timed passes
        # use a worker pool gets an untraced in-process pass to compare with.
        baseline = untraced
        if workload.parallel:
            baseline = run_passes(workload, count=len(untraced), in_process=True)
            failed += _failures(baseline, reference, "in-process", problems)
            attempted += sum(len(p.op_s) for p in baseline)
        tracer = layers.LayerTracer(TRACED_SPANS[workload.name])
        with tracer:
            traced = run_passes(workload, count=len(untraced), traced=True)
            escaped = tracer.unwrapped_subclasses()
        if escaped:
            problems.append(f"methods loaded after tracing began: {escaped}")
        failed += _failures(traced, reference, "traced", problems)
        attempted += sum(len(p.op_s) for p in traced)
        result["metrics"] = per_layer(untraced, baseline, traced, tracer, jobs)
    result.update(attempted=attempted, failed=failed, problems=list(dict.fromkeys(problems)))
    return result
