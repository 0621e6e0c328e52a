"""Smoke benchmark (extension): robust fit wall time vs the clean path.

Excites the Odroid-XU3 once (setup, untimed), degrades the trace with the
closed-loop contract model (``noisy-sysfs``: millidegree temperature
quantization, 10 % record drops, TMU spikes), then times a clean fit and a
robust fit of the same capture.  The gate keeps robustness affordable: the
despike/align/IRLS machinery may cost real work, but if the robust path
drifts past ``MAX_SLOWDOWN`` times the clean fit, `repro platforms fit` on
a real dump stops being an interactive command and the regression fails
here first.
"""

import time

from repro.calib import BUILTIN_MODELS, fit_platform, run_excitation

from _harness import run_once

#: The robust fit may cost at most this many clean fits (the ratio gate is
#: immune to loaded CI hosts slowing both paths).  Measured as the
#: `fit-degraded` / `fit-clean` `op_s.p50` ratio of `benchmarks/perf` on
#: a 2-core x86-64 host: ~5.7x with a per-run Hampel loop, ~2.6x since one
#: vectorised pass despikes every run of a channel, ~1.9x since the
#: energy-balance windows are integrated in one pass per record count and
#: every robust median comes from one partition.
MAX_SLOWDOWN = 5.0


def test_calib_robust_fit_wall_time(benchmark, emit):
    trace = run_excitation("odroid-xu3", seed=1)
    degraded = BUILTIN_MODELS["noisy-sysfs"].apply(trace, seed=7)

    def fit_both():
        started = time.perf_counter()
        fit_platform(trace, name="odroid-xu3-clean-bench")
        clean_s = time.perf_counter() - started
        started = time.perf_counter()
        pdef, report = fit_platform(degraded, name="odroid-xu3-robust-bench")
        robust_s = time.perf_counter() - started
        return pdef, report, clean_s, robust_s

    pdef, report, clean_s, robust_s = run_once(benchmark, fit_both)
    assert pdef.name == "odroid-xu3-robust-bench"
    assert not report.degraded(), report.verdicts()
    slowdown = robust_s / clean_s
    assert slowdown < MAX_SLOWDOWN, (
        f"robust fit took {robust_s:.2f}s = {slowdown:.1f}x the clean "
        f"fit's {clean_s:.2f}s (limit {MAX_SLOWDOWN:.0f}x)"
    )
    lines = [
        f"trace: {trace.duration_s():.1f} s simulated, "
        f"{len(trace.names())} channels, degraded with noisy-sysfs seed 7",
        f"clean fit:  {clean_s:.3f} s wall",
        f"robust fit: {robust_s:.3f} s wall "
        f"({slowdown:.1f}x, limit {MAX_SLOWDOWN:.0f}x)",
        "",
        report.summary(),
    ]
    emit("bench_calib_robust", "\n".join(lines))
