"""Frame-pipeline workloads and FPS measurement.

The dominant mobile workload is a render loop: per frame, a CPU stage
(game logic, layout) followed by a GPU stage (rendering), pipelined so the
CPU prepares frame *n+1* while the GPU draws frame *n*.  Achieved FPS is the
completion rate, capped by vsync.

Per-frame cost is stochastic — a lognormal factor models frame-to-frame
scene variation, and a slow sinusoidal *phase* models scene changes (menus
vs. heavy action).  This variation is what spreads the DVFS residencies that
the paper's Figures 2/4/6 report.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.apps.base import Application
from repro.errors import AnalysisError, ConfigurationError


class FpsMeter:
    """Counts frame completions and reports FPS statistics."""

    def __init__(self, bucket_s: float = 1.0) -> None:
        if bucket_s <= 0.0:
            raise ConfigurationError("FPS bucket must be positive")
        self._bucket_s = bucket_s
        self._completions = array("d")

    def record(self, now_s: float) -> None:
        """Register one completed frame."""
        self._completions.append(now_s)

    @property
    def frame_count(self) -> int:
        """Total frames completed."""
        return len(self._completions)

    def fps_series(
        self, start_s: float = 0.0, end_s: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bucket FPS ``(bucket_start_times, fps)``."""
        # A copy: an ``array`` that exports its buffer cannot grow.
        times = np.array(self._completions, dtype=float)
        if end_s is None:
            end_s = float(times[-1]) if times.size else start_s
        # The epsilon keeps float dust (start=1e-6, end=start+1) from
        # collapsing an exact whole bucket into none.
        n_buckets = int(math.floor((end_s - start_s) / self._bucket_s + 1e-9))
        if n_buckets <= 0:
            return np.empty(0), np.empty(0)
        edges = start_s + self._bucket_s * np.arange(n_buckets + 1)
        counts, _ = np.histogram(times, bins=edges)
        return edges[:-1], counts / self._bucket_s

    def median_fps(self, start_s: float = 0.0, end_s: float | None = None) -> float:
        """Median of the per-second FPS — the statistic of the paper's Table I."""
        _, fps = self.fps_series(start_s, end_s)
        if fps.size == 0:
            raise AnalysisError("no complete FPS buckets in the window")
        return float(np.median(fps))

    def mean_fps(self, start_s: float = 0.0, end_s: float | None = None) -> float:
        """Mean of the per-second FPS."""
        _, fps = self.fps_series(start_s, end_s)
        if fps.size == 0:
            raise AnalysisError("no complete FPS buckets in the window")
        return float(fps.mean())

    def percentile_fps(
        self, percentile: float, start_s: float = 0.0,
        end_s: float | None = None,
    ) -> float:
        """A low percentile of the per-second FPS (p5 is the jank floor)."""
        if not 0.0 <= percentile <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100]: {percentile}")
        _, fps = self.fps_series(start_s, end_s)
        if fps.size == 0:
            raise AnalysisError("no complete FPS buckets in the window")
        return float(np.percentile(fps, percentile))

    def jank_ratio(
        self, start_s: float = 0.0, end_s: float | None = None,
        threshold: float = 0.8,
    ) -> float:
        """Fraction of seconds below ``threshold`` x the median FPS.

        A smoothness metric: two runs with equal medians can feel very
        different if one of them stalls every few seconds.
        """
        _, fps = self.fps_series(start_s, end_s)
        if fps.size == 0:
            raise AnalysisError("no complete FPS buckets in the window")
        floor = threshold * float(np.median(fps))
        return float((fps < floor).mean())


@dataclass(frozen=True)
class FrameWorkload:
    """Static demand description of a frame-pipeline app.

    Cycle counts are instruction-weighted (they divide by ``ipc * freq`` on
    the CPU side).  ``phase_amp``/``phase_period_s`` modulate the mean cost
    sinusoidally; ``sigma`` is the lognormal per-frame spread.
    """

    cpu_cycles_per_frame: float
    gpu_cycles_per_frame: float
    target_fps: float = 60.0
    sigma: float = 0.25
    phase_amp: float = 0.0
    phase_period_s: float = 30.0
    pipeline_depth: int = 2
    touch_rate_hz: float = 0.0
    cpu_threads: int = 1

    def __post_init__(self) -> None:
        if self.cpu_cycles_per_frame <= 0.0 or self.gpu_cycles_per_frame <= 0.0:
            raise ConfigurationError("frame cycle counts must be positive")
        if self.target_fps <= 0.0:
            raise ConfigurationError("target_fps must be positive")
        if not 0.0 <= self.phase_amp < 1.0:
            raise ConfigurationError("phase_amp must be in [0, 1)")
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        if self.sigma < 0.0:
            raise ConfigurationError("sigma must be non-negative")


class FrameApp(Application):
    """A render-loop application driven by a :class:`FrameWorkload`."""

    def __init__(
        self,
        name: str,
        workload: FrameWorkload,
        cluster: str | None = None,
        phases=None,
    ) -> None:
        super().__init__(name)
        self.workload = workload
        self._cluster = cluster
        self._phase_spec = tuple(phases) if phases is not None else None
        self._phase_model = None
        self.fps = FpsMeter()
        self._task = None
        self._frame_id = 0
        self._in_flight = 0
        self._next_start_s = 0.0
        self._started = False
        self._frame_start_s: dict[int, float] = {}
        self._m_started = None
        self._m_completed = None
        self._m_frame_time = None

    def on_attach(self) -> None:
        kernel = self.ctx.kernel
        cluster = self._cluster or kernel.platform.big_cluster.name
        self._task = kernel.spawn(
            self.name, cluster=cluster, n_threads=self.workload.cpu_threads
        )
        metrics = getattr(kernel, "metrics", None)
        if metrics is not None:
            from repro.obs.metrics import FRAME_TIME_BUCKETS_S

            labels = {"app": self.name}
            self._m_started = metrics.counter(
                "repro_frames_started_total", "Frames entered the pipeline",
                labels=labels,
            )
            self._m_completed = metrics.counter(
                "repro_frames_completed_total", "Frames fully rendered",
                labels=labels,
            )
            self._m_frame_time = metrics.histogram(
                "repro_frame_time_seconds",
                "Simulated start-to-present latency of one frame",
                buckets=FRAME_TIME_BUCKETS_S,
                labels=labels,
            )
        if self._phase_spec is not None:
            from repro.apps.phases import MarkovPhaseModel

            self._phase_model = MarkovPhaseModel(self._phase_spec, self.ctx.rng)

    def pids(self) -> list[int]:
        return [self._task.pid] if self._task is not None else []

    # ------------------------------------------------------------ dynamics

    def _phase_factor(self, now_s: float) -> float:
        if self._phase_model is not None:
            return self._phase_model.factor(now_s)
        w = self.workload
        if w.phase_amp <= 0.0:
            return 1.0
        return 1.0 + w.phase_amp * math.sin(2.0 * math.pi * now_s / w.phase_period_s)

    def _draw_cost(self, mean_cycles: float, now_s: float) -> float:
        w = self.workload
        factor = self._phase_factor(now_s)
        if w.sigma > 0.0:
            # Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
            factor *= float(
                np.exp(self.ctx.rng.normal(-0.5 * w.sigma**2, w.sigma))
            )
        return mean_cycles * factor

    def _mean_cycles(self, now_s: float) -> tuple[float, float]:
        """Mean (cpu, gpu) cycles per frame right now; phases may override."""
        return (
            self.workload.cpu_cycles_per_frame,
            self.workload.gpu_cycles_per_frame,
        )

    def _begin_frame(self, now_s: float) -> None:
        self._frame_id += 1
        self._in_flight += 1
        self._frame_start_s[self._frame_id] = now_s
        if self._m_started is not None:
            self._m_started.inc()
        cpu_mean, _ = self._mean_cycles(now_s)
        cost = self._draw_cost(cpu_mean, now_s)
        self._task.add_work(cost, tag=(self.name, self._frame_id, "cpu"))

    def step(self, now_s: float, dt_s: float) -> None:
        w = self.workload
        if not self._started:
            self._started = True
            self._next_start_s = now_s
        if w.touch_rate_hz > 0.0:
            if self.ctx.rng.random() < w.touch_rate_hz * dt_s:
                self.ctx.kernel.input_event(now_s)
        interval = 1.0 / w.target_fps
        while self._next_start_s <= now_s and self._in_flight < w.pipeline_depth:
            self._begin_frame(now_s)
            # Vsync pacing without catch-up bursts after a stall.
            self._next_start_s = max(self._next_start_s + interval, now_s - interval)

    def on_cpu_complete(self, tag: tuple, now_s: float) -> None:
        _, frame_id, stage = tag
        if stage != "cpu":
            return
        _, gpu_mean = self._mean_cycles(now_s)
        cost = self._draw_cost(gpu_mean, now_s)
        self.ctx.kernel.gpu.submit(self.name, cost, tag=(self.name, frame_id, "gpu"))

    def on_gpu_complete(self, tag: tuple, now_s: float) -> None:
        self._in_flight -= 1
        self.fps.record(now_s)
        started_s = self._frame_start_s.pop(tag[1], None)
        if self._m_completed is not None:
            self._m_completed.inc()
            if started_s is not None:
                self._m_frame_time.observe(now_s - started_s)

    def metrics(self) -> dict:
        out = {"frames": self.fps.frame_count}
        try:
            out["median_fps"] = self.fps.median_fps(start_s=5.0)
            out["mean_fps"] = self.fps.mean_fps(start_s=5.0)
        except AnalysisError:
            pass
        return out
