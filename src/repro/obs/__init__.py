"""repro.obs — the unified observability layer.

Four concerns, one package:

* :mod:`repro.obs.metrics`   — counters / gauges / fixed-bucket histograms
  in a per-simulation :class:`MetricsRegistry` (no process-wide globals);
* :mod:`repro.obs.spans`     — bounded span tracing of discrete decisions
  with parent/child nesting and dual wall/sim timestamps;
* :mod:`repro.obs.profiler`  — per-phase wall-clock profiling of
  ``Simulation.step`` (enable with ``Simulation(profile=True)``);
* :mod:`repro.obs.exporters` / :mod:`repro.obs.manifest` — JSONL events,
  Prometheus text exposition, per-channel CSVs and the ``manifest.json``
  provenance record written alongside every export;
* :mod:`repro.obs.telemetry` — cross-process pipeline: registry snapshots
  merged across campaign workers, fleet percentile aggregation,
  declarative SLO specs and the live watch dashboard.

The metric-name catalogue and span taxonomy live in
``docs/OBSERVABILITY.md`` (and are asserted against the registry by the
test suite).
"""

from repro.obs.exporters import (
    export_run_set,
    export_simulation,
    prometheus_text,
    read_events_jsonl,
    write_channel_csvs,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.manifest import build_manifest, read_manifest, write_manifest
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    FRAME_TIME_BUCKETS_S,
    LATENCY_BUCKETS_S,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import (
    STEP_PHASES,
    PhaseStat,
    ProfileReport,
    StepProfiler,
)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "DURATION_BUCKETS_S",
    "FRAME_TIME_BUCKETS_S",
    "LATENCY_BUCKETS_S",
    "STEP_PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseStat",
    "ProfileReport",
    "SNAPSHOT_SCHEMA",
    "Span",
    "SpanTracer",
    "StepProfiler",
    "build_manifest",
    "export_run_set",
    "export_simulation",
    "prometheus_text",
    "read_events_jsonl",
    "read_manifest",
    "write_channel_csvs",
    "write_events_jsonl",
    "write_manifest",
    "write_prometheus",
]
