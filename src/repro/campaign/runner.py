"""Parallel, fault-isolated campaign execution.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec`, skips
every run already present in the :class:`~repro.campaign.store.ResultStore`
and fans the cache misses out over a ``ProcessPoolExecutor``:

* **Determinism** — workers receive the scenario *dict* and rebuild the
  frozen :class:`~repro.sim.experiment.Scenario` from it, so results are
  identical whatever the worker count or scheduling order; the report is
  always assembled in grid order.
* **Fault isolation** — a run raising any exception (including
  :class:`~repro.errors.SimulationError`) records a structured
  :class:`RunFailure` instead of killing the campaign.  A *hard* worker
  crash breaks the pool; the runner then retries each started-but-
  unfinished run once in its own single-worker pool so innocent bystanders
  complete while the genuine crasher is marked ``failed`` (kind
  ``"crash"``).  Failures are never cached: a later ``--resume`` executes
  exactly the missing runs.
* **Timeout** — an optional per-run wall-clock deadline enforced with
  ``SIGALRM`` inside the worker (skipped silently where unavailable).
* **Observability** — campaign-level counters (started / cached /
  completed / failed), a wall-time histogram, and a provenance manifest
  plus Prometheus snapshot written under ``campaigns/<name>/`` in the
  store.
* **Telemetry** — each worker ships its run's deterministic registry
  snapshot back in the summary (and into the stored object); the runner
  folds them through a :class:`~repro.obs.telemetry.CampaignAggregator`
  into ``telemetry.json`` / ``telemetry.prom`` (the merged fleet
  registry, byte-identical whatever the worker count), ``aggregate.json``
  (percentile series per platform/policy/fault-plan — what ``repro obs
  check`` evaluates SLOs against) and ``fleet.prom``.  Progress hooks
  (:class:`~repro.obs.telemetry.CampaignObserver`, e.g. the ``--watch``
  dashboard) fire as runs resolve.
"""

from __future__ import annotations

import datetime
import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Mapping

from repro.campaign.spec import CampaignRun, CampaignSpec
from repro.campaign.store import ResultStore, scenario_key
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry.aggregate import (
    CampaignAggregate,
    CampaignAggregator,
    quantile,
)
from repro.sim.experiment import Scenario, ScenarioResult

CAMPAIGN_MANIFEST_SCHEMA = "repro.campaign/1"

#: Test-only fault hook: a *worker process* whose run id equals this
#: environment variable hard-exits before running, simulating a crashed or
#: OOM-killed worker.  Never consulted on the in-process (jobs=1) path.
FAULT_ENV = "REPRO_CAMPAIGN_FAULT_RUN"

#: Wall-time histogram buckets for one run (seconds, host clock).
WALL_SECONDS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)



def _wall_clock_s() -> float:
    """The campaign runner's single wall-clock read, used only to time
    host-side run durations for the wall-time histogram and manifest —
    never as an input to simulated state (the sim reads its own clock).

    ``time.perf_counter`` is the sanctioned profiling clock (see rule R202
    in docs/STATIC_ANALYSIS.md); routing every read through this helper
    keeps the timing policy auditable in one place.
    """
    return time.perf_counter()


def _utc_timestamp() -> str:
    """Real (UTC) creation time for campaign manifests.

    Provenance metadata about when the sweep ran, mirroring
    ``obs/manifest.py``; it is never an input to simulated state, which is
    why the determinism rule is suppressed here and nowhere else in the
    campaign subsystem.
    """
    return datetime.datetime.now(  # repro-lint: disable=R202
        datetime.timezone.utc
    ).isoformat()


def _repro_version() -> str:
    from repro import __version__  # deferred: repro/__init__ imports us

    return __version__


# ---------------------------------------------------------------- records


@dataclass(frozen=True)
class RunFailure:
    """Structured record of why one run produced no result."""

    kind: str  # "exception" | "timeout" | "crash"
    error_type: str
    message: str
    #: Fault plan the scenario was replaying when it failed, when any —
    #: separates "crashed while being deliberately faulted" from a plain
    #: crash (a fault plan that executes as designed is not a failure at
    #: all: it completes and files a ScenarioResult).
    fault_plan: str | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "fault_plan": self.fault_plan,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunFailure":
        """Inverse of :meth:`to_dict` (``fault_plan`` optional, pre-1.1)."""
        fault_plan = data.get("fault_plan")
        return cls(
            kind=str(data["kind"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            fault_plan=None if fault_plan is None else str(fault_plan),
        )


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one grid point in a campaign invocation."""

    run_id: str
    key: str
    status: str  # "cached" | "completed" | "failed" | "pending"
    elapsed_s: float | None = None
    failure: RunFailure | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "run_id": self.run_id,
            "key": self.key,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "failure": None if self.failure is None else self.failure.to_dict(),
        }


@dataclass(frozen=True)
class CampaignReport:
    """All run records of one campaign invocation, in grid order."""

    name: str
    records: tuple[RunRecord, ...]

    def count(self, status: str) -> int:
        """Number of records with one status."""
        return sum(1 for r in self.records if r.status == status)

    @property
    def ok(self) -> bool:
        """True when every run is cached or completed."""
        return all(r.status in ("cached", "completed") for r in self.records)

    def summary(self) -> dict:
        """Counts by status plus the total."""
        return {
            "total": len(self.records),
            "cached": self.count("cached"),
            "completed": self.count("completed"),
            "failed": self.count("failed"),
            "pending": self.count("pending"),
        }

    def cache_hit_ratio(self) -> float:
        """Fraction of runs served from the result store (0.0 when empty)."""
        if not self.records:
            return 0.0
        return self.count("cached") / len(self.records)

    def wall_times(self) -> list[float]:
        """Wall seconds of every executed run, in grid order."""
        return [r.elapsed_s for r in self.records if r.elapsed_s is not None]

    def to_dict(self) -> dict:
        """JSON-serialisable form (the CLI's ``--format json`` payload)."""
        return {
            "name": self.name,
            "ok": self.ok,
            "summary": self.summary(),
            "runs": [r.to_dict() for r in self.records],
        }

    def render_text(self) -> str:
        """Human-readable table plus a one-line summary."""
        from repro.analysis.tables import render_table

        rows = []
        for record in self.records:
            elapsed = "-" if record.elapsed_s is None else f"{record.elapsed_s:.2f}"
            detail = ""
            if record.failure is not None:
                detail = f"{record.failure.kind}: {record.failure.message}"
            rows.append([record.run_id, record.status, elapsed, detail])
        table = render_table(
            ["run", "status", "wall s", "detail"], rows,
            title=f"Campaign {self.name}",
        )
        s = self.summary()
        line = (
            f"{s['total']} run(s): {s['completed']} completed, "
            f"{s['cached']} cached, {s['failed']} failed, "
            f"{s['pending']} pending"
        )
        lines = [table, line, f"cache hit ratio: {self.cache_hit_ratio():.2f}"]
        walls = self.wall_times()
        if walls:
            lines.append(
                f"wall s: p50 {quantile(walls, 0.50):.2f}, "
                f"p90 {quantile(walls, 0.90):.2f}, max {max(walls):.2f}"
            )
        else:
            lines.append("wall s: no executed runs")
        return "\n".join(lines)

    def render_json(self) -> str:
        """Pretty-printed JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ----------------------------------------------------------------- worker


class _Timeout(Exception):
    """Internal: raised by the SIGALRM handler on a per-run deadline."""


def _run_scenario(
    scenario: Scenario, timeout_s: float | None
) -> tuple[ScenarioResult, dict]:
    """Run one scenario (result + telemetry snapshot), under a SIGALRM
    deadline when one is requested."""
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        return scenario.run_instrumented()

    def _on_alarm(signum, frame):
        raise _Timeout()

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not the main thread: alarms unavailable
        return scenario.run_instrumented()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return scenario.run_instrumented()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_payload(payload: dict) -> dict:
    """Execute one run and file its result; always returns a summary dict.

    Runs in a worker process (or inline for ``jobs=1``).  Every Python
    exception is converted into a structured failure summary, so only a
    hard process death can leave the campaign without an answer — that is
    what the attempt markers are for.
    """
    run_id = payload["run_id"]
    key = payload["key"]
    timeout_s = payload.get("timeout_s")
    faults = payload["scenario"].get("faults")
    fault_plan = None if faults is None else faults.get("name")
    store = ResultStore(payload["store_root"])
    store.record_attempt(key)
    if payload.get("allow_fault_injection") and os.environ.get(FAULT_ENV) == run_id:
        os._exit(17)  # simulate a hard worker crash (test hook)
    started = _wall_clock_s()
    try:
        scenario = Scenario.from_dict(payload["scenario"])
        result, telemetry = _run_scenario(scenario, timeout_s)
    except _Timeout:
        store.clear_attempts(key)
        return {
            "run_id": run_id,
            "key": key,
            "status": "failed",
            "elapsed_s": _wall_clock_s() - started,
            "failure": {
                "kind": "timeout",
                "error_type": "Timeout",
                "message": f"run exceeded the {timeout_s:g} s deadline",
                "fault_plan": fault_plan,
            },
        }
    except Exception as exc:
        store.clear_attempts(key)
        return {
            "run_id": run_id,
            "key": key,
            "status": "failed",
            "elapsed_s": _wall_clock_s() - started,
            "failure": {
                "kind": "exception",
                "error_type": type(exc).__name__,
                "message": str(exc),
                "fault_plan": fault_plan,
            },
        }
    elapsed = _wall_clock_s() - started
    store.save(key, scenario, result, telemetry=telemetry)
    store.clear_attempts(key)
    return {
        "run_id": run_id,
        "key": key,
        "status": "completed",
        "elapsed_s": elapsed,
        "result": result.to_dict(),
        "telemetry": telemetry,
    }


# ----------------------------------------------------------------- runner


class CampaignRunner:
    """Execute a campaign against a result store."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore | str,
        jobs: int = 1,
        timeout_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        observer=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        if timeout_s is not None and timeout_s <= 0.0:
            raise ConfigurationError("timeout must be positive")
        self.spec = spec
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Progress hook (:class:`~repro.obs.telemetry.CampaignObserver`
        #: protocol) — e.g. the ``--watch`` dashboard.  Optional.
        self.observer = observer
        #: Fleet aggregate of the most recent :meth:`run` (None before).
        self.last_aggregate: CampaignAggregate | None = None
        self.runs = spec.expand()
        self._runs_by_id = {run.run_id: run for run in self.runs}
        self._keys = {run.run_id: scenario_key(run.scenario) for run in self.runs}
        self._aggregator = CampaignAggregator(spec.name)
        labels = {"campaign": spec.name}
        self._m_started = self.metrics.counter(
            "repro_campaign_runs_started_total",
            "Run executions submitted (cache misses, including crash retries)",
            labels=labels,
        )
        self._m_cached = self.metrics.counter(
            "repro_campaign_runs_cached_total",
            "Runs satisfied from the result store", labels=labels,
        )
        self._m_completed = self.metrics.counter(
            "repro_campaign_runs_completed_total",
            "Runs executed to completion this invocation", labels=labels,
        )
        self._m_failed = self.metrics.counter(
            "repro_campaign_runs_failed_total",
            "Runs that ended in a structured failure", labels=labels,
        )
        self._m_wall = self.metrics.histogram(
            "repro_campaign_run_wall_seconds",
            "Host wall-clock duration of one executed run",
            buckets=WALL_SECONDS_BUCKETS, labels=labels,
        )

    # ------------------------------------------------------------- queries

    def key_of(self, run: CampaignRun) -> str:
        """The store key of one expanded run."""
        return self._keys[run.run_id]

    def status(self) -> CampaignReport:
        """Cache-hit census without executing anything."""
        records = tuple(
            RunRecord(
                run_id=run.run_id,
                key=self.key_of(run),
                status="cached" if self.store.has(self.key_of(run)) else "pending",
            )
            for run in self.runs
        )
        return CampaignReport(name=self.spec.name, records=records)

    def results(self) -> dict[str, ScenarioResult]:
        """Cached results by run id (missing runs are simply absent)."""
        out: dict[str, ScenarioResult] = {}
        for run in self.runs:
            result = self.store.load(self.key_of(run))
            if result is not None:
                out[run.run_id] = result
        return out

    # ----------------------------------------------------------- execution

    def _payload(self, run: CampaignRun, allow_fault: bool) -> dict:
        return {
            "run_id": run.run_id,
            "key": self.key_of(run),
            "scenario": run.scenario.to_dict(),
            "store_root": str(self.store.root),
            "timeout_s": self.timeout_s,
            "allow_fault_injection": allow_fault,
        }

    def _record_from_summary(self, summary: dict) -> RunRecord:
        failure = summary.get("failure")
        record = RunRecord(
            run_id=summary["run_id"],
            key=summary["key"],
            status=summary["status"],
            elapsed_s=summary.get("elapsed_s"),
            failure=None if failure is None else RunFailure.from_dict(failure),
        )
        if record.status == "completed":
            self._m_completed.inc()
        else:
            self._m_failed.inc()
        if record.elapsed_s is not None:
            self._m_wall.observe(record.elapsed_s)
        result = summary.get("result")
        self._ingest(
            record,
            result=None if result is None else ScenarioResult.from_dict(result),
            telemetry=summary.get("telemetry"),
        )
        return record

    # ------------------------------------------------------------ telemetry

    def _notify(self, method: str, *args) -> None:
        if self.observer is not None:
            getattr(self.observer, method)(*args)

    def _ingest(
        self,
        record: RunRecord,
        result: ScenarioResult | None = None,
        telemetry: dict | None = None,
        load_store: bool = False,
    ) -> None:
        """File one resolved run with the aggregator and notify the observer.

        ``load_store=True`` pulls the result and telemetry from the store
        (cached runs, and completions whose summary died with the pool).
        """
        if load_store:
            payload = self.store.load_payload(record.key)
            if payload is not None:
                result = ScenarioResult.from_dict(payload["result"])
                telemetry = payload.get("telemetry")
        run = self._runs_by_id[record.run_id]
        self._aggregator.ingest(
            record.run_id,
            run.scenario,
            record.status,
            elapsed_s=record.elapsed_s,
            result=result,
            snapshot=telemetry,
            failure_kind=None if record.failure is None else record.failure.kind,
        )
        self._notify("run_finished", record)

    def aggregate(self) -> CampaignAggregate:
        """Fleet aggregate of the store's current view of this campaign.

        Folds every cached run (``repro campaign watch`` on a store that
        was populated earlier); :meth:`run` refreshes it live instead.
        """
        aggregator = CampaignAggregator(self.spec.name)
        for run in self.runs:
            key = self.key_of(run)
            payload = self.store.load_payload(key)
            if payload is None:
                aggregator.ingest(run.run_id, run.scenario, "pending")
            else:
                aggregator.ingest(
                    run.run_id,
                    run.scenario,
                    "cached",
                    result=ScenarioResult.from_dict(payload["result"]),
                    snapshot=payload.get("telemetry"),
                )
        return aggregator.aggregate()

    def _run_wave(self, runs: list[CampaignRun]) -> tuple[list[dict], bool]:
        """One fan-out over the pool (or inline for jobs=1).

        Returns the collected summaries and whether the pool broke (a
        worker died); lost runs are resolved by the caller via the store.
        """
        if self.jobs == 1:
            summaries = []
            for run in runs:
                self._m_started.inc()
                summaries.append(_execute_payload(self._payload(run, False)))
            return summaries, False
        summaries = []
        broken = False
        workers = min(self.jobs, len(runs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for run in runs:
                futures.append(pool.submit(_execute_payload, self._payload(run, True)))
                self._m_started.inc()
            for future in futures:
                try:
                    summaries.append(future.result())
                except BrokenProcessPool:
                    broken = True
        return summaries, broken

    def _run_isolated(self, run: CampaignRun) -> RunRecord:
        """Retry one crash suspect alone in a single-worker pool."""
        key = self.key_of(run)
        self._m_started.inc()
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_execute_payload, self._payload(run, True))
            try:
                summary = future.result()
            except BrokenProcessPool:
                self.store.clear_attempts(key)
                self._m_failed.inc()
                record = RunRecord(
                    run_id=run.run_id,
                    key=key,
                    status="failed",
                    failure=RunFailure(
                        kind="crash",
                        error_type="BrokenProcessPool",
                        message="worker process died while executing this run",
                    ),
                )
                self._ingest(record)
                return record
        return self._record_from_summary(summary)

    def run(self) -> CampaignReport:
        """Execute every cache miss; returns the full report.

        Also writes the campaign manifest and metrics snapshot under
        ``campaigns/<name>/`` in the store.
        """
        self._aggregator = CampaignAggregator(self.spec.name)
        self._notify(
            "campaign_started", self.spec.name, len(self.runs), self._aggregator
        )
        records: dict[str, RunRecord] = {}
        pending: list[CampaignRun] = []
        for run in self.runs:
            key = self.key_of(run)
            if self.store.has(key):
                record = RunRecord(run.run_id, key, "cached")
                records[run.run_id] = record
                self._m_cached.inc()
                self._ingest(record, load_store=True)
            else:
                pending.append(run)

        wave = 0
        while pending:
            suspects = [
                run for run in pending
                if self.store.attempts(self.key_of(run)) > 0
            ]
            if suspects:
                # Started before without filing a result — a broken pool in
                # this invocation, or an interrupted earlier one.  Isolate
                # each so a genuine crasher can only take itself down while
                # innocent bystanders complete.
                for run in suspects:
                    records[run.run_id] = self._run_isolated(run)
                suspect_ids = {run.run_id for run in suspects}
                pending = [r for r in pending if r.run_id not in suspect_ids]
                continue
            wave += 1
            self._notify("wave_started", wave, len(pending))
            summaries, broken = self._run_wave(pending)
            for summary in summaries:
                records[summary["run_id"]] = self._record_from_summary(summary)
            still: list[CampaignRun] = []
            for run in pending:
                if run.run_id in records:
                    continue
                key = self.key_of(run)
                if self.store.has(key):
                    # Finished, but its summary died with the pool.
                    record = RunRecord(run.run_id, key, "completed")
                    records[run.run_id] = record
                    self.store.clear_attempts(key)
                    self._m_completed.inc()
                    self._ingest(record, load_store=True)
                else:
                    still.append(run)
            if still and not broken:  # pragma: no cover - defensive
                for run in still:
                    record = RunRecord(
                        run.run_id, self.key_of(run), "failed",
                        failure=RunFailure(
                            kind="crash", error_type="LostRun",
                            message="run returned no summary and no result",
                        ),
                    )
                    records[run.run_id] = record
                    self._ingest(record)
                still = []
            pending = still

        report = CampaignReport(
            name=self.spec.name,
            records=tuple(records[run.run_id] for run in self.runs),
        )
        self.last_aggregate = self._aggregator.aggregate()
        self._write_manifest(report, self.last_aggregate)
        self._notify("campaign_finished", report)
        return report

    # ------------------------------------------------------------ manifest

    def _write_manifest(
        self, report: CampaignReport, aggregate: CampaignAggregate
    ) -> None:
        from repro.obs.exporters import write_prometheus
        from repro.obs.manifest import write_manifest
        from repro.obs.telemetry.snapshot import (
            registry_from_snapshot,
            snapshot_json,
        )

        manifest = {
            "schema": CAMPAIGN_MANIFEST_SCHEMA,
            "name": self.spec.name,
            "created_utc": _utc_timestamp(),
            "repro_version": _repro_version(),
            "jobs": self.jobs,
            "timeout_s": self.timeout_s,
            "spec": self.spec.to_dict(),
            "summary": report.summary(),
            "runs": {record.run_id: record.to_dict() for record in report.records},
        }
        directory = self.store.campaign_dir(self.spec.name)
        write_manifest(manifest, directory / "manifest.json")
        write_prometheus(self.metrics, directory / "metrics.prom")
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "aggregate.json").write_text(
            json.dumps(aggregate.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        write_prometheus(aggregate.to_registry(), directory / "fleet.prom")
        if aggregate.snapshot is not None:
            # Canonical merged telemetry: byte-identical for any worker
            # count or scheduling order (the acceptance bar of the
            # cross-process pipeline).
            (directory / "telemetry.json").write_text(
                snapshot_json(aggregate.snapshot) + "\n"
            )
            write_prometheus(
                registry_from_snapshot(aggregate.snapshot),
                directory / "telemetry.prom",
            )
