"""Content-addressed on-disk result store.

Every completed scenario is filed under a key derived from *what produced
it*: the canonical JSON of the scenario spec plus the package version.
Re-running a campaign therefore only executes cache misses, an interrupted
campaign resumes where it stopped, and two stores populated by different
worker schedules hold byte-identical objects (the payload contains only
deterministic simulation output — never wall-clock data).

Layout under the store root::

    objects/<key[:2]>/<key>.json     one completed run (spec + result +
                                     per-run telemetry snapshot)
    attempts/<key>.attempts          crash forensics: tries without a result
    campaigns/<name>/manifest.json   per-campaign provenance manifest
    campaigns/<name>/metrics.prom    campaign-level metrics snapshot
    campaigns/<name>/telemetry.json  merged fleet telemetry snapshot
    campaigns/<name>/telemetry.prom  the same, as Prometheus exposition
    campaigns/<name>/aggregate.json  fleet aggregate (what ``obs check`` reads)
    campaigns/<name>/fleet.prom      fleet percentile gauges

Writes are atomic (temp file + ``os.replace``), so a killed worker can
never leave a half-written object behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.campaign.spec import canonical_json
from repro.errors import ConfigurationError
from repro.sim.experiment import Scenario, ScenarioResult

#: Version tag of the stored payload layout; part of the cache key, so a
#: format change can never resurrect stale objects.  /2 added the per-run
#: ``telemetry`` snapshot to the payload.
RESULT_SCHEMA = "repro.campaign.result/2"


def _repro_version() -> str:
    from repro import __version__  # deferred: repro/__init__ imports us

    return __version__


def scenario_key(scenario: Scenario) -> str:
    """Cache key: canonical hash of the scenario spec + repro version."""
    payload = {
        "schema": RESULT_SCHEMA,
        "repro_version": _repro_version(),
        "scenario": scenario.to_dict(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class ResultStore:
    """Content-addressed result cache rooted at one directory."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    # ------------------------------------------------------------- objects

    def object_path(self, key: str) -> pathlib.Path:
        """Where a result object for ``key`` lives (existing or not)."""
        if len(key) < 8:
            raise ConfigurationError(f"malformed store key {key!r}")
        return self.root / "objects" / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """True if a completed result is cached under ``key``."""
        return self.object_path(key).exists()

    def save(
        self,
        key: str,
        scenario: Scenario,
        result: ScenarioResult,
        telemetry: dict | None = None,
    ) -> pathlib.Path:
        """Atomically file one completed run; returns the object path.

        ``telemetry`` is the run's registry snapshot
        (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, wall-clock
        families excluded) — like the result, it must be deterministic
        simulation output so stored objects stay byte-identical across
        worker schedules.
        """
        payload = {
            "schema": RESULT_SCHEMA,
            "repro_version": _repro_version(),
            "key": key,
            "scenario": scenario.to_dict(),
            "result": result.to_dict(),
            "telemetry": telemetry,
        }
        path = self.object_path(key)
        _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def load_payload(self, key: str) -> dict | None:
        """The raw stored payload for ``key`` (None on a miss)."""
        path = self.object_path(key)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def load(self, key: str) -> ScenarioResult | None:
        """The cached :class:`ScenarioResult` for ``key`` (None on a miss)."""
        payload = self.load_payload(key)
        if payload is None:
            return None
        return ScenarioResult.from_dict(payload["result"])

    def load_telemetry(self, key: str) -> dict | None:
        """The cached run's telemetry snapshot (None on a miss or when the
        run was stored without one)."""
        payload = self.load_payload(key)
        if payload is None:
            return None
        return payload.get("telemetry")

    def keys(self) -> list[str]:
        """All cached object keys, sorted."""
        objects = self.root / "objects"
        if not objects.exists():
            return []
        return sorted(p.stem for p in objects.glob("*/*.json"))

    # ------------------------------------------------ crash-attempt markers

    def _attempt_path(self, key: str) -> pathlib.Path:
        return self.root / "attempts" / f"{key}.attempts"

    def attempts(self, key: str) -> int:
        """How many times a worker started this run without filing a result."""
        path = self._attempt_path(key)
        if not path.exists():
            return 0
        try:
            return int(path.read_text().strip() or 0)
        except ValueError:
            return 0

    def record_attempt(self, key: str) -> int:
        """Bump the attempt marker (workers call this before running)."""
        count = self.attempts(key) + 1
        _atomic_write_text(self._attempt_path(key), f"{count}\n")
        return count

    def clear_attempts(self, key: str) -> None:
        """Drop the attempt marker (run completed, failed cleanly, or was
        adjudicated as crashed)."""
        path = self._attempt_path(key)
        if path.exists():
            path.unlink()

    # ----------------------------------------------------------- campaigns

    def campaign_dir(self, name: str) -> pathlib.Path:
        """Directory holding one campaign's manifest and metrics."""
        return self.root / "campaigns" / name

    def manifest_path(self, name: str) -> pathlib.Path:
        """Path of one campaign's manifest (existing or not)."""
        return self.campaign_dir(name) / "manifest.json"

    def telemetry_path(self, name: str) -> pathlib.Path:
        """Path of one campaign's merged telemetry snapshot."""
        return self.campaign_dir(name) / "telemetry.json"

    def aggregate_path(self, name: str) -> pathlib.Path:
        """Path of one campaign's fleet aggregate."""
        return self.campaign_dir(name) / "aggregate.json"

    def load_aggregate(self, name: str) -> dict | None:
        """A previously written fleet aggregate (None if never run)."""
        return _load_store_json(self.aggregate_path(name))

    def load_campaign_manifest(self, name: str) -> dict | None:
        """A previously written campaign manifest (None if never run)."""
        return _load_store_json(self.manifest_path(name))


def _load_store_json(path: pathlib.Path) -> dict | None:
    """A JSON file the store wrote (None if absent).

    A file cut short (a killed writer, a full disk) is a
    :class:`ConfigurationError` naming it, not a decoder traceback.
    """
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigurationError(
            f"{path}: malformed JSON in the result store: {exc}"
        ) from None
