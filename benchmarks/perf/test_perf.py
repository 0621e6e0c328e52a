"""Checks of the benchmark itself.  Run with ``pytest benchmarks/perf``."""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == measure.PER_LAYER
    assert BENCH["run_seconds"] == run.DEFAULT_SECONDS
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def _run(tmp_path, *extra):
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fit-clean",
         "--seconds", "1", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text().splitlines()[-1])
    return record, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fit_clean(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf")
    return _run(tmp, "--trace", "0"), _run(tmp, "--trace", "1")


def _check(record, last_line, catalogue):
    assert record["status"] == "ok" and record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == list(catalogue)
    for name, m in record["metrics"].items():
        assert m["unit"] == catalogue[name]
        assert isinstance(m["n"], int)
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert set(last_line["metrics"]) == set(catalogue)
    assert all(set(m) == {"value", "unit"} for m in last_line["metrics"].values())


def test_fit_clean_reports_every_end_to_end_metric(fit_clean):
    (record, last_line), _ = fit_clean
    _check(record, last_line, measure.END_TO_END)
    assert all(m["n"] >= 1 and m["value"] > 0 for m in record["metrics"].values())
    assert record["outputs"]["param_err_pct"] < 100 * workloads.FIT_TOLERANCE["fit-clean"]
    assert record["host"]["usable_cores"] >= 1


def test_fit_clean_traced_reports_every_per_layer_metric(fit_clean):
    (untraced, _), (traced, last_line) = fit_clean
    _check(traced, last_line, measure.PER_LAYER)
    assert traced["outputs"] == untraced["outputs"]
    assert traced["metrics"]["calib.fit_trace.calls_per_fit"]["value"] == 1.0
    assert traced["metrics"]["kernel.tick.calls_per_tick"]["n"] == 0


def _scenario_digest():
    from repro.sim.experiment import AppSpec, Scenario

    result, telemetry = Scenario(
        platform="odroid-xu3",
        apps=(AppSpec.catalog("stickman"), AppSpec.batch("bml")),
        policy="proposed",
        duration_s=6.0,
        seed=3,
        faults="spike-storm",
    ).run_instrumented()
    body = json.dumps([result.to_dict(), telemetry], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def test_tracing_leaves_a_scenario_unchanged_and_restores_everything():
    spans = (layers.STEP, *layers.ENGINE_SPANS, *layers.CAMPAIGN_SPANS)
    untraced = _scenario_digest()
    tracer = layers.LayerTracer(spans)
    with tracer:
        patched = list(tracer._patched)
        traced = _scenario_digest()
    assert traced == untraced
    assert patched and not tracer._patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    stats = tracer.stats
    assert stats["sim.step"].calls == 600
    assert stats["kernel.tick"].calls == 600
    assert stats["campaign.scenario"].calls == 1


def test_a_directory_without_the_source_tree_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
