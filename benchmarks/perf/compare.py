"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl

``A`` is the parent (or first) set and ``B`` the change (or second) set,
each a file of records that ``run.py --out`` appended, one per run.  The
bounds and directions come from ``BENCHMARK.json``.  One row is printed per
workload x end-to-end metric with each side's median, quartiles and run
count, and a verdict:

* ``better``: B's median beats A's by more than A's quartile spread, and B
  wins at least nine tenths of the runs paired by seed (or, without pairs,
  every B run beats every A run);
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread of either side is wider than the
  bound, so "unchanged" cannot be claimed;
* ``unchanged``: otherwise.

The checked outputs (``outputs_sha256`` and the accuracy figures) must
repeat exactly for every seed both sides ran.  No combined score is
printed.  The exit code is 1 when any metric is worse or any output
differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def load(path) -> list[dict]:
    records = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return [r for r in records if r.get("status") == "ok" and not r.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float, float]:
    """``a`` and ``b`` map seed -> values.  Returns the verdict, B's change
    against A as a share of A's median (positive is worse) and the wider
    relative spread of the two sides."""
    sign = 1.0 if better == "lower" else -1.0
    va = [v for vs in a.values() for v in vs]
    vb = [v for vs in b.values() for v in vs]
    qa, qb = quartiles(va), quartiles(vb)
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    pairs = [
        (statistics.median(a[s]), statistics.median(b[s])) for s in a if s in b
    ]
    if pairs:
        wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
        convincing = wins >= 0.9
    else:
        convincing = all(sign * (y - x) < 0 for x in va for y in vb)
    if change < 0 and abs(qb[1] - qa[1]) > qa[2] - qa[0] and convincing:
        return "better", change, spread
    if change > bound:
        return "worse", change, spread
    if spread > bound:
        return "unresolved", change, spread
    return "unchanged", change, spread


def by_seed(records: list[dict], workload: str, metric: str) -> dict:
    out: dict = {}
    for r in records:
        if r["workload"] == workload and metric in r["metrics"]:
            out.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    return out


def compare(a_records, b_records, bench) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<13} {'metric':<12} {'unit':<8} "
        f"{'A median [q1, q3] n':<34} {'B median [q1, q3] n':<34} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    ]
    bad = False
    for workload in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            a = by_seed(a_records, workload, m["name"])
            b = by_seed(b_records, workload, m["name"])
            if not a or not b:
                lines.append(f"{workload:<13} {m['name']:<12} {m['unit']:<8} missing runs")
                bad = True
                continue
            result, change, spread = verdict(a, b, m["better"], m["bound"])
            bad |= result == "worse"
            cells = []
            for side in (a, b):
                values = [v for vs in side.values() for v in vs]
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(values)}")
            lines.append(
                f"{workload:<13} {m['name']:<12} {m['unit']:<8} {cells[0]:<34} "
                f"{cells[1]:<34} {100 * change:>7.2f}% {100 * spread:>6.2f}% "
                f"{100 * m['bound']:>5.1f}%  {result}"
            )
        outputs_a = {r["seed"]: r["outputs"] for r in a_records if r["workload"] == workload}
        outputs_b = {r["seed"]: r["outputs"] for r in b_records if r["workload"] == workload}
        seeds = sorted(set(outputs_a) & set(outputs_b))
        differ = [s for s in seeds if outputs_a[s] != outputs_b[s]]
        failed = [
            f"{side} {sum(r['failed'] for r in recs if r['workload'] == workload)}"
            f"/{sum(r['attempted'] for r in recs if r['workload'] == workload)}"
            for side, recs in (("A", a_records), ("B", b_records))
        ]
        state = f"differ for seeds {differ}" if differ else "identical"
        lines.append(
            f"{workload:<13} outputs {state} over {len(seeds)} shared seed(s); "
            f"failed ops {failed[0]}, {failed[1]}"
        )
        bad |= bool(differ)
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path, help="records of the parent / first set")
    parser.add_argument("b", type=pathlib.Path, help="records of the change / second set")
    parser.add_argument("--benchmark", type=pathlib.Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    lines, bad = compare(load(args.a), load(args.b), bench)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
