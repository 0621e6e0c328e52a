"""Run the repository benchmark: one workload, or all four in turn.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Each workload runs in fresh child interpreters started one after another
from this process, which imports nothing from ``repro`` itself:

* ``setup_s`` is the median, over five fresh interpreters, of the time from
  spawn until the workload's inputs are built;
* the last of those interpreters then runs the timed passes for
  ``--seconds`` and checks every output;
* with ``--trace 1`` it runs the same passes again with the per-layer spans
  of ``layers.py`` installed, and reports per-layer metrics instead.

The report goes to standard output: a table of every metric with its unit
and sample count, the checked outputs and the host facts, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out`` appends the full record as one JSON line, which is
what ``compare.py`` reads.  The exit code is 0 when a result was printed,
2 when the source tree is missing, 3 when a workload was skipped.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import select
import shutil
import statistics
import subprocess
import sys
import time

import measure
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout: trace cache and per-run stores.
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 3
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
#: Wall-clock budget of one workload's children; past it they are killed
#: and the run fails.
BUDGET_S = 170.0
MESSAGE = b"@@perf "


# ------------------------------------------------------------------ child


def _emit(kind: str, payload=None) -> None:
    sys.stdout.write(f"{MESSAGE.decode()}{kind} {json.dumps(payload)}\n")
    sys.stdout.flush()


def child_main(args) -> int:
    if args.child == "imports":
        t0 = time.perf_counter()
        import repro  # noqa: F401

        _emit("import_ms", (time.perf_counter() - t0) * 1e3)
        return 0
    if args.child == "prepare":
        workloads.prepare_traces(args.seed, args.cache_dir)
        return 0
    jobs = measure.usable_cores()
    workload = workloads.make(args.workload, args.seed, args.workdir, jobs, args.cache_dir)
    workload.setup()
    _emit("ready")
    if args.child == "run":
        _emit("result", measure.measure(workload, args.seconds, bool(args.trace), jobs))
    return 0


# ----------------------------------------------------------------- parent


class Child:
    """One fresh interpreter speaking the ``@@perf`` line protocol."""

    def __init__(self, mode: str, args, live: list) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, str(HERE / "run.py"), "--child", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(args.workdir), "--cache-dir", str(args.cache_dir),
        ]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        live.append(self.proc)
        self._buffer = b""

    def expect(self, kind: str, deadline: float):
        """Wait for the next message; lines the program prints itself go to
        stderr, so that standard output stays the report."""
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                if line.startswith(MESSAGE):
                    got, _, payload = line[len(MESSAGE):].decode().partition(" ")
                    if got != kind:
                        raise RuntimeError(f"expected {kind!r} from child, got {got!r}")
                    return json.loads(payload)
                sys.stderr.write(line.decode(errors="replace") + "\n")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"child gave no {kind!r} within the budget")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    code = self.proc.wait()
                    raise RuntimeError(f"child exited with code {code} before {kind!r}")
                self._buffer += chunk

    def finish(self, deadline: float) -> None:
        code = self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        if code != 0:
            raise RuntimeError(f"child exited with code {code}")


def source_digest() -> str:
    """Key of the trace cache: traces are regenerated when the source changes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def skip_reason(name: str) -> str | None:
    """Why this host cannot run the workload, if it cannot."""
    if importlib.util.find_spec("resource") is None:
        return "no resource module, so peak RSS cannot be measured"
    if name == "chaos" and measure.usable_cores() > 1:
        try:
            import multiprocessing.synchronize  # noqa: F401
        except ImportError as exc:
            return f"no process-shared semaphores ({exc}), so the campaign pool cannot start"
    return None


def run_workload(args) -> dict:
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    reason = skip_reason(args.workload)
    if reason is not None:
        return {**record, "status": "skipped", "reason": reason}
    deadline = time.monotonic() + BUDGET_S
    args.workdir = STATE / f"run-{os.getpid()}-{args.workload}"
    args.cache_dir = STATE / "traces" / f"{source_digest()}-seed{args.seed}"
    live: list[subprocess.Popen] = []
    try:
        if args.workload.startswith("fit-"):
            Child("prepare", args, live).finish(deadline)
        import_ms = []
        if args.trace:
            for _ in range(IMPORT_SAMPLES):
                child = Child("imports", args, live)
                import_ms.append(child.expect("import_ms", deadline))
                child.finish(deadline)
        setup_s = []
        samples = 1 if args.trace else SETUP_SAMPLES
        for i in range(samples):
            started = time.perf_counter()
            child = Child("run" if i == samples - 1 else "setup", args, live)
            child.expect("ready", deadline)
            setup_s.append(time.perf_counter() - started)
            if i < samples - 1:
                child.finish(deadline)
        result = child.expect("result", deadline)
        child.finish(deadline)
    finally:
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        shutil.rmtree(args.workdir, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_ms"] = measure.metric(
            statistics.median(import_ms), "ms", len(import_ms)
        )
        order = measure.PER_LAYER
    else:
        metrics["setup_s"] = measure.metric(statistics.median(setup_s), "s", len(setup_s))
        order = measure.END_TO_END
    return {
        **record,
        "status": "ok",
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in order},
        "outputs": result["outputs"],
        "problems": result["problems"],
        "host": result["host"],
    }


def render(record: dict) -> str:
    trace = "traced" if record["trace"] else "untraced"
    head = f"== {record['workload']}  seed {record['seed']}  {record['seconds']:g} s  {trace} =="
    if record["status"] == "skipped":
        return f"{head}\n  skipped: {record['reason']}"
    lines = [head]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<8} n={m['n']}")
    outputs = "  ".join(f"{k}={v}" for k, v in record["outputs"].items())
    lines.append(f"  outputs: {outputs}")
    lines.append(
        f"  checked: {record['attempted']} attempted, {record['failed']} failed"
    )
    lines += [f"  problem: {p}" for p in record["problems"]]
    lines.append(f"  host: {json.dumps(record['host'], sort_keys=True)}")
    return "\n".join(lines)


def contract(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--child", choices=("imports", "prepare", "setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    records = []
    for name in names:
        args.workload = name
        record = run_workload(args)
        records.append(record)
        print(render(record), flush=True)
        if args.out is not None:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    skipped = any(r["status"] == "skipped" for r in records)
    if len(records) > 1:
        print(json.dumps({
            r["workload"]: {"skipped": r["reason"]} if r["status"] == "skipped" else contract(r)
            for r in records
        }))
    elif not skipped:
        print(json.dumps(contract(records[0])))
    return 3 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
