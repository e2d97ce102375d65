"""Run one workload of the samvh benchmark and print its result.

    python3 bench/run.py --workload train_sa --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is taken from its `src/`.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run (see bench/README.md). The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Each measurement runs in a fresh `bench/worker.py`
process; this file itself uses only the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train_sa", "train_wide", "pipeline_cli")
# setup_s is the median over this many fresh processes (the measuring
# worker and SETUP_RUNS - 1 that stop after set-up).
SETUP_RUNS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(args, extra: list[str], scratch: str, tag: str, deadline: float) -> dict:
    out = os.path.join(scratch, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out, *extra, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def directions() -> dict[str, str]:
    """metric -> 'lower'/'higher' from BENCHMARK.json, when present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"]
            for m in doc.get("end_to_end", []) + doc.get("per_layer", [])}


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="samvh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "samvh", "__init__.py")):
        print(f"error: no samvh sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(run_worker(args, ["--setup-only"], scratch,
                                         f"setup{i}", deadline)["setup_s"])
        result = run_worker(args, ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace),
                                   "--spans", stem + "-spans.csv"],
                            scratch, "measure", deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics,
                   "ok_rate": {"value": (result["attempted"] - result["failed"])
                               / result["attempted"], "unit": "ratio"}}
        result["record"]["setup_runs_s"] = setups
    record = {**result["record"], "git_commit": git_commit(),
              "errors": result["errors"]}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": line}, fh, indent=1)

    better = directions()
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']:10s} "
              f"{better.get(name, '')}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
