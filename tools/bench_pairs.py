"""Alternating parent/change pairs of the benchmark on one workload.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload train_sa \\
        --seeds 101 102 103 --out BENCH_example.json

The parent commit is unpacked with `git archive` into a temporary directory;
the change is this checkout, as it stands. Pair i (from 1) runs
`bench/run.py` once on each side at the i-th seed, for BENCHMARK.json's
`run_seconds` unless `--seconds` says otherwise, the parent first on odd
pairs and the change first on even ones. The output file
gets one entry, `<workload> trace<t>`, holding every run (its result line and
its record, with per-operation samples cut by `compact`) and, per metric,
each side's values, medians and parent quartiles
(`statistics.quantiles(..., n=4)`), and, for a metric with a direction in
BENCHMARK.json, the pairs the change won, lost and tied and whether the gain
rule holds: at least 10 pairs, the change winning at least 9 in 10 of them,
and medians further apart, in the better direction, than the parent's
quartiles. Other entries of an existing
output file are kept.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import runpy
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def schedule(seeds: list[int]) -> list[tuple[int, int, tuple[str, str]]]:
    """(pair, seed, sides in running order), one pair per seed."""
    return [(i, seed, ("parent", "change") if i % 2 else ("change", "parent"))
            for i, seed in enumerate(seeds, 1)]


def summarize(parent: list[float], change: list[float], better: str | None) -> dict:
    """Medians, parent quartiles and, given 'lower' or 'higher', the pairs
    won, lost and tied by the change and whether the gain rule holds; it
    never holds on fewer than 10 pairs."""
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    out = {"parent": parent, "change": change,
           "median_parent": statistics.median(parent),
           "median_change": statistics.median(change),
           "parent_quartiles": [q1, q3]}
    if better in ("lower", "higher"):
        sign = 1 if better == "higher" else -1
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        wins = sum(g > 0 for g in gains)
        out.update(better=better, wins=wins, losses=sum(g < 0 for g in gains),
                   ties=sum(g == 0 for g in gains),
                   gain_rule_met=(len(gains) >= 10 and wins >= 0.9 * len(gains)
                                  and sign * (out["median_change"] - out["median_parent"])
                                  > q3 - q1))
    return out


def compact(value):
    """value with each list of more than 10 samples cut, at any depth: a list
    of numbers to its median and count, a list of number lists to its count."""
    def numbers(v):
        return all(isinstance(x, (int, float)) for x in v)

    if isinstance(value, dict):
        return {k: compact(v) for k, v in value.items()}
    if isinstance(value, list) and len(value) > 10:
        if numbers(value):
            return {"median": statistics.median(value), "count": len(value)}
        if all(isinstance(v, list) and numbers(v) for v in value):
            return {"count": len(value)}
    return value


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(commit: str, dest: str) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.monotonic() - start
    with open(os.path.join(root, ".bench_out",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)["record"]
    return {"seed": seed, "wall_s": round(wall, 3),
            "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "record": compact(record)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        unpack(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair, seed, order in schedule(args.seeds):
            for side in order:
                run = run_bench(roots[side], args.workload, seed, args.seconds, args.trace)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} seed {seed} {side}: {run['wall_s']:.1f} s, "
                      f"failed {run['result']['failed']}/{run['result']['attempted']}",
                      file=sys.stderr, flush=True)

    better = runpy.run_path(os.path.join(ROOT, "bench", "run.py"))["directions"]()
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in ("parent", "change")}
    names = [n for n in by_side["parent"][0]["result"]["metrics"]
             if all(n in r["result"]["metrics"] for r in runs)]
    metrics = {n: summarize(*([r["result"]["metrics"][n]["value"] for r in by_side[side]]
                              for side in ("parent", "change")), better.get(n))
               for n in names}
    entry = {"command": f"python3 bench/run.py --workload {args.workload} --seed <seed> "
                        f"--seconds {args.seconds:g} --trace {args.trace}",
             "parent_commit": git("rev-parse", args.parent),
             "change_commit": git("rev-parse", "HEAD"),
             # Edits outside src/ and bench/ do not change what was measured.
             "src_or_bench_dirty": bool(git("status", "--porcelain", "--", "src",
                                            "bench")),
             "method": "parent first on odd pairs, change first on even pairs",
             "metrics": metrics, "runs": runs}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[f"{args.workload} trace{args.trace}"] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, m in metrics.items():
        line = f"{name:48s} {m['median_parent']:>12.6g} -> {m['median_change']:>12.6g}"
        if "wins" in m:
            line += f"  {m['wins']}/{len(args.seeds)} wins, gain rule {'met' if m['gain_rule_met'] else 'not met'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
