"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload train_sa --seeds 1 2 3 4 5

Runs bench/run.py once per seed, one after another, and prints for each
metric its median and its spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median,
beside the metric's bound from BENCHMARK.json. The raw result lines and the
per-run records (checkpoint digests, versions) are kept in .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--label", default="spread")
    args = parser.parse_args(argv)

    runs, walls = [], []
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        walls.append(time.monotonic() - start)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(ROOT, ".bench_out",
                               f"{args.workload}-seed{seed}-trace0.json")) as fh:
            record = json.load(fh)["record"]
        runs.append({"seed": seed, "wall_s": walls[-1], "result": line, "record": record})
        print(f"seed {seed}: {walls[-1]:.1f} s, correct={line['correct']}, "
              f"failed={line['failed']}/{line['attempted']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "spread": spread, "bound": bound,
                         "values": values}
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:24s} {med:12.6g} {spread:8.4f} {bound:6.2f}{flag}")
    print(f"wall per run: max {max(walls):.1f} s, median {statistics.median(walls):.1f} s")

    out = os.path.join(ROOT, ".bench_out", f"{args.label}-{args.workload}.json")
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "summary": summary, "runs": runs}, fh,
                  indent=1)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
