"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 [--seed 100] [--out A.json] [--compare B.json]

Runs run.py once per seed and workload, interleaving the workloads
(A B C A B C ...), so that slow stretches of the host fall on every
workload alike.  For each workload and end-to-end metric it prints the
median and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  The benchmark is
steady when every spread except setup_s stays below a third of the
metric's bound.  Each run's line also shows its median raw wall time,
host speed and host.calib_s, and how long it took.  With --compare, it also prints how far each median moved
from an earlier --out file, as a share of the earlier median.
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


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=100, help="first seed")
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--out", help="write every run's metrics here")
    p.add_argument("--compare", help="an earlier --out file")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    bad = 0
    for i in range(args.runs):
        for w in workloads:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(args.seed + i),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            if proc.returncode:
                bad += 1
                print(f"run {w} seed {args.seed + i}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
                continue
            detail, res = map(json.loads, proc.stdout.strip().splitlines()[-2:])
            its = detail["perfbench"]["iterations"]
            calib = statistics.median(it["calib_s"] for it in its)
            speed = statistics.median(it["host_speed"] for it in its)
            raw = statistics.median(it["wall_raw_s"] for it in its)
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"{w} seed {args.seed + i}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.4f}" for m in bounds)
                + f", raw wall_s={raw:.3f}, speed={speed:.3f}"
                f", calib_s={calib:.3f}, run {time.monotonic() - t0:.0f} s",
                flush=True)

    before = None
    if args.compare:
        with open(args.compare, encoding="ascii") as fh:
            before = json.load(fh)
    print(f"{'workload':16} {'metric':13} {'median':>10} {'spread':>7} "
          f"{'bound/3':>7}" + ("  moved" if before else ""))
    for w in workloads:
        for m, bound in bounds.items():
            vals = values[w][m]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line = (f"{w:16} {m:13} {med:10.4f} {(q3 - q1) / med:7.3f} "
                    f"{bound / 3:7.3f}")
            if before:
                old = statistics.median(before[w][m])
                line += f"  {(med - old) / old:+.3f}"
            print(line)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(values, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
