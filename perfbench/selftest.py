"""Self-test of the benchmark; finishes in well under a minute.

    python3 perfbench/selftest.py

1. Every workload runs end to end at smoke size (series to 12, quantities
   at n = 10, verify --max-n 8), untraced and traced, with exit code 0, no
   failed check and every declared metric reported.
2. A corrupted pinned value makes the run report failed checks (so
   fail_ratio > 0) and exit nonzero.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("series_d30", "quantities_n28", "verify_12")


def bench(workload, trace, *extra, runner=RUN):
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=os.path.dirname(os.path.dirname(runner)),
        capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(name)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, res = bench(workload, trace)
            want = {m["name"] for m in spec[kind]}
            ok = (
                proc.returncode == 0
                and res is not None
                and res["correct"]
                and res["failed"] == 0
                and set(res["metrics"]) == want
            )
            check(f"smoke {workload} trace={trace}", ok, proc.stderr[-500:] or str(res))

    scratch = os.path.join(ROOT, ".perfbench", f"selftest{os.getpid()}")
    os.makedirs(scratch)
    try:
        with open(os.path.join(HERE, "expected.json"), encoding="ascii") as fh:
            pins = json.load(fh)
        pins["d"]["10"] += 1
        pins["quantities"]["10"]["dd"] += 1
        bad = os.path.join(scratch, "expected.json")
        with open(bad, "w", encoding="ascii") as fh:
            json.dump(pins, fh)
        for workload in ("series_d30", "quantities_n28"):
            proc, res = bench(workload, 0, "--expected", bad)
            ok = (
                proc.returncode != 0
                and res is not None
                and not res["correct"]
                and res["failed"] > 0
            )
            check(f"corrupted pin fails {workload}", ok, str(res))

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc, res = bench(
            "verify_12", 0, runner=os.path.join(bare, "perfbench", "run.py")
        )
        check(
            "no sources: nonzero exit, no result",
            proc.returncode != 0 and res is None,
            f"exit {proc.returncode}",
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
