"""The degseq benchmark: one workload for --seconds, checked, as JSON.

    python3 perfbench/run.py --workload series_d30 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  series_d30      `degseq series --quantity d --range 2..30` with a cache
                  path that does not exist yet: cold, fill-bound, and the
                  cache's write path.
  quantities_n28  `count --quantity q --n 28` for all 11 quantities and
                  `profile --n 28 --family G|L|H`, 14 calls of cli.main in
                  one child, in an order permuted by the seed, against a
                  fresh warm cache of d(1..30) that is only read.
  verify_12       `degseq verify --max-n 12`: oracle-bound.

run.py is a closed loop with one client: it starts one fresh child
process (child.py) at a time, each running one iteration of the workload,
until --seconds have passed, then reports medians over the iterations.
Children get OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1.  Before each
iteration a fixed pure-Python loop is timed (host.calib_s) and the load
average read, so that a slow run on a slow host can be told apart.

Every output is checked against expected.json (regenerate with pin.py);
a mismatch counts as a failed operation and makes the exit code 1.  With
--trace 0 the metrics are the end-to-end ones: wall_s (first call to
last checked result), setup_s (child start until `import degseq` is done,
median over the iterations and a few import-only children) and
peak_rss_mib (the child's ru_maxrss).  wall_s and setup_s are seconds at
the reference host speed: the host's speed drifts by up to 3x within
minutes, so each child samples it throughout with a probe loop on a
timer and rescales its times (hostprobe.py).  The raw seconds are in the
JSON detail line and, with --trace 1, in proc.wall_raw_s and
proc.setup_raw_s, next to host.speed (mean speed as a multiple of the
reference).  With --trace 1 untraced and traced iterations alternate;
the metrics are the per-layer ones from tracer.py, medians over the
traced iterations, plus trace.overhead_ratio (traced over untraced
median raw wall time).  A JSON line with every iteration and the
environment precedes the result, which is the last line.

Without the package's sources next to this directory run.py exits 2
before running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("series_d30", "quantities_n28", "verify_12")

SETUP_CHILDREN = 5  # import-only children per run, for the setup_s median
RUN_LIMIT_S = 170.0  # a run never starts an iteration it cannot finish by then
CALIB_LOOPS = 2_000_000


def calib_s() -> float:
    """Seconds for a fixed pure-Python loop: a reading of host speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    mem_total = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "mem_total": mem_total,
        "seed": seed,
    }


class Child:
    """Starts child.py processes, one at a time, and collects their results."""

    def __init__(self, args, workdir: str, deadline: float):
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(
            os.environ,
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
        )
        self.count = 0

    def run(self, workload: str, seed: int = 0, traced: bool = False) -> dict:
        self.count += 1
        workdir = os.path.join(self.workdir, f"child{self.count}")
        os.makedirs(workdir)
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(int(traced)),
            "--size", self.args.size,
            "--expected", self.args.expected,
            "--workdir", workdir,
        ]
        if traced:
            trace_dir = os.path.join(ROOT, ".perfbench", "trace")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                trace_dir, f"{workload}-seed{self.args.seed}-{self.count}.jsonl"
            )]
        load = os.getloadavg()[0]
        self.env["PERFBENCH_T0"] = repr(time.monotonic())
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s"}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}"}
        out = json.loads(lines[-1])
        out["loadavg_1m"] = load
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="degseq benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: small sizes that finish in seconds (self-test)",
    )
    p.add_argument(
        "--expected", default=os.path.join(HERE, "expected.json"),
        help="pinned outputs to check against",
    )
    args = p.parse_args(argv)
    args.expected = os.path.abspath(args.expected)

    if not os.path.isfile(os.path.join(ROOT, "src", "degseq", "__init__.py")):
        print(f"perfbench: no degseq sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    workdir = os.path.join(ROOT, ".perfbench", f"run{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    child = Child(args, workdir, start + RUN_LIMIT_S)
    rng = random.Random(args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed)}
    try:
        child.run("none")  # compiles bytecode so every set-up below is warm
        setups = [child.run("none") for _ in range(SETUP_CHILDREN)]
        iterations = []
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            calib = calib_s()
            it = child.run(args.workload, rng.randrange(2**32), traced)
            it.update(traced=traced, calib_s=calib)
            iterations.append(it)
            elapsed = time.monotonic() - start
            if "error" in it:
                break
            walls = [x["wall_raw_s"] for x in iterations]
            if args.trace and len(iterations) < 2:
                continue
            # Go on only while one more iteration would end the run nearer
            # to --seconds, so a run lasts about --seconds however long an
            # iteration takes.
            if elapsed + statistics.median(walls) / 2 >= args.seconds:
                break
            if elapsed + max(walls) + 5 > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [x for x in iterations if "error" not in x]
    errors = [x["error"] for x in setups + iterations if "error" in x]
    attempted = sum(x["attempted"] for x in done) + len(errors)
    failed = sum(x["failed"] for x in done) + len(errors)
    record.update(
        numpy=next((x.get("numpy") for x in setups if "numpy" in x), None),
        fail_ratio=failed / max(attempted, 1),
        errors=errors + [e for x in done for e in x["errors"]],
        setups=[x.get("setup_s") for x in setups],
        iterations=[
            {k: v for k, v in x.items() if k not in ("layers", "errors")}
            for x in iterations
        ],
    )

    metrics = {}
    untraced = [x for x in done if not x["traced"]]
    traced = [x for x in done if x["traced"]]
    started = [x for x in setups + done if "setup_s" in x]
    if untraced:
        metrics["wall_s"] = statistics.median(x["wall_s"] for x in untraced)
        metrics["peak_rss_mib"] = statistics.median(
            x["peak_rss_mib"] for x in untraced
        )
        metrics["setup_s"] = statistics.median(x["setup_s"] for x in started)
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(x["layers"][name] for x in traced)
        metrics["host.calib_s"] = statistics.median(x["calib_s"] for x in done)
        metrics["host.speed"] = statistics.median(x["host_speed"] for x in done)
        metrics["proc.setup_raw_s"] = statistics.median(
            x["setup_raw_s"] for x in started
        )
        if untraced:
            metrics["proc.wall_raw_s"] = statistics.median(
                x["wall_raw_s"] for x in untraced
            )
            metrics["trace.overhead_ratio"] = statistics.median(
                x["wall_raw_s"] for x in traced
            ) / metrics["proc.wall_raw_s"]
        record["layers"] = [x["layers"] for x in traced]

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not errors:
        record["errors"].append(f"metrics not produced: {', '.join(missing)}")
        attempted += 1
        failed += 1
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
