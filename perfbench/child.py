"""One workload iteration in a fresh process; prints one JSON line.

Started by run.py, one child at a time.  The child imports degseq from
the checkout's ``src`` (set-up), prepares its inputs untimed, calls
``degseq.cli.main`` in-process for every request of the workload, checks
each output against the pinned values in expected.json, and reports
wall time, peak RSS, CPU time and the check tally.  With ``--trace 1`` it
also installs the tracer and reports the per-layer metrics.
``--workload none`` only measures set-up.

setup_s runs from the moment the parent started the child (passed as a
CLOCK_MONOTONIC reading in PERFBENCH_T0) until ``import degseq`` is done;
wall_s from the first call to the last checked result.  Both are
rescaled to the reference host speed by a HostProbe (hostprobe.py):
wall_s by the speed sampled throughout it, setup_s (too short to sample
inside) by the speed of a few samples taken right after it.  The raw
seconds are reported as setup_raw_s and wall_raw_s, and the mean speed
over wall_s as host_speed.
"""

from __future__ import annotations

import os
import sys
import time

from hostprobe import HostProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The value the README gives for d(30); the pins must agree with it.
README_D30 = 5876236938019298

# Problem size of each workload, full and smoke (for the self-test).
SIZES = {
    "series_d30": {"full": 30, "smoke": 12},
    "quantities_n28": {"full": 28, "smoke": 10},
    "verify_12": {"full": 12, "smoke": 8},
}

# Probe samples taken right after set-up, whose mean speed rescales it.
SETUP_MARKS = 5

QUANTITIES = ("d", "d0", "h", "l", "dc", "dd", "s", "b", "c", "d2", "db")
FAMILIES = ("G", "L", "H")

# Wrapped entry points each workload must reach when traced.
_EVERY = {"cli.main", "partition_table.build", "kernels.fill_layer", "g_prime"}
REACHED = {
    "series_d30": _EVERY
    | {
        "cli.store_save",
        "degree_counts.extend_series",
        "degree_counts.count_d_improved",
        "degree_counts.count_d0",
    },
    "quantities_n28": _EVERY
    | {
        "cli.store_load",
        "partition_table.bounded_build",
        "degree_counts.count_d0",
        "degree_counts.count_h",
        "degree_counts.count_l",
        "degree_counts.profile",
        "connectivity_counts.count_dc_indirect",
        "connectivity_counts.count_dd",
        "connectivity_counts.count_s",
        "connectivity_counts.count_b",
        "connectivity_counts.count_db",
        "connectivity_counts.count_d2_minus_b",
    },
    "verify_12": _EVERY
    | {
        "partition_table.bounded_build",
        "degree_counts.extend_series",
        "degree_counts.count_d_basic",
        "degree_counts.count_d_improved",
        "degree_counts.count_d0",
        "degree_counts.count_h",
        "degree_counts.count_l",
        "degree_counts.profile",
        "degree_counts.count_by_largest",
        "connectivity_counts.count_dc_direct",
        "connectivity_counts.count_dc_indirect",
        "connectivity_counts.count_dd",
        "connectivity_counts.count_s",
        "connectivity_counts.count_b",
        "connectivity_counts.count_db",
        "oracle.oracle_counts",
        "is_graphical_eg",
    },
}


class Checks:
    """Tally of checked operations; every mismatch is kept as a message."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.errors.append(f"{what}: got {got!r}, want {want!r}")


def profile_digest(pairs) -> str:
    """sha256 over ``N count`` lines of a profile, ascending N."""
    import hashlib

    text = "".join(f"{N} {c}\n" for N, c in sorted(pairs))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _call(argv):
    """Run ``degseq.cli.main`` in-process; return (exit code, stdout)."""
    import contextlib
    import io

    import degseq.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = degseq.cli.main(argv)
    return rc, buf.getvalue()


def _read_bfile(path) -> dict:
    with open(path, encoding="ascii") as fh:
        return {int(a): int(b) for a, b in (line.split() for line in fh)}


def run_series(n_max, pins, workdir, checks):
    cache = os.path.join(workdir, "dseries.txt")
    rc, out = _call(
        ["series", "--quantity", "d", "--range", f"2..{n_max}", "--cache", cache]
    )
    checks.expect("series exit code", rc, 0)
    got = dict(line.split() for line in out.splitlines() if line.strip())
    for n in range(2, n_max + 1):
        checks.expect(f"series d({n})", got.get(str(n)), str(pins["d"][str(n)]))
    if n_max >= 30:
        checks.expect("series d(30) vs README", got.get("30"), str(README_D30))
    want = {n: pins["d"][str(n)] for n in range(1, n_max + 1)}
    saved = _read_bfile(cache) if os.path.exists(cache) else None
    checks.expect("saved cache d(1..n)", saved, want)


def prepare_quantities(n, pins, workdir):
    """Write a warm cache of d(1..n+2) with the package's own writer."""
    from degseq import DnSeries, write_series_file

    cache = os.path.join(workdir, "dseries.txt")
    write_series_file(
        cache, DnSeries(pins["d"][str(i)] for i in range(1, n + 3))
    )
    with open(cache, "rb") as fh:
        return cache, fh.read()


def run_quantities(n, seed, pins, cache, checks):
    import random

    want = pins["quantities"][str(n)]
    requests = [("count", q) for q in QUANTITIES] + [("profile", f) for f in FAMILIES]
    random.Random(seed).shuffle(requests)
    got = {}
    for kind, what in requests:
        if kind == "count":
            rc, out = _call(
                ["count", "--quantity", what, "--n", str(n),
                 "--cache", cache, "--format", "csv"]
            )
            rows = [line.split(",") for line in out.splitlines()[1:] if line]
            value = int(rows[0][2]) if len(rows) == 1 else None
            checks.expect(f"count {what} exit code", rc, 0)
            checks.expect(f"{what}({n})", value, want[what])
            got[what] = value
        else:
            rc, out = _call(
                ["profile", "--n", str(n), "--family", what, "--format", "csv"]
            )
            pairs = [
                tuple(map(int, line.split(",")))
                for line in out.splitlines()[1:]
                if line
            ]
            total = sum(c for _, c in pairs)
            checks.expect(f"profile {what} exit code", rc, 0)
            checks.expect(f"profile {what} total", total, want[f"profile_{what}"])
            checks.expect(
                f"profile {what} entries",
                profile_digest(pairs),
                want[f"profile_{what}_sha256"],
            )
            got[f"profile_{what}"] = total
    identities = {
        "d = h + l": lambda g: g["d"] == g["h"] + g["l"],
        "dc + dd = d": lambda g: g["dc"] + g["dd"] == g["d"],
        "c = b + s": lambda g: g["c"] == g["b"] + g["s"],
        "d2 = d - c": lambda g: g["d2"] == g["d"] - g["c"],
        "G total = d": lambda g: g["profile_G"] == g["d"],
        "L total = l": lambda g: g["profile_L"] == g["l"],
        "H total = h": lambda g: g["profile_H"] == g["h"],
    }
    for name, holds in identities.items():
        try:
            ok = holds(got)
        except TypeError:  # a count that printed no value
            ok = False
        checks.expect(name, ok, True)


def run_verify(max_n, checks):
    rc, out = _call(["verify", "--max-n", str(max_n)])
    checks.expect("verify exit code", rc, 0)
    line = f"verification passed for n = 2..{max_n}"
    checks.expect("verify passed line", line in out.splitlines(), True)


def main() -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("none", *SIZES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--expected", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out")
    args = p.parse_args()

    t0 = float(os.environ["PERFBENCH_T0"])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import degseq
    import degseq.cli  # noqa: F401

    setup_raw_s = time.monotonic() - t0
    src = os.path.join(ROOT, "src", "degseq")
    if os.path.dirname(os.path.abspath(degseq.__file__)) != src:
        raise SystemExit(f"imported degseq from {degseq.__file__}, not {src}")
    probe = HostProbe()
    first = probe.start()
    for _ in range(SETUP_MARKS - 1):
        last = probe.mark()
    setup = {
        "setup_s": setup_raw_s * probe.speed(first, last),
        "setup_raw_s": setup_raw_s,
    }
    try:
        return run(args, probe, setup)
    finally:
        probe.stop()


def run(args, probe, setup) -> int:
    import json
    import platform
    import resource

    import numpy

    result = {
        **setup,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.workload == "none":
        print(json.dumps(result))
        return 0

    with open(args.expected, encoding="ascii") as fh:
        pins = json.load(fh)
    size = SIZES[args.workload][args.size]
    checks = Checks()
    if args.workload == "quantities_n28":
        cache, cache_bytes = prepare_quantities(size, pins, args.workdir)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}")
        tracer.install()

    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cpu0 = time.process_time()
    first = probe.mark()
    start = time.perf_counter()
    if args.workload == "series_d30":
        run_series(size, pins, args.workdir, checks)
    elif args.workload == "quantities_n28":
        run_quantities(size, args.seed, pins, cache, checks)
        with open(cache, "rb") as fh:
            checks.expect("cache left unchanged", fh.read() == cache_bytes, True)
    else:
        run_verify(size, checks)
    wall_raw_s = time.perf_counter() - start
    last = probe.mark()
    cpu_s = time.process_time() - cpu0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update(
        wall_s=probe.rescale(wall_raw_s, first, last),
        wall_raw_s=wall_raw_s,
        host_speed=probe.speed(first, last),
        cpu_s=cpu_s,
        peak_rss_mib=rss1 / 1024,
        attempted=checks.attempted,
        failed=len(checks.errors),
        errors=checks.errors[:20],
    )
    if tracer is not None:
        from tracer import layer_metrics

        tracer.finish()
        missed = sorted(REACHED[args.workload] - set(tracer.calls))
        if missed:
            raise SystemExit(
                f"tracer recorded no call of {', '.join(missed)}; "
                "a wrapper missed an import binding or an entry point moved"
            )
        layers = layer_metrics(tracer, wall_raw_s, (rss1 - rss0) * 1024)
        layers["proc.cpu_s"] = cpu_s
        if layers["trace.self_share"] < 0.9:
            raise SystemExit(
                f"layer self times cover only {layers['trace.self_share']:.1%} "
                "of the traced wall time"
            )
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
