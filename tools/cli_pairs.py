"""Large-n command-line timings of two trees, in alternating pairs.

    python3 tools/cli_pairs.py A B [--pairs 3] [--command "count --quantity s --n 40" ...]

A and B are git revisions of this repository, each exported with
``git archive`` to a fresh directory, or directories holding a tree
(``src/degseq``).  Each command of the list (COMMANDS, or the
``--command`` options in their place) runs --pairs times on each side,
the side that runs first alternating from pair to pair.  Every run is a
fresh child, started with PYTHONDONTWRITEBYTECODE=1 and without
DEGSEQ_CACHE, that imports the side's ``degseq.cli`` and calls its
``main`` under perfbench/hostprobe.py's HostProbe (this tree's copy, so
both sides are rescaled alike).  Per run it records the raw seconds of
``main``, the same seconds rescaled to the reference host speed, the
child's ru_maxrss and the sha256 of what ``main`` printed on stdout.

The result is one JSON object, {"large_n_cli": {...}}, on stdout;
progress goes to stderr.  The exit code is 1 if any command's output
digest or exit code differs between the sides, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
COMMANDS = (
    "series --quantity d --range 2..60",
    "count --quantity s --n 40",
    "count --quantity l --n 60",
    "count --quantity db --range 3..40",
    "profile --n 40 --family G",
    "count --quantity dd --n 1000",
)


def child(src: str, argv: list) -> None:
    """One run: degseq.cli.main(argv) from ``src`` under a HostProbe;
    prints the measurements as one JSON line."""
    import hashlib
    import resource
    from contextlib import redirect_stdout

    sys.path[:0] = [src, PERFBENCH]
    import degseq.cli
    import numpy  # noqa: F401  (HostProbe reads it from sys.modules)
    from hostprobe import HostProbe

    probe, out = HostProbe(), io.StringIO()
    first = probe.start()
    try:
        start = time.perf_counter()
        with redirect_stdout(out):
            code = degseq.cli.main(argv)
        raw_s = time.perf_counter() - start
        last = probe.mark()
    finally:
        probe.stop()
    print(json.dumps({
        "exit": code,
        "raw_s": round(raw_s, 4),
        "seconds": round(probe.rescale(raw_s, first, last), 4),
        "peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }))


def tree(spec: str, scratch: str) -> str:
    """The directory of side ``spec``: itself, or its git archive."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    archive = subprocess.run(["git", "-C", ROOT, "archive", spec],
                             capture_output=True, check=True).stdout
    path = tempfile.mkdtemp(dir=scratch)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(path)
    return path


def run(path: str, command: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DEGSEQ_CACHE"}
    env.update(PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         os.path.join(path, "src"), *shlex.split(command)],
        capture_output=True, text=True, env=env, cwd=path, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare(a: str, b: str, commands: list, pairs: int) -> tuple:
    """The large_n_cli block, and whether every output agreed."""
    sides = ("parent", "change")
    runs = {c: {s: [] for s in sides} for c in commands}
    with tempfile.TemporaryDirectory() as scratch:
        paths = dict(zip(sides, (tree(a, scratch), tree(b, scratch))))
        for i in range(pairs):
            for command in commands:
                for side in sides[:: 1 - 2 * (i % 2)]:
                    runs[command][side].append(r := run(paths[side], command))
                    print(f"pair {i} {side}: degseq {command}: "
                          f"{r['raw_s']} s, {r['peak_rss_mib']} MiB",
                          file=sys.stderr)
    block, same = {}, True
    for command, by_side in runs.items():
        entry = {s: {key: [r[key] for r in by_side[s]]
                     for key in ("raw_s", "seconds", "peak_rss_mib")}
                 for s in sides}
        for s in sides:
            entry[s]["exit"] = sorted({r["exit"] for r in by_side[s]})
            entry[s]["sha256"] = sorted({r["sha256"] for r in by_side[s]})
        entry["output_identical"] = all(
            entry["parent"][key] == entry["change"][key]
            for key in ("exit", "sha256"))
        entry["raw_median_ratio"] = round(
            statistics.median(entry["parent"]["raw_s"])
            / max(statistics.median(entry["change"]["raw_s"]), 1e-9), 3)
        same &= entry["output_identical"]
        block[f"degseq {command}"] = entry
    return {
        "parent": a, "change": b, "pairs": pairs,
        "host": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                f"Python {platform.python_version()}",
        "method": "each command run `pairs` times per side, the first side "
                  "alternating by pair, each run a fresh child calling "
                  "degseq.cli.main under perfbench's HostProbe; raw_s is "
                  "wall seconds of main, seconds the same rescaled to the "
                  "reference host speed, peak_rss_mib the child's ru_maxrss; "
                  "raw_median_ratio is parent over change",
        "runs": block,
    }, same


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3:])
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", metavar="A", help="parent: git revision or directory")
    p.add_argument("b", metavar="B", help="change: git revision or directory")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--command", action="append",
                   help="a degseq command line, in place of the default list")
    args = p.parse_args()
    block, same = compare(args.a, args.b, args.command or list(COMMANDS),
                          args.pairs)
    print(json.dumps({"large_n_cli": block}, indent=1))
    if not same:
        print("output differs between the sides", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
