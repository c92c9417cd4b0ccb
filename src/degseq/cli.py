"""Command-line frontend for the degree-sequence counting package.

Subcommands:

  count    one quantity for one n or a range; rows `n,quantity,value`.
  series   count with b-file output (`n value`); a d series comes from
           one fill, so its lines print once that fill completes.
  verify   compare every quantity, computed as count computes it, and
           five second routes with the brute-force oracle for
           n = 2..max-n; exits 4 on any mismatch.
  profile  per-degree-sum counts of one family (G, L, or H).
  ratio    successive quotients d(n)/d(n-1) as exact decimals.

Each subcommand takes only the flags _COMMANDS lists for it, and
`--memory-cap`, the budget of every table it builds.  verify refuses a
--max-n past the oracle's fixed cap, n = 14, before any work.

Each quantity is served by one route, looked up in the QUANTITIES
table, whose lag says how far the route reads the d series.  d is read
from the d series and dc is d - dd.  count, ratio and verify get the
series once, before any route runs: read from a d series cache
(`--cache`, else the DEGSEQ_CACHE environment variable read when the
request runs; a b-file of exact d(n) values) if there is one, and
extended in one fill, with d(n) = l(n) + d0(n-1), to the furthest
value the request reads.  The cache only decides whether the series
persists between runs; without one it lives in memory for the request.
The cache is written back only when the request extended the series,
also when that fill fails or is interrupted, so an interrupted run
keeps every value computed.  A request that must extend a cache whose
directory is missing or not writable is refused before the fill.  A
route that reads no series (l, dd, s) does not open the cache.

Exit codes: 0 success; 1 a bad request, refused with a ValueError or
an OSError (including verify past the oracle cap and a cache that fails
its checks on reading or cannot be written); 2 memory budget refused;
4 verification mismatch.  Code 3 is not used.
"""

from __future__ import annotations

import argparse
import os
import sys

from .connectivity_counts import (
    count_b,
    count_d2_minus_b,
    count_db,
    count_dc_direct,
    count_dc_indirect,
    count_dd,
    count_s,
)
from .degree_counts import (
    FAMILIES,
    DnSeries,
    count_by_largest,
    count_d0,
    count_d_basic,
    count_h,
    count_l,
    extend_series,
    profile,
    read_series_file,
    write_series_file,
)
from .errors import MemoryBudgetError
from .partition_table import memory_budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MEMORY = 2
EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _parse_range(text: str) -> range:
    """The n values of an `A..B` argument, A <= B."""
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"range must look like A..B, got {text!r}"
        )
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range endpoints must be integers, got {text!r}"
        )
    if b < a:
        raise argparse.ArgumentTypeError(
            f"range must be ascending, got {text!r}"
        )
    return range(a, b + 1)


def _positive_int(text: str) -> int:
    """The value of an integer argument that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _series(path: str | None, top: int) -> DnSeries:
    """The d series through d(top): the cache at ``path`` if it exists,
    extended in one fill if it falls short.

    The cache is written back only if the series grew, and then also
    when the fill stops early, so an interrupted run keeps every value
    computed.  A cache that could not be written back is refused before
    the fill.  With no ``path`` the series lives in memory only.
    """
    if path and os.path.exists(path):
        series = read_series_file(path)
    else:
        series = DnSeries()
    held = series.n_max
    if path and held < top and not os.access(
            os.path.dirname(path) or ".", os.W_OK | os.X_OK):
        raise ValueError(f"cache {path} cannot be written: its directory "
                         "is missing or not writable")
    try:
        if held < top:
            extend_series(series, top)
    finally:
        if path and series.n_max > held:
            write_series_file(path, series)
    return series


# quantity -> (smallest n, lag, compute(n, d)), where d is the d series
# and compute(n, d) reads it no further than d(n - lag); a lag of None
# means it reads no series.  Every entry calls its counters through
# this module's globals at call time, so a counter rebound here (say,
# by a tracer) is the one that runs.
QUANTITIES = {
    "d": (2, 0, lambda n, d: d[n]),
    "d0": (1, 0, lambda n, d: count_d0(n, d)),
    "h": (2, 1, lambda n, d: count_h(n, d)),
    "l": (2, None, lambda n, d: count_l(n)),
    "dc": (2, 0, lambda n, d: count_dc_indirect(n, d[n])),
    "dd": (2, None, lambda n, d: count_dd(n)),
    "s": (3, None, lambda n, d: count_s(n)),
    "b": (3, 2, lambda n, d: count_b(n, d)),
    "c": (3, 2, lambda n, d: count_b(n, d) + count_s(n)),
    "d2": (3, 0, lambda n, d: d[n] - count_b(n, d) - count_s(n)),
    "db": (3, 0, lambda n, d: count_db(n, d, d[n]).db),
}

# Routes verify checks besides QUANTITIES, each the second way to a
# number the package serves and none reading the d series: name ->
# (CountReport field, smallest n, compute(n, d)).
_SECOND_ROUTES = {
    "d_basic": ("d", 2, lambda n, d: count_d_basic(n)),
    "dc_direct": ("dc", 2, lambda n, d: count_dc_direct(n)),
    "d2_minus_b": ("d2_minus_b", 3, lambda n, d: count_d2_minus_b(n)),
    "profile_g": ("profile_g", 2, lambda n, d: profile(n, "G")),
    "by_largest": ("by_largest", 2, lambda n, d: count_by_largest(n)),
}


def _emit(rows, header, fmt) -> None:
    """Print rows (tuples of strings) as b-file lines, CSV or a table.

    b-file lines (first and last column) and CSV lines are printed as
    the rows arrive; the aligned table needs every row first.
    """
    if fmt == "bfile":
        for row in rows:
            print(f"{row[0]} {row[-1]}")
        return
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
        return
    rows = list(rows)
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _cmd_count(args) -> int:
    n_values = (args.n,) if args.range is None else args.range
    lo, lag, compute = QUANTITIES[args.quantity]
    if n_values[0] < lo:
        raise ValueError(
            f"quantity {args.quantity!r} is defined for n >= {lo}, "
            f"got n = {n_values[0]}"
        )
    series = None
    if lag is not None:
        series = _series(args.cache, n_values[-1] - lag)
    rows = (
        (str(n), args.quantity, str(compute(n, series)))
        for n in n_values
    )
    _emit(rows, ("n", "quantity", "value"), args.format)
    return EXIT_OK


def _cmd_profile(args) -> int:
    prof = profile(args.n, args.family)
    rows = [(str(N), str(c)) for N, c in sorted(prof.entries.items())]
    _emit(rows, ("N", "count"), args.format)
    return EXIT_OK


def _ratio_decimal(num: int, den: int, places: int = 6) -> str:
    """Exact decimal expansion of num/den, truncated to ``places`` digits."""
    whole, rem = divmod(num, den)
    digits = []
    for _ in range(places):
        rem *= 10
        digit, rem = divmod(rem, den)
        digits.append(str(digit))
    return f"{whole}." + "".join(digits)


def _cmd_ratio(args) -> int:
    if args.range[0] < 3:
        raise ValueError("ratio needs n >= 3 (d(n-1) must be nonzero)")
    series = _series(args.cache, args.range[-1])
    rows = [
        (str(n), _ratio_decimal(series[n], series[n - 1]))
        for n in args.range
    ]
    _emit(rows, ("n", "ratio"), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # Only verify runs the oracle, so only verify imports it.
    from .oracle import ORACLE_CAP, oracle_counts

    if args.max_n > ORACLE_CAP:
        raise ValueError(
            f"verify reaches n={args.max_n} but the oracle cap is {ORACLE_CAP}"
        )
    if args.max_n < 2:
        raise ValueError("verify needs --max-n >= 2")
    routes = {
        q: (q, lo, compute) for q, (lo, _, compute) in QUANTITIES.items()
    }
    routes.update(_SECOND_ROUTES)
    series = _series(None, args.max_n)
    mismatches = {}
    for n in range(2, args.max_n + 1):
        rep = oracle_counts(n)
        for name, (field, lo, compute) in routes.items():
            if n < lo:
                continue
            got = compute(n, series)
            want = getattr(rep, field)
            if got != want:
                mismatches[name] = mismatches.get(name, 0) + 1
                print(f"FAIL {name} n={n}: computed {got}, oracle {want}")
    for name, (_, lo, _) in routes.items():
        if lo <= args.max_n and name not in mismatches:
            print(f"PASS {name} (n up to {args.max_n})")
    if mismatches:
        total = sum(mismatches.values())
        print(f"verification FAILED: {total} mismatch(es)")
        return EXIT_MISMATCH
    print(f"verification passed for n = 2..{args.max_n}")
    return EXIT_OK


# flag -> the argparse keywords of every subcommand that takes it.
_FLAGS = {
    "--memory-cap": dict(type=_positive_int, metavar="BYTES", help=(
        "refuse table builds estimated above this many bytes")),
    "--quantity": dict(choices=QUANTITIES, required=True),
    "--n": dict(type=int, required=True),
    "--range": dict(type=_parse_range, metavar="A..B", required=True),
    "--max-n": dict(type=int, required=True),
    "--family": dict(choices=FAMILIES, required=True),
    "--cache": dict(help="path to the d-series b-file cache "
                    "(default: $DEGSEQ_CACHE)"),
    "--format": dict(choices=("table", "csv", "bfile"), default="table"),
}

# subcommand -> (handler, help, flags, defaults).  Every subcommand
# also takes --memory-cap, first; a tuple of flags is a required
# group of which exactly one is given.
_COMMANDS = {
    "count": (_cmd_count, "compute one quantity",
              ("--quantity", ("--n", "--range"), "--cache", "--format"), {}),
    "series": (_cmd_count, "emit a quantity over a range as b-file lines",
               ("--quantity", "--range", "--cache"),
               {"n": None, "format": "bfile"}),
    "verify": (_cmd_verify, "cross-check every route against the oracle",
               ("--max-n",), {}),
    "profile": (_cmd_profile, "per-degree-sum counts of one family",
                ("--n", "--family", "--format"), {}),
    "ratio": (_cmd_ratio, "successive quotients d(n)/d(n-1), exact decimals",
              ("--range", "--cache", "--format"), {}),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="degseq",
        description="Exact counts of degree sequences of simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, **defaults)
        for flag in ("--memory-cap", *flags):
            if isinstance(flag, str):
                p.add_argument(flag, **_FLAGS[flag])
                continue
            group = p.add_mutually_exclusive_group(required=True)
            for one in flag:
                group.add_argument(one, **{**_FLAGS[one], "required": False})
    return parser


# Errors reported as one line on stderr, with the exit code of each.
_EXIT_CODES = {
    OSError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    MemoryBudgetError: EXIT_MEMORY,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "--cache" in _COMMANDS[args.command][2] and args.cache is None:
            args.cache = os.environ.get("DEGSEQ_CACHE")
        with memory_budget(args.memory_cap):
            return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"degseq: error: {exc}", file=sys.stderr)
        return next(
            code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)
        )


if __name__ == "__main__":
    sys.exit(main())
