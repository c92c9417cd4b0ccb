"""Command-line frontend for the degree-sequence counting package.

Subcommands:

  count    one quantity for one n or a range; rows `n,quantity,value`.
  series   a quantity over a range, emitted as OEIS b-file lines.
  verify   cross-check every counting path against the brute-force
           oracle up to a given n; exits 4 on any mismatch.
  profile  per-degree-sum counts of one family (G, L, or H).
  ratio    successive quotients d(n)/d(n-1) as exact decimals.

Each quantity is served by one route, looked up in the QUANTITIES
table.  For d and dc the route follows from whether a d series cache
(`--cache` or the DEGSEQ_CACHE environment variable), a b-file of exact
d(n) values, is configured: with one, d is read from the cache
(extending it as needed) and dc is d - dd; without one, both are summed
directly from the graphical matrix and a warning says so once.
History-based quantities (d0, h, b, c, d2, db) rebuild history in
memory when uncached.  db for n in {3, 4} is answered by the oracle
(the closed-form route needs n >= 5).

Exit codes: 0 success; 1 bad arguments (including oracle-cap
violations); 2 memory budget refused; 4 verification mismatch.  Code 3
is not used.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .connectivity_counts import (
    count_b,
    count_db,
    count_dc_direct,
    count_dc_indirect,
    count_dd,
    count_s,
)
from .degree_counts import (
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
from .errors import MemoryBudgetError, OracleCapError
from .oracle import DEFAULT_ORACLE_CAP, oracle_counts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MEMORY = 2
EXIT_MISMATCH = 4


class _UsageError(Exception):
    """Bad arguments discovered after parsing; maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags and env."""

    command: str
    quantity: str | None = None
    n_values: tuple = ()
    fmt: str = "table"
    cache_path: str | None = None
    memory_cap_bytes: int | None = None
    oracle_cap: int = DEFAULT_ORACLE_CAP
    family: str | None = None
    max_n: int | None = None


def _parse_range(text: str) -> tuple:
    parts = text.split("..")
    if len(parts) != 2:
        raise _UsageError(f"range must look like A..B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"range endpoints must be integers, got {text!r}")
    if b < a:
        raise _UsageError(f"range must be ascending, got {text!r}")
    return a, b


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.cache_path = getattr(args, "cache", None) or os.environ.get(
        "DEGSEQ_CACHE"
    )
    cfg.memory_cap_bytes = getattr(args, "memory_cap", None)
    cap = getattr(args, "oracle_cap", None)
    cfg.oracle_cap = DEFAULT_ORACLE_CAP if cap is None else cap
    cfg.fmt = getattr(args, "format", "table")
    cfg.quantity = getattr(args, "quantity", None)
    cfg.family = getattr(args, "family", None)
    cfg.max_n = getattr(args, "max_n", None)

    if cfg.command in ("count", "series", "profile", "ratio"):
        n = getattr(args, "n", None)
        rng = getattr(args, "range", None)
        if n is not None and rng is not None:
            raise _UsageError("give either --n or --range, not both")
        if n is not None:
            cfg.n_values = (n,)
        elif rng is not None:
            a, b = _parse_range(rng)
            cfg.n_values = tuple(range(a, b + 1))
        else:
            raise _UsageError("one of --n or --range is required")

    if cfg.quantity is not None:
        lo = QUANTITIES[cfg.quantity][0]
        bad = [n for n in cfg.n_values if n < lo]
        if bad:
            raise _UsageError(
                f"quantity {cfg.quantity!r} is defined for n >= {lo}, "
                f"got n = {bad[0]}"
            )
    if cfg.command == "ratio":
        bad = [n for n in cfg.n_values if n < 3]
        if bad:
            raise _UsageError("ratio needs n >= 3 (d(n-1) must be nonzero)")
    return cfg


class _SeriesStore:
    """The d-series cache: loaded once, extended on demand, saved if dirty."""

    def __init__(self, path: str | None):
        self.path = path
        self.dirty = False
        if path and os.path.exists(path):
            self.series = read_series_file(path)
        else:
            self.series = DnSeries()

    def ensure(self, n: int, memory_cap) -> DnSeries:
        if self.series.n_max < max(n, 1):
            extend_series(self.series, max(n, 1), memory_cap=memory_cap)
            self.dirty = True
        return self.series

    def save(self) -> None:
        if self.path and self.dirty:
            write_series_file(self.path, self.series)
            self.dirty = False


def _warn(message: str) -> None:
    print(f"degseq: warning: {message}", file=sys.stderr)


def _d(n, store, cap):
    if store.path:
        return store.ensure(n, cap)[n]
    return count_d_basic(n, memory_cap=cap)


def _dc(n, store, cap):
    if store.path:
        return count_dc_indirect(n, store.ensure(n, cap)[n])
    return count_dc_direct(n, memory_cap=cap)


def _c(n, store, cap):
    return count_b(n, store.ensure(n - 2, cap)) + count_s(n, memory_cap=cap)


def _db(n, store, cap):
    if n < 5:
        return oracle_counts(n).db
    series = store.ensure(n, cap)
    return count_db(n, series, series[n], memory_cap=cap).db


# quantity -> (smallest n, compute(n, store, memory_cap)).  Every entry
# calls its counters through this module's globals at call time, so a
# counter rebound here (say, by a tracer) is the one that runs.
QUANTITIES = {
    "d": (2, _d),
    "d0": (1, lambda n, store, cap: count_d0(n, store.ensure(n, cap))),
    "h": (2, lambda n, store, cap: count_h(n, store.ensure(n - 1, cap))),
    "l": (2, lambda n, store, cap: count_l(n, memory_cap=cap)),
    "dc": (2, _dc),
    "dd": (2, lambda n, store, cap: count_dd(n)),
    "s": (3, lambda n, store, cap: count_s(n, memory_cap=cap)),
    "b": (3, lambda n, store, cap: count_b(n, store.ensure(n - 2, cap))),
    "c": (3, _c),
    "d2": (
        3, lambda n, store, cap: store.ensure(n, cap)[n] - _c(n, store, cap)
    ),
    "db": (3, _db),
}

# The route _d and _dc take when no cache is configured.
_UNCACHED_ROUTE = {"d": "basic", "dc": "direct"}


def _values(cfg: RunConfig, store: _SeriesStore):
    """Yield (n, value) of the configured quantity over cfg.n_values."""
    route = _UNCACHED_ROUTE.get(cfg.quantity)
    if route and not store.path:
        _warn(
            f"no cache configured; using the {route} algorithm "
            f"for {cfg.quantity}"
        )
    compute = QUANTITIES[cfg.quantity][1]
    for n in cfg.n_values:
        yield n, compute(n, store, cfg.memory_cap_bytes)


def _emit(rows, header, fmt) -> None:
    """Print rows as an aligned table or CSV; rows are tuples of strings."""
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
        return
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _cmd_count(cfg: RunConfig) -> int:
    store = _SeriesStore(cfg.cache_path)
    rows = [(str(n), cfg.quantity, str(v)) for n, v in _values(cfg, store)]
    store.save()
    if cfg.fmt == "bfile":
        for n, _, value in rows:
            print(f"{n} {value}")
    else:
        _emit(rows, ("n", "quantity", "value"), cfg.fmt)
    return EXIT_OK


def _cmd_series(cfg: RunConfig) -> int:
    store = _SeriesStore(cfg.cache_path)
    for n, value in _values(cfg, store):
        print(f"{n} {value}")
    store.save()
    return EXIT_OK


def _cmd_profile(cfg: RunConfig) -> int:
    n = cfg.n_values[0]
    prof = profile(n, cfg.family, memory_cap=cfg.memory_cap_bytes)
    items = sorted(prof.entries.items())
    if cfg.fmt == "bfile":
        for N, count in items:
            print(f"{N} {count}")
    else:
        _emit(
            [(str(N), str(c)) for N, c in items], ("N", "count"), cfg.fmt
        )
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


def _cmd_ratio(cfg: RunConfig) -> int:
    store = _SeriesStore(cfg.cache_path)
    series = store.ensure(max(cfg.n_values), cfg.memory_cap_bytes)
    rows = [
        (str(n), _ratio_decimal(series[n], series[n - 1]))
        for n in cfg.n_values
    ]
    store.save()
    if cfg.fmt == "bfile":
        for n, ratio in rows:
            print(f"{n} {ratio}")
    else:
        _emit(rows, ("n", "ratio"), cfg.fmt)
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.max_n > cfg.oracle_cap:
        raise OracleCapError(
            f"verify reaches n={cfg.max_n} but the oracle cap is "
            f"{cfg.oracle_cap}"
        )
    if cfg.max_n < 2:
        raise _UsageError("verify needs --max-n >= 2")
    cap = cfg.memory_cap_bytes
    series = extend_series(DnSeries(), cfg.max_n, memory_cap=cap)
    mismatches = {}
    checked = {}

    def check(name, n, got, want):
        checked[name] = checked.get(name, 0) + 1
        if got != want:
            mismatches.setdefault(name, []).append((n, got, want))
            print(f"FAIL {name} n={n}: computed {got}, oracle {want}")

    for n in range(2, cfg.max_n + 1):
        rep = oracle_counts(n, cap=cfg.oracle_cap)
        check("d_basic", n, count_d_basic(n, memory_cap=cap), rep.d)
        check("d_improved", n, series[n], rep.d)
        check("d0", n, count_d0(n, series), rep.d0)
        check("h", n, count_h(n, series), rep.h)
        check("l", n, count_l(n, memory_cap=cap), rep.l)
        check("dc_direct", n, count_dc_direct(n, memory_cap=cap), rep.dc)
        check("dc_indirect", n, count_dc_indirect(n, series[n]), rep.dc)
        check("dd", n, count_dd(n), rep.dd)
        if n >= 3:
            check("s", n, count_s(n, memory_cap=cap), rep.s)
            check("b", n, count_b(n, series), rep.b)
        if n >= 5:
            biconn = count_db(n, series, series[n], memory_cap=cap)
            check("c", n, biconn.c, rep.c)
            check("d2", n, biconn.d2, rep.d2)
            check("d2_minus_b", n, biconn.d2_minus_b, rep.d2_minus_b)
            check("db", n, biconn.db, rep.db)
        check(
            "profile_g", n, profile(n, "G", memory_cap=cap).entries,
            rep.profile_g.entries,
        )
        check(
            "by_largest", n, count_by_largest(n, memory_cap=cap),
            rep.by_largest,
        )
    for name in sorted(checked):
        if name not in mismatches:
            print(f"PASS {name} (n up to {cfg.max_n})")
    if mismatches:
        total = sum(len(v) for v in mismatches.values())
        print(f"verification FAILED: {total} mismatch(es)")
        return EXIT_MISMATCH
    print(f"verification passed for n = 2..{cfg.max_n}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="degseq",
        description="Exact counts of degree sequences of simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, include_format=True):
        p.add_argument("--cache", help="path to the d-series b-file cache")
        p.add_argument(
            "--memory-cap",
            type=int,
            metavar="BYTES",
            help="refuse table builds estimated above this many bytes",
        )
        p.add_argument(
            "--oracle-cap",
            type=int,
            metavar="N",
            help=f"largest n the oracle may enumerate "
            f"(default {DEFAULT_ORACLE_CAP})",
        )
        if include_format:
            p.add_argument(
                "--format",
                choices=("table", "csv", "bfile"),
                default="table",
            )

    p_count = sub.add_parser("count", help="compute one quantity")
    p_count.add_argument("--quantity", choices=QUANTITIES, required=True)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--range", metavar="A..B")
    add_common(p_count)

    p_series = sub.add_parser(
        "series", help="emit a quantity over a range as b-file lines"
    )
    p_series.add_argument("--quantity", choices=QUANTITIES, required=True)
    p_series.add_argument("--range", metavar="A..B", required=True)
    add_common(p_series, include_format=False)

    p_verify = sub.add_parser(
        "verify", help="cross-check all counting paths against the oracle"
    )
    p_verify.add_argument("--max-n", type=int, required=True)
    add_common(p_verify, include_format=False)

    p_profile = sub.add_parser(
        "profile", help="per-degree-sum counts of one family"
    )
    p_profile.add_argument("--n", type=int, required=True)
    p_profile.add_argument("--family", choices=("G", "L", "H"), required=True)
    add_common(p_profile)

    p_ratio = sub.add_parser(
        "ratio", help="successive quotients d(n)/d(n-1), exact decimals"
    )
    p_ratio.add_argument("--range", metavar="A..B", required=True)
    add_common(p_ratio)
    return parser


_COMMANDS = {
    "count": _cmd_count,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "profile": _cmd_profile,
    "ratio": _cmd_ratio,
}


# Errors reported as one line on stderr, with the exit code of each.
_EXIT_CODES = {
    _UsageError: EXIT_USAGE,
    OracleCapError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    MemoryBudgetError: EXIT_MEMORY,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[cfg.command](cfg)
    except tuple(_EXIT_CODES) as exc:
        print(f"degseq: error: {exc}", file=sys.stderr)
        return next(
            code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)
        )


if __name__ == "__main__":
    sys.exit(main())
