"""Regenerate expected.json, the pinned outputs the benchmark checks.

Run from the repository root, once, on a commit whose outputs are
trusted:

    python3 perfbench/pin.py

The pins come from the library, not the CLI, and where the package has
two routes this takes the one the benchmark's CLI calls do not use: dc
directly rather than d - dd, d(n) both ways, and the L and H profiles
without the mirror shortcut.  d(30) must equal the README value.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from child import FAMILIES, README_D30, SIZES, profile_digest  # noqa: E402
from degseq import (  # noqa: E402
    DnSeries,
    count_b,
    count_d0,
    count_d_basic,
    count_db,
    count_dc_direct,
    count_dd,
    count_h,
    count_l,
    count_s,
    extend_series,
    profile,
)

N_MAX = 30


def quantities(n: int, series: DnSeries) -> dict:
    d = series[n]
    if count_d_basic(n) != d:
        raise SystemExit(f"basic and improved d({n}) disagree")
    s, b = count_s(n), count_b(n, series)
    out = {
        "d": d,
        "d0": count_d0(n, series),
        "h": count_h(n, series),
        "l": count_l(n),
        "dc": count_dc_direct(n),
        "dd": count_dd(n),
        "s": s,
        "b": b,
        "c": b + s,
        "d2": d - b - s,
        "db": count_db(n, series, d).db,
    }
    for family in FAMILIES:
        prof = profile(n, family, mirror=False)
        out[f"profile_{family}"] = prof.total()
        out[f"profile_{family}_sha256"] = profile_digest(prof.entries.items())
    return out


def main() -> None:
    series = extend_series(DnSeries(), N_MAX)
    if series[30] != README_D30:
        raise SystemExit(f"d(30) = {series[30]}, README says {README_D30}")
    sizes = sorted(SIZES["quantities_n28"].values())
    pins = {
        "d": {str(n): v for n, v in series.items()},
        "quantities": {str(n): quantities(n, series) for n in sizes},
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="ascii") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
