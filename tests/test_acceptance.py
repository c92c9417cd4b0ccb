"""Acceptance suite: nine end-to-end criteria for the counting engine.

Each test prints exactly one PASS/FAIL line (bypassing capture, so the
lines appear in plain pytest output).  Criterion 7 is a report-only
empirical observation and never fails the suite; every other criterion
asserts.
"""

import importlib.util
import math
import os
import statistics
import time

import pytest

from degseq.connectivity_counts import (
    count_b,
    count_d2_minus_b,
    count_db,
    count_dc_direct,
    count_dc_indirect,
    count_dd,
    count_s,
)
from degseq.degree_counts import (
    count_by_largest,
    count_d0,
    count_d_basic,
    count_d_improved,
    count_h,
    count_l,
    profile,
)
from degseq.oracle import (
    enumerate_even_bounded,
    is_graphical_eg,
    oracle_counts,
)
from test_oracle import is_graphical_nw

ORACLE_LIMIT = 13
HOSTPROBE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "hostprobe.py",
)


def report(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}")


@pytest.fixture(scope="session")
def oracle_reports():
    """Brute-force reports for n up to 13, with their build time."""
    t0 = time.perf_counter()
    reports = {
        n: oracle_counts(n)
        for n in range(2, ORACLE_LIMIT + 1)
    }
    return reports, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(capsys, oracle_reports, series_40):
    """Every quantity equals the brute-force oracle for n up to 13."""
    series, _ = series_40
    reports, oracle_seconds = oracle_reports
    t0 = time.perf_counter()
    bad = []

    def check(name, n, got, want):
        if got != want:
            bad.append((name, n, got, want))

    for n, rep in reports.items():
        check("d", n, count_d_basic(n), rep.d)
        check("d0", n, count_d0(n, series), rep.d0)
        check("h", n, count_h(n, series), rep.h)
        check("l", n, count_l(n), rep.l)
        check("dc", n, count_dc_direct(n), rep.dc)
        check("dd", n, count_dd(n), rep.dd)
        if n >= 3:
            check("s", n, count_s(n), rep.s)
            check("b", n, count_b(n, series), rep.b)
            check("c", n, count_b(n, series) + count_s(n), rep.c)
            check(
                "d2", n,
                series[n] - count_b(n, series) - count_s(n), rep.d2,
            )
            biconn = count_db(n, series, series[n])
            check("db", n, biconn.db, rep.db)
            check("d2_minus_b", n, biconn.d2_minus_b, rep.d2_minus_b)
    elapsed = time.perf_counter() - t0 + oracle_seconds
    ok = not bad and elapsed <= 300
    report(
        capsys, ok,
        f"criterion 1: oracle equivalence for n=2..{ORACLE_LIMIT}, "
        f"{len(bad)} mismatches, {elapsed:.1f}s (limit 300s)",
    )
    assert not bad, bad[:5]
    assert elapsed <= 300


def test_criterion_2_dual_algorithm_equivalence(capsys, series_40):
    """Basic and improved d agree, direct and indirect dc agree, to 30."""
    series, _ = series_40
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 31):
        basic = count_d_basic(n)
        improved = count_d_improved(n, series)
        if basic != improved:
            bad.append(("d", n, basic, improved))
        direct = count_dc_direct(n)
        indirect = count_dc_indirect(n, basic)
        if direct != indirect:
            bad.append(("dc", n, direct, indirect))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed <= 120
    report(
        capsys, ok,
        f"criterion 2: dual-algorithm equality for n=2..30, "
        f"{len(bad)} mismatches, {elapsed:.1f}s (limit 120s)",
    )
    assert not bad, bad[:5]
    assert elapsed <= 120


def test_criterion_3_runtime_at_n30(capsys, series_40, empty_memo):
    """d(30) computes within 30 seconds by at least one algorithm."""
    series, _ = series_40
    # Each route is timed with the matrix memo empty, so it pays for
    # its own fill rather than reading the one criterion 2 left.
    t0 = time.perf_counter()
    basic = count_d_basic(30)
    basic_time = time.perf_counter() - t0
    empty_memo()
    t0 = time.perf_counter()
    improved = count_d_improved(30, series)
    improved_time = time.perf_counter() - t0
    best = min(basic_time, improved_time)
    ok = basic == improved and best <= 30
    report(
        capsys, ok,
        f"criterion 3: d(30) = {basic} in {basic_time:.2f}s basic / "
        f"{improved_time:.2f}s improved (limit 30s)",
    )
    assert basic == improved
    assert best <= 30


def test_criterion_4_pinned_small_values(capsys, series_40):
    """Hand-derived constants for small n, exact."""
    series, _ = series_40
    biconn5 = count_db(5, series, series[5])
    got = {
        "d(4)": count_d_basic(4),
        "d(5)": count_d_basic(5),
        "d0(4)": count_d0(4, series),
        "dc(5)": count_dc_direct(5),
        "dd(5)": count_dd(5),
        "db(5)": biconn5.db,
        "s(5)": count_s(5),
        "b(5)": count_b(5, series),
        "c(5)": biconn5.c,
        "d2_minus_b(5)": count_d2_minus_b(5),
    }
    want = {
        "d(4)": 7,
        "d(5)": 20,
        "d0(4)": 11,
        "dc(5)": 19,
        "dd(5)": 1,
        "db(5)": 9,
        "s(5)": 6,
        "b(5)": 4,
        "c(5)": 10,
        "d2_minus_b(5)": 1,
    }
    bad = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
    report(
        capsys, not bad,
        f"criterion 4: {len(want) - len(bad)}/{len(want)} pinned small "
        f"values exact" + (f", wrong: {bad}" if bad else ""),
    )
    assert not bad


def test_criterion_5_mirror_identities(capsys):
    """L and H profiles are symmetric at every index for n up to 25."""
    bad = []
    for n in range(2, 26):
        for fam, center in (("L", n * (n - 1)), ("H", (n + 2) * (n - 1))):
            entries = profile(n, fam, mirror=False).entries
            for N, count in entries.items():
                mate = center - N
                if mate in entries and entries[mate] != count:
                    bad.append((fam, n, N))
    report(
        capsys, not bad,
        f"criterion 5: profile mirror identities exact for n=2..25, "
        f"{len(bad)} violations",
    )
    assert not bad, bad[:5]


def test_criterion_6_ratio_trend(capsys, series_40):
    """d(n)/d(n-1) strictly increases and stays below 4 for n=10..40."""
    series, build_seconds = series_40
    below_4 = [n for n in range(10, 41) if series[n] >= 4 * series[n - 1]]
    not_rising = [
        n
        for n in range(11, 41)
        if series[n] * series[n - 2] <= series[n - 1] * series[n - 1]
    ]
    ok = not below_4 and not not_rising and build_seconds <= 1800
    report(
        capsys, ok,
        f"criterion 6: ratio strictly increasing and < 4 for n=10..40 "
        f"(exact rationals), series built in {build_seconds:.0f}s "
        f"(limit 1800s)",
    )
    assert not below_4, below_4
    assert not not_rising, not_rising
    assert build_seconds <= 1800


def test_criterion_7_profile_unimodality_report(capsys):
    """Report-only: G profile unimodal, peak near n^2/2 - n/6."""
    bad = []
    for n in range(6, 26):
        entries = profile(n, "G").entries
        keys = sorted(entries)
        vals = [entries[N] for N in keys]
        fell = False
        unimodal = True
        for i in range(1, len(vals)):
            if vals[i] < vals[i - 1]:
                fell = True
            elif vals[i] > vals[i - 1] and fell:
                unimodal = False
        peak = keys[vals.index(max(vals))]
        target = n * n / 2 - n / 6
        nearest_even = 2 * round(target / 2)
        if not unimodal or abs(peak - nearest_even) > 2:
            bad.append((n, unimodal, peak, nearest_even))
    report(
        capsys, not bad,
        f"criterion 7 (report-only): G profile unimodal with peak within "
        f"one even step of round(n^2/2 - n/6) for n=6..25, "
        f"{len(bad)} exceptions: {bad if bad else 'none'}",
    )
    # empirical observation, intentionally non-fatal


def test_criterion_8_criterion_cross_validation(capsys):
    """The two graphicality tests agree on every candidate up to n=12."""
    total = 0
    disagreements = []
    for n in range(2, 13):
        for seq in enumerate_even_bounded(n):
            total += 1
            if is_graphical_eg(seq) != is_graphical_nw(seq):
                disagreements.append(seq)
    report(
        capsys, not disagreements,
        f"criterion 8: graphicality criteria agree on all {total} "
        f"candidates for n=2..12, {len(disagreements)} disagreements",
    )
    assert not disagreements, disagreements[:5]


def _fit_exponent(sizes, times):
    xs = [math.log(v) for v in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def _load_hostprobe():
    """perfbench/hostprobe.py, loaded from its file: the benchmark's
    host-speed probe, which rescales seconds to a fixed host speed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_hostprobe", HOSTPROBE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fill_seconds(fn, sizes, empty_memo, rounds=3):
    """Seconds of fn(n) for each n in ``sizes``, at a fixed host speed.

    Each size is timed ``rounds`` times, the sizes taking turns within a
    round, and the median of its rescaled times is kept.  ``empty_memo``
    runs before each call, so every call pays for its fill.
    """
    times = {n: [] for n in sizes}
    probe = _load_hostprobe().HostProbe()
    probe.start()
    try:
        for _ in range(rounds):
            for n in sizes:
                empty_memo()
                first = probe.mark()
                t0 = time.perf_counter()
                fn(n)
                elapsed = time.perf_counter() - t0
                times[n].append(probe.rescale(elapsed, first, probe.mark()))
    finally:
        probe.stop()
    return [statistics.median(times[n]) for n in sizes]


def test_criterion_9_complexity_exponents(capsys, empty_memo):
    """Measured growth exponents stay near the designed polynomial orders."""
    basic_ns = [16, 20, 24, 28]
    basic_times = _fill_seconds(count_d_basic, basic_ns, empty_memo)
    basic_exp = _fit_exponent(basic_ns, basic_times)

    dd_ns = [40, 60, 80, 100]
    dd_times = _fill_seconds(count_dd, dd_ns, empty_memo)
    dd_exp = _fit_exponent(dd_ns, dd_times)

    ok = basic_exp <= 5.6 and dd_exp <= 3.6
    report(
        capsys, ok,
        f"criterion 9: growth exponents basic {basic_exp:.2f} "
        f"(limit 5.6), low-sum path {dd_exp:.2f} (limit 3.6)",
    )
    assert basic_exp <= 5.6, basic_times
    assert dd_exp <= 3.6, dd_times
