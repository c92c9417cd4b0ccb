"""End-to-end tests of the command-line interface via main()."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import degseq
from degseq import degree_counts
from degseq.cli import _COMMANDS, QUANTITIES, _build_parser, main
from degseq.degree_counts import DnSeries, _matrix_params, count_d_basic
from degseq.errors import MissingPriorError
from degseq.oracle import oracle_counts
from degseq.partition_table import TableParams


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("DEGSEQ_CACHE", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused_within_two_seconds(*count_args):
    """``degseq count`` exits 2 on the memory cap within 2 s.

    A fresh interpreter, so the time covers start-up and imports; the
    refusal needs only the table's memory estimate.
    """
    src = os.path.dirname(os.path.dirname(degseq.__file__))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from degseq.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "count", *count_args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert "cap" in proc.stderr
    assert elapsed < 2.0


class TestCount:
    def test_basic_d4(self, capsys):
        code, out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "4",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["n,quantity,value", "4,d,7"]

    def test_db_n5(self, capsys):
        code, out, _ = run(
            capsys, "count", "--quantity", "db", "--n", "5",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[-1] == "5,db,9"

    def test_d0_n1(self, capsys):
        code, out, _ = run(
            capsys, "count", "--quantity", "d0", "--n", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[-1] == "1,d0,1"

    def test_range_rows(self, capsys):
        code, out, _ = run(
            capsys, "count", "--quantity", "dd", "--range", "2..6",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "2,dd,0", "3,dd,0", "4,dd,1", "5,dd,1", "6,dd,3",
        ]

    def test_uncached_d_is_quiet(self, capsys):
        code, out, err = run(
            capsys, "count", "--quantity", "d", "--n", "5",
            "--format", "csv",
        )
        assert code == 0
        assert "5,d,20" in out
        assert err == ""

    @pytest.mark.parametrize(
        "quantity,n,params,value",
        [
            # b(20) = d0(18) reads the series only up to d(18).  Both
            # half heights, 153 and 435, are odd, and no read reaches
            # an odd sum: max_sum is the even top less n.
            ("b", 20, TableParams(134, 15, 17), 675759564),
            ("d", 30, TableParams(404, 27, 29), 5876236938019298),
        ],
    )
    def test_uncached_count_builds_the_table_it_reads(
        self, capsys, table_builds, quantity, n, params, value
    ):
        code, out, err = run(
            capsys, "count", "--quantity", quantity, "--n", str(n),
            "--format", "bfile",
        )
        assert code == 0
        assert out == f"{n} {value}\n"
        assert err == ""
        assert table_builds == [params]

    def test_bfile_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "4",
            "--format", "bfile",
        )
        assert code == 0
        assert out == "4 7\n"


class TestRouteLags:
    # The oracle starts at n = 2; test_d0_n1 covers d0(1).
    @pytest.mark.parametrize(
        "quantity",
        [q for q, (_, lag, _) in QUANTITIES.items() if lag is not None],
    )
    def test_lag_is_exact(self, quantity):
        lo, lag, compute = QUANTITIES[quantity]
        d = [oracle_counts(i).d for i in range(2, 10)]
        for n in range(max(lo, 2), 10):
            reach = n - lag
            series = DnSeries([0, *d[: reach - 1]])
            want = getattr(oracle_counts(n), quantity)
            assert compute(n, series) == want
            if reach - 1 >= 1:
                short = DnSeries([0, *d[: reach - 2]])
                with pytest.raises(MissingPriorError):
                    compute(n, short)


class TestSeries:
    def test_d_series(self, capsys):
        code, out, _ = run(
            capsys, "series", "--quantity", "d", "--range", "2..5",
        )
        assert code == 0
        assert out == "2 1\n3 2\n4 7\n5 20\n"

    def test_d0_series(self, capsys):
        code, out, _ = run(
            capsys, "series", "--quantity", "d0", "--range", "1..4",
        )
        assert code == 0
        assert out == "1 1\n2 2\n3 4\n4 11\n"

    def test_dc_series(self, capsys):
        code, out, err = run(
            capsys, "series", "--quantity", "dc", "--range", "2..5",
        )
        assert code == 0
        assert out == "2 1\n3 2\n4 6\n5 19\n"

    def test_uncached_dc_range_builds_one_table(self, capsys, table_builds):
        code, out, err = run(
            capsys, "series", "--quantity", "dc", "--range", "2..12",
        )
        assert code == 0
        assert len(out.splitlines()) == 11
        assert out.splitlines()[-1] == "12 162728"
        assert err == ""
        # The one fill extend_series(DnSeries(), 12) makes; dd uses no
        # PartitionTable.
        assert table_builds == [TableParams(12 * 11 // 2 - 12, 9, 11)]

    def test_series_updates_cache(self, capsys, tmp_path):
        cache = tmp_path / "d.txt"
        code, _, _ = run(
            capsys, "series", "--quantity", "d", "--range", "2..6",
            "--cache", str(cache),
        )
        assert code == 0
        assert cache.read_text() == "1 0\n2 1\n3 2\n4 7\n5 20\n6 71\n"


class TestProfileAndRatio:
    def test_g_profile_n4(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--n", "4", "--family", "G",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "N,count", "4,1", "6,2", "8,2", "10,1", "12,1",
        ]

    def test_l_profile_n3_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--n", "3", "--family", "L",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,count"
        # the only candidate sum is odd, so the index set is empty
        assert all(line.endswith(",0") for line in lines[1:])

    def test_ratio_is_truncated_exact_decimal(self, capsys, tmp_path):
        cache = tmp_path / "d.txt"
        code, out, _ = run(
            capsys, "ratio", "--range", "3..5", "--format", "csv",
            "--cache", str(cache),
        )
        assert code == 0
        # 20/7 = 2.857142857...; exact truncation, not rounding
        assert out.splitlines() == [
            "n,ratio", "3,2.000000", "4,3.500000", "5,2.857142",
        ]


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS d " in out
        names = [*QUANTITIES, "d_basic", "dc_direct", "d2_minus_b",
                 "profile_g", "by_largest"]
        passed = [line.split()[1] for line in out.splitlines()
                  if line.startswith("PASS ")]
        assert passed == names

    def test_one_table_build_per_n(self, capsys, table_builds):
        code, out, _ = run(capsys, "verify", "--max-n", "8")
        assert code == 0
        assert "verification passed for n = 2..8" in out
        # The d series fill to n = 8, then one full-height matrix per n
        # that every table-backed route of that n reads.
        assert table_builds == [TableParams(8 * 7 // 2 - 8, 5, 7)] + [
            _matrix_params(n, True) for n in range(2, 9)
        ]

    def test_wrong_count_is_a_mismatch(self, capsys, monkeypatch):
        import degseq.cli

        count_s = degseq.cli.count_s
        monkeypatch.setattr(
            degseq.cli, "count_s", lambda n, **kw: count_s(n, **kw) + 1
        )
        code, out, _ = run(capsys, "verify", "--max-n", "5")
        assert code == 4
        assert "FAIL s n=3" in out
        assert "verification FAILED" in out

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "20")
        assert code == 1
        assert "cap" in err

    def test_building_the_parser_leaves_the_oracle_unloaded(self):
        """Only verify runs the oracle: importing the package and the
        command line, in a fresh interpreter, does not import it."""
        src = os.path.dirname(os.path.dirname(degseq.__file__))
        script = (
            "import sys, degseq, degseq.cli\n"
            "degseq.cli._build_parser()\n"
            "assert 'degseq.oracle' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestExports:
    def test_package_exports_only_the_counting_api(self):
        # The oracle, count_by_largest and count_d_improved live in
        # their own modules only.
        assert degseq.__all__ == [
            "BiconnReport", "DEFAULT_MEMORY_CAP", "DegseqError",
            "DnSeries", "MemoryBudgetError", "MissingPriorError",
            "SumProfile", "count_b", "count_d0", "count_d_basic",
            "count_db", "count_dc_direct", "count_dc_indirect", "count_dd",
            "count_h", "count_l", "count_s", "extend_series",
            "memory_budget", "profile", "read_series_file",
            "write_series_file",
        ]
        for name in degseq.__all__:
            getattr(degseq, name)
        assert "__getattr__" not in vars(degseq)
        assert "__dir__" not in vars(degseq)
        assert not hasattr(degseq, "oracle_counts")


class TestHelp:
    @pytest.mark.parametrize(
        "sub", [(), ("count",), ("series",), ("verify",), ("profile",),
                ("ratio",)],
        ids=lambda sub: " ".join(sub) or "degseq",
    )
    def test_help_prints_usage(self, capsys, sub):
        # argparse formats the help strings only here.
        with pytest.raises(SystemExit) as exit_:
            main([*sub, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: {' '.join(('degseq', *sub))} ")

    def test_readme_flag_table_matches_the_parser(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("## Command line")[1].split("\n### ")[0]
        rows = {}
        for line in section.splitlines():
            cells = line.split("|")
            if len(cells) == 4 and cells[1].strip().startswith("`"):
                name = cells[1].strip().strip("`")
                rows[name] = set(re.findall(r"`(--[a-z-]+)`", cells[2]))
        want = {}
        for name, (_, _, flags, _) in _COMMANDS.items():
            want[name] = {"--memory-cap"}
            for entry in flags:
                group = (entry,) if isinstance(entry, str) else entry
                want[name].update(group)
        assert rows == want


class TestExitCodes:
    @pytest.mark.parametrize(
        "request_",
        [("count", "--quantity", "d", "--range", "2-5"),
         ("count", "--quantity", "d", "--range", "a..b"),
         ("ratio", "--range", "2..5"),
         ("verify", "--max-n", "1")],
        ids=" ".join,
    )
    def test_bad_argument_is_one_error_line(self, capsys, request_):
        code, out, err = run(capsys, *request_)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines()
                  if line.startswith("degseq: error:")]
        assert len(errors) == 1, err

    def test_descending_range(self, capsys):
        code, _, err = run(
            capsys, "count", "--quantity", "d", "--range", "9..2",
        )
        assert code == 1
        assert "ascending" in err

    def test_below_quantity_minimum(self, capsys):
        code, _, err = run(capsys, "count", "--quantity", "s", "--n", "2")
        assert code == 1
        assert "n >= 3" in err

    def test_flags_a_subcommand_does_not_read(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "3", "--cache", "x")
        assert code == 1
        assert "unrecognized arguments: --cache" in err
        code, _, err = run(
            capsys, "profile", "--n", "4", "--family", "G", "--max-n", "3",
        )
        assert code == 1
        assert "unrecognized arguments: --max-n" in err

    def test_oracle_cap_is_not_a_flag(self, capsys):
        code, _, err = run(
            capsys, "verify", "--max-n", "3", "--oracle-cap", "3",
        )
        assert code == 1
        assert "unrecognized arguments: --oracle-cap" in err

    def test_memory_cap_refusal(self, capsys):
        code, _, err = run(
            capsys, "count", "--quantity", "d", "--n", "40",
            "--memory-cap", "1000",
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "request_",
        [*(("count", "--quantity", q, "--n", "12") for q in QUANTITIES),
         *(("profile", "--n", "12", "--family", f) for f in "GLH"),
         ("verify", "--max-n", "6"),
         ("ratio", "--range", "3..12")],
        ids=" ".join,
    )
    def test_every_route_is_under_the_cap(
        self, capsys, monkeypatch, empty_memo, request_
    ):
        monkeypatch.delenv("DEGSEQ_CACHE", raising=False)
        code, out, err = run(capsys, *request_, "--memory-cap", "1000")
        assert code == 2, err
        assert out == ""
        assert "cap" in err

    # d fills a half-height table, s a full-height one.
    @pytest.mark.parametrize("quantity", ["d", "s"])
    def test_huge_n_is_refused_within_two_seconds(self, quantity):
        assert_refused_within_two_seconds(
            "--quantity", quantity, "--n", "10000000"
        )

    def test_huge_dd_is_refused_within_two_seconds(self):
        # The bounded dd table: one layer of about (10^7)^2 / 2 slots
        # (slice k stores 10^7 - 3 - k of them) of 1,616 bytes, about
        # 8.1e16 bytes, above any machine's memory.
        assert_refused_within_two_seconds(
            "--quantity", "dd", "--n", "10000000"
        )

    @pytest.mark.parametrize("cap", ["0", "-5", "abc"])
    def test_memory_cap_must_be_positive(self, capsys, cap):
        code, out, err = run(
            capsys, "count", "--quantity", "d", "--n", "5",
            "--memory-cap", cap,
        )
        assert code == 1
        assert out == ""
        assert "--memory-cap" in err


class TestCacheFlow:
    def test_explicit_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "d.txt"
        code, out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "8",
            "--cache", str(cache), "--format", "csv",
        )
        assert code == 0
        assert "8,d,871" in out
        # the cache now feeds a second invocation without recomputation
        code, out, _ = run(
            capsys, "count", "--quantity", "dc", "--n", "8",
            "--cache", str(cache), "--format", "csv",
        )
        assert code == 0
        assert "8,dc,863" in out

    def test_cached_improved_matches_basic(self, capsys, tmp_path):
        cache = tmp_path / "d.txt"
        run(
            capsys, "series", "--quantity", "d", "--range", "2..8",
            "--cache", str(cache),
        )
        code, cached_out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "9",
            "--cache", str(cache), "--format", "bfile",
        )
        assert code == 0
        # A cache decides only where the series lives, not the route.
        code, uncached_out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "9",
            "--format", "bfile",
        )
        assert code == 0
        assert cached_out == uncached_out == f"9 {count_d_basic(9)}\n"

    def test_env_var_sets_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env.txt"
        monkeypatch.setenv("DEGSEQ_CACHE", str(cache))
        code, _, err = run(
            capsys, "count", "--quantity", "d", "--n", "6",
        )
        assert code == 0
        assert "warning" not in err
        assert cache.exists()

    def test_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env.txt"
        flag_cache = tmp_path / "flag.txt"
        monkeypatch.setenv("DEGSEQ_CACHE", str(env_cache))
        code, _, _ = run(
            capsys, "count", "--quantity", "d", "--n", "6",
            "--cache", str(flag_cache),
        )
        assert code == 0
        assert flag_cache.exists()
        assert not env_cache.exists()

    def test_empty_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env.txt"
        monkeypatch.setenv("DEGSEQ_CACHE", str(env_cache))
        code, out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "6", "--cache", "",
            "--format", "bfile",
        )
        assert code == 0
        assert out == "6 71\n"
        assert not env_cache.exists()

    def test_verify_never_reads_the_env_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        env_cache = tmp_path / "env.txt"
        monkeypatch.setenv("DEGSEQ_CACHE", str(env_cache))
        code, _, _ = run(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert not env_cache.exists()

    def test_env_is_read_when_the_request_runs(self, tmp_path, monkeypatch):
        # Not when the parser is built: a parser built once would
        # otherwise keep the first value it saw.
        monkeypatch.setenv("DEGSEQ_CACHE", str(tmp_path / "env.txt"))
        args = _build_parser().parse_args(
            ["count", "--quantity", "d", "--n", "4"]
        )
        assert args.cache is None

    def test_impossible_cache_value_is_refused(self, capsys, tmp_path):
        # d(5) is 20; read unchecked, this cache made d0(5) print 32.
        cache = tmp_path / "bad.txt"
        cache.write_text("1 0\n2 1\n3 2\n4 7\n5 21\n")
        code, out, err = run(
            capsys, "count", "--quantity", "d0", "--n", "5",
            "--cache", str(cache),
        )
        assert code == 1
        assert out == ""
        assert f"{cache}: d(5) = 21" in err

    def test_range_builds_one_table(self, capsys, tmp_path, table_builds):
        code, out, _ = run(
            capsys, "series", "--quantity", "d", "--range", "2..12",
            "--cache", str(tmp_path / "d.txt"),
        )
        assert code == 0
        assert out.splitlines()[-1] == "12 162769"
        assert len(table_builds) == 1

    def test_interrupted_series_keeps_computed_values(
        self, capsys, tmp_path, monkeypatch
    ):
        count_h = degree_counts.count_h

        def interrupted_at_7(n, prior):
            if n == 7:
                raise KeyboardInterrupt
            return count_h(n, prior)

        monkeypatch.setattr(degree_counts, "count_h", interrupted_at_7)
        cache = tmp_path / "d.txt"
        with pytest.raises(KeyboardInterrupt):
            main([
                "series", "--quantity", "d", "--range", "2..10",
                "--cache", str(cache),
            ])
        assert cache.read_text() == "1 0\n2 1\n3 2\n4 7\n5 20\n6 71\n"

    def test_unwritable_cache_is_refused_before_the_fill(
        self, capsys, tmp_path, table_builds
    ):
        cache = tmp_path / "missing" / "d.txt"
        code, out, err = run(
            capsys, "series", "--quantity", "d", "--range", "2..60",
            "--cache", str(cache),
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"degseq: error: cache {cache} cannot be written: its "
            "directory is missing or not writable"
        ]
        assert table_builds == []

    def test_covered_request_reads_an_unwritable_cache(
        self, capsys, tmp_path, monkeypatch, table_builds
    ):
        # Root may write anywhere, so os.access stands in for a read-only
        # directory: a covered request reads the cache, a longer one is
        # refused before any table is built.
        cache = tmp_path / "d.txt"
        cache.write_text("1 0\n2 1\n3 2\n4 7\n5 20\n6 71\n")
        monkeypatch.setattr(os, "access", lambda *args: False)
        code, out, err = run(
            capsys, "series", "--quantity", "d", "--range", "5..6",
            "--cache", str(cache),
        )
        assert (code, out, err) == (0, "5 20\n6 71\n", "")
        code, out, err = run(
            capsys, "series", "--quantity", "d", "--range", "5..7",
            "--cache", str(cache),
        )
        assert (code, out) == (1, "")
        assert str(cache) in err
        assert table_builds == []

    def test_refused_run_leaves_the_cache_alone(self, capsys, tmp_path):
        cache = tmp_path / "d.txt"
        cache.write_text("# notes\n1 0\n2 1\n3 2\n4 7\n5 20\n")
        before = cache.read_bytes()
        code, out, err = run(
            capsys, "count", "--quantity", "d", "--n", "40",
            "--memory-cap", "1000", "--cache", str(cache),
        )
        assert code == 2
        assert "cap" in err
        assert cache.read_bytes() == before

    @pytest.mark.parametrize(
        "quantity,value", [("dd", "3"), ("l", "40"), ("s", "24")]
    )
    def test_routes_without_series_ignore_the_cache(
        self, capsys, tmp_path, quantity, value
    ):
        cache = tmp_path / "bad.txt"
        cache.write_text("1 0\n5 20\n")
        code, out, err = run(
            capsys, "count", "--quantity", quantity, "--n", "6",
            "--cache", str(cache), "--format", "bfile",
        )
        assert code == 0
        assert out == f"6 {value}\n"
        assert err == ""
        assert cache.read_text() == "1 0\n5 20\n"

    @pytest.mark.parametrize(
        "text,reason",
        [("1 0\n5 20\n", "must cover"),
         ("1 0\n2 1 7\n", "malformed series line"),
         ("1 0\n2 1\n2 1\n", "duplicate series entry for n=2")],
        ids=["gap", "malformed", "duplicate"],
    )
    def test_corrupt_cache_is_reported(self, capsys, tmp_path, text, reason):
        cache = tmp_path / "bad.txt"
        cache.write_text(text)
        code, out, err = run(
            capsys, "count", "--quantity", "d", "--n", "6",
            "--cache", str(cache),
        )
        assert code == 1
        assert out == ""
        assert f"series file {cache}: {reason}" in err

    @pytest.mark.parametrize("line", ["5 2_0", "4 +7"],
                             ids=["underscore", "plus"])
    def test_cache_fields_must_be_plain_digits(self, capsys, tmp_path, line):
        """int() reads 2_0 and +7 as 20 and 7, the true d(5) and d(4),
        but neither is a b-file field: the cache is refused, not used."""
        lines = dict(enumerate(["0", "1", "2", "7", "20"], start=1))
        n, value = line.split()
        lines[int(n)] = value
        cache = tmp_path / "d.txt"
        cache.write_text("".join(f"{i} {v}\n" for i, v in lines.items()))
        code, out, err = run(
            capsys, "count", "--quantity", "d", "--n", "5",
            "--cache", str(cache),
        )
        assert (code, out) == (1, "")
        assert f"series file {cache}: malformed series line: " in err
        assert line in err
