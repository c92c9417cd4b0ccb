"""End-to-end tests of the command-line interface via main()."""

import pytest

from degseq.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("DEGSEQ_CACHE", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_uncached_d_warns_and_uses_basic(self, capsys):
        code, out, err = run(
            capsys, "count", "--quantity", "d", "--n", "5",
            "--format", "csv",
        )
        assert code == 0
        assert "5,d,20" in out
        assert "warning" in err

    def test_bfile_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "4",
            "--format", "bfile",
        )
        assert code == 0
        assert out == "4 7\n"


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

    def test_uncached_warning_printed_once(self, capsys):
        code, out, err = run(
            capsys, "series", "--quantity", "dc", "--range", "2..6",
        )
        assert code == 0
        assert len(out.splitlines()) == 5
        assert err.count("no cache configured") == 1

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
        assert "PASS d_basic" in out
        assert "PASS db" in out

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "20")
        assert code == 1
        assert "cap" in err


class TestExitCodes:
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

    def test_memory_cap_refusal(self, capsys):
        code, _, err = run(
            capsys, "count", "--quantity", "d", "--n", "40",
            "--memory-cap", "1000",
        )
        assert code == 2
        assert "cap" in err


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
        code, improved_out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "9",
            "--cache", str(cache), "--format", "bfile",
        )
        assert code == 0
        # without a cache, d comes from the basic route
        code, basic_out, _ = run(
            capsys, "count", "--quantity", "d", "--n", "9",
            "--format", "bfile",
        )
        assert code == 0
        assert improved_out == basic_out

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

    def test_corrupt_cache_is_reported(self, capsys, tmp_path):
        cache = tmp_path / "bad.txt"
        cache.write_text("1 0\n5 20\n")
        code, _, err = run(
            capsys, "count", "--quantity", "d", "--n", "6",
            "--cache", str(cache),
        )
        assert code == 1
        assert err
