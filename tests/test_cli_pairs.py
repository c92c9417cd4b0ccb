"""Tests for tools/cli_pairs.py, the paired command-line timing script."""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "cli_pairs.py")
COMMAND = "count --quantity d --n 6 --format bfile"


def cli_pairs(a, b):
    """Runs the script on sides a and b with one pair of COMMAND."""
    proc = subprocess.run(
        [sys.executable, SCRIPT, str(a), str(b), "--pairs", "1",
         "--command", COMMAND],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, json.loads(proc.stdout)["large_n_cli"]


def test_the_tree_against_itself_agrees_within_five_seconds():
    t0 = time.perf_counter()
    code, block = cli_pairs(ROOT, ROOT)
    assert time.perf_counter() - t0 < 5
    assert code == 0
    entry = block["runs"][f"degseq {COMMAND}"]
    assert entry["output_identical"] is True
    for side in ("parent", "change"):
        got = entry[side]
        assert got["exit"] == [0] and len(got["sha256"]) == 1
        assert all(len(got[key]) == 1 for key in
                   ("raw_s", "seconds", "peak_rss_mib"))
        assert got["peak_rss_mib"][0] > 0
    assert entry["parent"]["sha256"] == entry["change"]["sha256"]


def test_a_different_output_exits_1(tmp_path):
    """A side whose degseq prints another d(6) is caught by its digest."""
    package = tmp_path / "src" / "degseq"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "def main(argv):\n    print('6 1')\n    return 0\n")
    code, block = cli_pairs(ROOT, tmp_path)
    assert code == 1
    entry = block["runs"][f"degseq {COMMAND}"]
    assert entry["output_identical"] is False
    assert entry["parent"]["exit"] == entry["change"]["exit"] == [0]
