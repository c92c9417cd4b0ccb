"""Fixtures shared by the test modules."""

import time

import pytest

from degseq import degree_counts
from degseq.degree_counts import DnSeries, extend_series
from degseq.partition_table import PartitionTable


@pytest.fixture
def empty_memo():
    """Empties the graphical-matrix memo; call the result to empty it again.

    Tests that count table builds or time fills start from it, so what
    they see does not depend on which n an earlier test left there.
    This is the one place outside degree_counts that knows how the memo
    is stored.
    """
    clear = degree_counts._MATRIX.clear
    clear()
    return clear


@pytest.fixture
def table_builds(monkeypatch, empty_memo):
    """The TableParams of every PartitionTable.build during the test,
    which starts with an empty graphical-matrix memo."""
    build = PartitionTable.build.__func__
    built = []

    def counted_build(cls, params, **kwargs):
        built.append(params)
        return build(cls, params, **kwargs)

    monkeypatch.setattr(PartitionTable, "build", classmethod(counted_build))
    return built


@pytest.fixture(scope="session")
def read_matrix():
    """The reference reader PartitionTable.g_prime_columns must agree
    with: read(table, n, top, kmax) is n's graphical matrix up to sum top
    and largest degree kmax, one tuple per k over the even N ascending,
    read cell by cell through g_prime from a table holding layer n - 1."""

    def read(table, n, top, kmax):
        sums = range(n + n % 2, top + 1, 2)
        return tuple(
            tuple(table.g_prime(N, k, n) for N in sums)
            for k in range(1, kmax + 1)
        )

    return read


@pytest.fixture(scope="session")
def series_40():
    """Exact d(1)..d(40) by the improved chain, with its build time."""
    t0 = time.perf_counter()
    series = extend_series(DnSeries(), 40)
    return series, time.perf_counter() - t0
