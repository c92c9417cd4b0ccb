"""Fixtures shared by the test modules."""

import pytest

from degseq.partition_table import PartitionTable


@pytest.fixture
def table_builds(monkeypatch):
    """The TableParams of every PartitionTable.build during the test."""
    build = PartitionTable.build.__func__
    built = []

    def counted_build(cls, params, **kwargs):
        built.append(params)
        return build(cls, params, **kwargs)

    monkeypatch.setattr(PartitionTable, "build", classmethod(counted_build))
    return built
