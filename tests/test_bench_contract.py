"""What the benchmark in perfbench/ needs from the package.

perfbench/tracer.py wraps entry points by name, perfbench/pin.py imports
a few functions from ``degseq``, and the tracer times each layer fill
through ``PartitionTable.build``'s ``layer_visitor``.  A rename or a
changed signature would only show when the benchmark runs, so these
tests check the same names and calls here.  The tracer is loaded from
its file; nothing in perfbench/ is imported as a package.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from degseq.partition_table import PartitionTable, TableParams

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracer.py",
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", TRACER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_is_a_callable_of_its_module(tracer):
    missing = []
    for layer, names in tracer.SPANNED.items():
        module = importlib.import_module(f"degseq.{layer}")
        missing += [
            f"{layer}.{name}"
            for name in names
            if not callable(getattr(module, name, None))
        ]
    assert not missing


def test_pinned_functions_import_from_the_package():
    from degseq import count_d_basic, count_dc_direct, profile

    assert callable(count_d_basic) and callable(count_dc_direct)
    assert "mirror" in inspect.signature(profile).parameters


def test_build_visits_each_layer_once():
    params = TableParams(10, 4, 5)
    seen = []
    PartitionTable.build(
        params, memory_cap=None, layer_visitor=lambda l, s: seen.append(l)
    )
    assert seen == list(range(1, params.target_parts + 1))
