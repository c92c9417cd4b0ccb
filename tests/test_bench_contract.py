"""What the benchmark in perfbench/ needs from the package.

perfbench/tracer.py wraps entry points by name, perfbench/pin.py imports
a few functions from ``degseq``, and the tracer times each layer fill
through ``PartitionTable.build``'s ``layer_visitor``.  A rename or a
changed signature would only show when the benchmark runs, so these
tests check the same names and calls here.  The tracer is loaded from
its file; nothing in perfbench/ is imported as a package.  A traced run
of each workload at smoke size, in its own process, checks the rest:
every entry point the workload must reach records a call, and every
output matches the pinned values.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from degseq.partition_table import PartitionTable, TableParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")


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

    def visit(l, layer):
        assert isinstance(layer, PartitionTable)
        assert layer.params.target_parts == l
        seen.append(l)

    PartitionTable.build(params, layer_visitor=visit)
    assert seen == list(range(1, params.target_parts + 1))


# Runs one workload of perfbench/child.py at smoke size under the tracer,
# as ``perfbench/run.py --trace 1`` does, and prints what the run checks
# besides the timing gate: missed entry points, failed checks, metrics.
SMOKE = """
import json, os, resource, sys, time
root, workload, workdir = sys.argv[1:]
sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
import child
from tracer import Tracer, layer_metrics

with open(os.path.join(root, "perfbench", "expected.json")) as fh:
    pins = json.load(fh)
size = child.SIZES[workload]["smoke"]
checks = child.Checks()
if workload == "quantities_n28":
    cache, _ = child.prepare_quantities(size, pins, workdir)
tracer = Tracer(workload)
tracer.install()
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
if workload == "series_d30":
    child.run_series(size, pins, workdir, checks)
elif workload == "quantities_n28":
    child.run_quantities(size, 7, pins, cache, checks)
else:
    child.run_verify(size, checks)
wall = time.perf_counter() - start
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tracer.finish()
metrics = layer_metrics(tracer, wall, (rss1 - rss0) * 1024)
print(json.dumps({
    "missed": sorted(child.REACHED[workload] - set(tracer.calls)),
    "errors": checks.errors,
    "metrics": sorted(metrics),
}))
"""


@pytest.mark.parametrize(
    "workload", ["series_d30", "quantities_n28", "verify_12"]
)
def test_traced_smoke_run_reaches_every_entry_point(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SMOKE, ROOT, workload, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missed"] == []
    assert result["errors"] == []
    assert "trace.self_share" in result["metrics"]
