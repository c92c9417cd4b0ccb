"""In-memory span tracer that wraps degseq's public entry points from outside.

Nothing in the package changes.  ``Tracer.install`` replaces each entry
point with a wrapper that records a span (name, start, end, parent) and
rebinds the wrapper in every ``degseq.*`` namespace that holds the
original object, because submodules bind names at import time with
``from .x import name``; a call through a binding that kept the original
would silently read as "0 s in this layer".

Layers are the package's modules.  A span's layer is the part of its name
before the first dot: ``partition_table``, ``kernels`` (the ``_kernels``
module), ``degree_counts``, ``connectivity_counts``, ``oracle`` and ``cli``.
``PartitionTable.build`` gets a ``layer_visitor``; the time between
visitor calls is one ``kernels.fill_layer`` span (layer 1's interval starts
when the build starts, so it includes the table allocation).
``PartitionTable.g_prime`` and ``is_graphical_eg`` run far too often for a
span each and are only counted.
"""

from __future__ import annotations

import json
import os
import sys
import time

LAYERS = (
    "partition_table",
    "kernels",
    "degree_counts",
    "connectivity_counts",
    "oracle",
    "cli",
)

# Module-level functions that get one span per call, by defining module.
SPANNED = {
    "degree_counts": (
        "count_d_basic",
        "count_d_improved",
        "count_d0",
        "count_h",
        "count_l",
        "profile",
        "count_by_largest",
        "extend_series",
    ),
    "connectivity_counts": (
        "count_dc_direct",
        "count_dc_indirect",
        "count_dd",
        "count_s",
        "count_b",
        "count_db",
        "count_d2_minus_b",
        "connectivity_report",
    ),
    "oracle": ("oracle_counts",),
    "cli": ("main",),
}


def _rebind(orig, new) -> None:
    """Replace ``orig`` by ``new`` in every degseq namespace that binds it."""
    sites = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "degseq" and not modname.startswith("degseq."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                sites += 1
    if not sites:
        raise RuntimeError(f"no degseq namespace binds {orig!r}")


class Tracer:
    """Spans and counters of one traced workload run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index], in start order
        self.calls = {}  # wrapped entry point or counter -> calls
        self.builds = []  # (TableParams, kernel) of each PartitionTable.build
        self.bytes_written = 0
        self._stack = []
        self._graphical = [0, 0]  # is_graphical_eg calls, true results

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished child span of the innermost open span."""
        self._count(name)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count

        def wrapper(*args, **kwargs):
            count(name)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import degseq.cli  # noqa: F401  (loads every submodule)
        from degseq import degree_counts, oracle, partition_table

        for layer, names in SPANNED.items():
            mod = sys.modules[f"degseq.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                _rebind(orig, self.wrap(f"{layer}.{fname}", orig))

        _rebind(
            degree_counts.read_series_file,
            self.wrap("cli.store_load", degree_counts.read_series_file),
        )
        save = self.wrap("cli.store_save", degree_counts.write_series_file)

        def write_series_file(path, series):
            save(path, series)
            self.bytes_written += os.path.getsize(path)

        _rebind(degree_counts.write_series_file, write_series_file)

        eg, graphical = oracle.is_graphical_eg, self._graphical

        def is_graphical_eg(seq):
            ok = eg(seq)
            graphical[0] += 1
            if ok:
                graphical[1] += 1
            return ok

        _rebind(eg, is_graphical_eg)

        table_cls = partition_table.PartitionTable
        build = table_cls.build.__func__

        def traced_build(cls, params, *, layer_visitor=None, **kwargs):
            self.builds.append((params, kwargs.get("kernel", "vector")))
            mark = time.perf_counter()

            def visitor(l, slices):
                nonlocal mark
                self.record("kernels.fill_layer", mark, time.perf_counter())
                if layer_visitor is not None:
                    layer_visitor(l, slices)
                mark = time.perf_counter()

            return build(cls, params, layer_visitor=visitor, **kwargs)

        table_cls.build = classmethod(
            self.wrap("partition_table.build", traced_build)
        )
        bounded_cls = partition_table.BoundedPartitionTable
        bounded_cls.build = classmethod(
            self.wrap(
                "partition_table.bounded_build", bounded_cls.build.__func__
            )
        )

        g_prime, count = table_cls.g_prime, self._count

        def counted_g_prime(table, N, k, l):
            count("g_prime")
            return g_prime(table, N, k, l)

        table_cls.g_prime = counted_g_prime

    def finish(self) -> None:
        """Fold the is_graphical_eg counters into ``calls`` (zeros left out,
        so that an entry point never reached stays absent)."""
        for name, n in zip(("is_graphical_eg", "graphical"), self._graphical):
            if n:
                self.calls[name] = n

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        epoch = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start - epoch,
                            "end": end - epoch,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - covered[i]
        return out

    def inclusive(self, name: str) -> float:
        """Seconds inside spans called ``name``, children included."""
        return sum(e - s for n, s, e, _ in self.spans if n == name)


def kernel_work(params) -> tuple:
    """Rows and cells the vector kernel fills for one build, from TableParams.

    These are computed, not measured.  Per layer l and slice k, row N is
    skipped when N > k*l; a live row computes min(N, (k+1)**2 // 4) + 1
    cells and broadcasts the saturated value over the rest.
    """
    M, K, L = params.max_sum, params.max_part, params.target_parts
    rows = skipped = cells = broadcast = 0
    for l in range(1, L + 1):
        for k in range(1, K + 1):
            live = min(M, k * l)
            skap = (k + 1) * (k + 1) // 4
            full = min(live, skap)
            sat = live - full
            rows += live
            skipped += M - live
            cells += full * (full + 3) // 2 + sat * (skap + 1)
            broadcast += sat * (sat + 1) // 2
    return rows, skipped, cells, broadcast


def cells_allocated(params) -> int:
    """Object slots one PartitionTable.build allocates (shared k = 0 slice
    plus K slices for each of the two rolling layers)."""
    tri = (params.max_sum + 1) * (params.max_sum + 2) // 2
    slices = 1 + params.max_part * (2 if params.target_parts else 1)
    return slices * tri


def layer_metrics(tr: Tracer, wall_s: float, rss_growth_bytes: int) -> dict:
    """The per-layer metrics of one traced run.

    The end-to-end metric each should move, and where:

    * partition_table builds, layers_filled, build_s -> wall_s: builds
      mainly on quantities_n28, layers_filled on series_d30, neither on
      verify_12.  cells_allocated, est_bytes_max, est_over_rss (largest
      build's estimate over the measured RSS growth) -> peak_rss_mib on
      quantities_n28 and series_d30.  bounded_* -> wall_s, small.
    * kernels.* -> wall_s and peak_rss_mib on series_d30 and
      quantities_n28, no change on verify_12.
    * degree_counts.*, connectivity_counts.* -> wall_s on quantities_n28.
    * oracle.* -> wall_s on verify_12 only; candidates counts
      is_graphical_eg calls, graphical the true ones.
    * cli.* -> setup_s and wall_s: cache writes on series_d30, reads on
      quantities_n28.
    * proc.*, host.*, trace.* are diagnostics.

    Call counts include nested calls within a layer.
    """
    from degseq.partition_table import estimate_table_bytes

    c = tr.calls.get
    self_t = tr.self_times()
    fills = [e - s for name, s, e, _ in tr.spans if name == "kernels.fill_layer"]
    vector = [p for p, kernel in tr.builds if kernel == "vector"]
    work = [kernel_work(p) for p in vector]
    rows, skipped, cells, broadcast = (sum(w[i] for w in work) for i in range(4))
    est_max = max((estimate_table_bytes(p) for p, _ in tr.builds), default=0)
    candidates = c("is_graphical_eg", 0)

    def calls_in(layer):
        return sum(v for k, v in tr.calls.items() if k.startswith(layer + "."))

    return {
        "partition_table.builds": c("partition_table.build", 0),
        "partition_table.layers_filled": c("kernels.fill_layer", 0),
        "partition_table.build_s": tr.inclusive("partition_table.build"),
        "partition_table.cells_allocated": sum(
            cells_allocated(p) for p, _ in tr.builds
        ),
        "partition_table.est_bytes_max": est_max,
        "partition_table.est_over_rss": est_max / max(rss_growth_bytes, 4096),
        "partition_table.bounded_builds": c("partition_table.bounded_build", 0),
        "partition_table.bounded_build_s": tr.inclusive(
            "partition_table.bounded_build"
        ),
        "kernels.fill_s": sum(fills),
        "kernels.layer_max_s": max(fills, default=0.0),
        "kernels.rows_computed": rows,
        "kernels.rows_skipped": skipped,
        "kernels.cells_computed": cells,
        "kernels.cells_broadcast": broadcast,
        "kernels.computed_share": cells / (cells + broadcast) if cells else 0.0,
        "degree_counts.calls": calls_in("degree_counts"),
        "degree_counts.self_s": self_t["degree_counts"],
        "degree_counts.g_prime_calls": c("g_prime", 0),
        "connectivity_counts.calls": calls_in("connectivity_counts"),
        "connectivity_counts.self_s": self_t["connectivity_counts"],
        "connectivity_counts.dd_s": tr.inclusive("connectivity_counts.count_dd"),
        "oracle.counts_s": tr.inclusive("oracle.oracle_counts"),
        "oracle.candidates": candidates,
        "oracle.graphical": c("graphical", 0),
        "oracle.graphical_share": (
            c("graphical", 0) / candidates if candidates else 0.0
        ),
        "cli.invocations": c("cli.main", 0),
        "cli.self_s": self_t["cli"],
        "cli.store_load_s": tr.inclusive("cli.store_load"),
        "cli.store_save_s": tr.inclusive("cli.store_save"),
        "cli.store_bytes_written": tr.bytes_written,
        "cli.extend_calls": c("degree_counts.extend_series", 0),
        "trace.self_share": sum(self_t.values()) / wall_s,
    }
