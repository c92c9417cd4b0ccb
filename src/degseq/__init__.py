"""Exact counts of degree sequences of simple graphs.

The package counts, in polynomial time, the degree sequences of simple
graphs on n vertices: all of them (d), the zero-allowing variant (d0),
the split by whether a vertex of full degree exists (h and l), the
split by potential connectivity (dc and dd), and the refinements tied
to minimum degree and potential biconnectivity (s, b, c, d2, db).
Everything reduces to a four-parameter restricted-partition table; a
brute-force oracle over small n backs every counting path.
"""

from .connectivity_counts import (
    BiconnReport,
    count_b,
    count_db,
    count_dc_direct,
    count_dc_indirect,
    count_dd,
    count_s,
)
from .degree_counts import (
    DnSeries,
    SumProfile,
    count_by_largest,
    count_d0,
    count_d_basic,
    count_d_improved,
    count_h,
    count_l,
    extend_series,
    profile,
    read_series_file,
    write_series_file,
)
from .errors import (
    DegseqError,
    MemoryBudgetError,
    MissingPriorError,
    OracleCapError,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    CountReport,
    is_graphical_eg,
    oracle_counts,
)
from .partition_table import DEFAULT_MEMORY_CAP

__version__ = "0.1.0"

__all__ = [
    "BiconnReport",
    "CountReport",
    "DEFAULT_MEMORY_CAP",
    "DEFAULT_ORACLE_CAP",
    "DegseqError",
    "DnSeries",
    "MemoryBudgetError",
    "MissingPriorError",
    "OracleCapError",
    "SumProfile",
    "count_b",
    "count_by_largest",
    "count_d0",
    "count_d_basic",
    "count_d_improved",
    "count_db",
    "count_dc_direct",
    "count_dc_indirect",
    "count_dd",
    "count_h",
    "count_l",
    "count_s",
    "extend_series",
    "is_graphical_eg",
    "oracle_counts",
    "profile",
    "read_series_file",
    "write_series_file",
]
