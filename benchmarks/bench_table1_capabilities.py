"""Table 1: capability matrix of GNN explainers.

Regenerates the paper's comparison table from each explainer class's
declared capabilities and asserts the paper's headline claim: only
GVEX supports label-specific, size-bounded, coverage-aware,
configurable, queryable explanation at once.
"""

from benchmarks.reporting import save_result
from repro.metrics.capability import capability_rows, capability_table


def test_table1_capability_matrix(benchmark):
    table = benchmark(capability_table)
    save_result("table1_capabilities", table)

    rows = capability_rows()
    for row in rows:
        name = row[0]
        fully_featured = row[4:] == ["yes"] * 6
        assert fully_featured == name.startswith("GVEX"), name
    assert sum(1 for r in rows if r[0].startswith("GVEX")) == 2
