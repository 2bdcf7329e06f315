"""Table 3: dataset statistics.

Regenerates the statistics table for the seven dataset analogues and
asserts the *relative* shape of the real Table 3: MALNET has the
largest graphs of the fidelity datasets, PCQ has the most graphs while
being the smallest molecules, REDDIT threads are larger than molecules.
Absolute sizes are scaled down per DESIGN.md §1.
"""

from benchmarks.reporting import save_result
from repro.datasets.registry import DATASETS
from repro.datasets.statistics import compute_statistics, statistics_table

from conftest import SCALE, SEED


def _stats():
    rows = {}
    for name, info in DATASETS.items():
        db = info.load(scale=SCALE, seed=SEED)
        rows[name] = compute_statistics(db, n_features=info.n_features)
    return rows


def test_table3_dataset_statistics(benchmark):
    rows = benchmark.pedantic(_stats, rounds=1, iterations=1)
    table = statistics_table(scale=SCALE, seed=SEED)
    save_result("table3_datasets", table)

    # shape assertions mirroring the real Table 3's ordering
    assert rows["malnet"].avg_nodes > rows["mutagenicity"].avg_nodes
    assert rows["reddit_binary"].avg_nodes > rows["mutagenicity"].avg_nodes
    assert rows["pcqm4m"].n_graphs >= rows["malnet"].n_graphs
    assert rows["pcqm4m"].avg_nodes < rows["mutagenicity"].avg_nodes
    assert rows["enzymes"].n_classes == 6
    assert rows["malnet"].n_classes == 5
    assert rows["ba_synthetic"].avg_nodes >= rows["enzymes"].avg_nodes
