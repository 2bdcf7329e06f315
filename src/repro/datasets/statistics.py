"""Dataset statistics — reproduces Table 3's columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.datasets.registry import DATASETS
from repro.graphs.database import GraphDatabase


@dataclass(frozen=True)
class DatasetStatistics:
    """One Table 3 row."""

    name: str
    avg_edges: float
    avg_nodes: float
    n_features: Optional[int]
    n_graphs: int
    n_classes: int

    def row(self) -> List[str]:
        return [
            self.name,
            f"{self.avg_edges:.1f}",
            f"{self.avg_nodes:.1f}",
            "-" if self.n_features in (None, 1) else str(self.n_features),
            str(self.n_graphs),
            str(self.n_classes),
        ]


def compute_statistics(
    db: GraphDatabase, n_features: Optional[int] = None, name: Optional[str] = None
) -> DatasetStatistics:
    """Statistics of a loaded database (Table 3 columns)."""
    n = len(db)
    avg_nodes = db.total_nodes() / n if n else 0.0
    avg_edges = db.total_edges() / n if n else 0.0
    if n_features is None and n and db[0].features is not None:
        n_features = db[0].features.shape[1]
    return DatasetStatistics(
        name=name or db.name,
        avg_edges=avg_edges,
        avg_nodes=avg_nodes,
        n_features=n_features,
        n_graphs=n,
        n_classes=db.n_classes if db.labels is not None else 0,
    )


def statistics_table(
    scale: str = "test", seed: int = 0, names: Optional[Sequence[str]] = None
) -> str:
    """ASCII Table 3 for all (or selected) datasets at one scale."""
    headers = ["Dataset", "Avg#Edges", "Avg#Nodes", "#NF", "#Graphs", "#Classes"]
    rows = [headers]
    for name, info in DATASETS.items():
        if names is not None and name not in names:
            continue
        db = info.load(scale=scale, seed=seed)
        stats = compute_statistics(db, n_features=info.n_features, name=info.paper_name)
        rows.append(stats.row())
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


__all__ = ["DatasetStatistics", "compute_statistics", "statistics_table"]
