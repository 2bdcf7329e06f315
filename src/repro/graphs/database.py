"""Graph databases: the collection ``G = {G_1, ..., G_m}`` (§2.1).

A :class:`GraphDatabase` holds the graphs a GNN classifies, optional
ground-truth labels, and helpers to group graphs by a classifier's
predicted label (the paper's *label groups* ``G^l``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import DatasetError
from repro.graphs.graph import Graph


class GraphDatabase:
    """A list of graphs with optional ground-truth class labels."""

    def __init__(
        self,
        graphs: Sequence[Graph],
        labels: Optional[Sequence[Hashable]] = None,
        name: str = "database",
    ) -> None:
        self.graphs: List[Graph] = list(graphs)
        if labels is not None and len(labels) != len(self.graphs):
            raise DatasetError(
                f"labels length {len(labels)} != graph count {len(self.graphs)}"
            )
        self.labels: Optional[List[Hashable]] = (
            None if labels is None else list(labels)
        )
        self.name = name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def __getitem__(self, index: int) -> Graph:
        return self.graphs[index]

    def label_of(self, index: int) -> Hashable:
        if self.labels is None:
            raise DatasetError(f"database {self.name!r} has no labels")
        return self.labels[index]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise DatasetError(f"database {self.name!r} has no labels")
        return len(set(self.labels))

    # ------------------------------------------------------------------
    def total_nodes(self) -> int:
        return sum(g.n_nodes for g in self.graphs)

    def total_edges(self) -> int:
        return sum(g.n_edges for g in self.graphs)

    def label_groups(
        self, predicted: Optional[Sequence[Hashable]] = None
    ) -> Dict[Hashable, List[int]]:
        """Indices grouped by label (predicted labels if given, else truth).

        This is the paper's ``G^l`` partition: explanation views are
        built per *assigned* label, so callers normally pass the
        classifier's predictions.
        """
        labels = list(predicted) if predicted is not None else self.labels
        if labels is None:
            raise DatasetError("no labels available to group by")
        if len(labels) != len(self.graphs):
            raise DatasetError(
                f"got {len(labels)} labels for {len(self.graphs)} graphs"
            )
        groups: Dict[Hashable, List[int]] = {}
        for i, l in enumerate(labels):
            groups.setdefault(l, []).append(i)
        return groups

    def extend(
        self,
        graphs: Sequence[Graph],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> range:
        """Append graphs (a streamed chunk arrival); returns their indices.

        Labelled databases must receive one label per graph; unlabelled
        ones must receive none — partial labelling would silently break
        :meth:`label_of` for the existing prefix.
        """
        graphs = list(graphs)
        if self.labels is not None:
            if labels is None or len(labels) != len(graphs):
                raise DatasetError(
                    f"labelled database {self.name!r} needs one label per "
                    f"appended graph, got {None if labels is None else len(labels)} "
                    f"for {len(graphs)} graphs"
                )
        elif labels is not None:
            raise DatasetError(
                f"database {self.name!r} is unlabelled; cannot append labels"
            )
        start = len(self.graphs)
        self.graphs.extend(graphs)
        if self.labels is not None and labels is not None:
            self.labels.extend(labels)
        return range(start, len(self.graphs))

    def subset(self, indices: Iterable[int], name: Optional[str] = None) -> "GraphDatabase":
        idx = list(indices)
        labels = None if self.labels is None else [self.labels[i] for i in idx]
        return GraphDatabase(
            [self.graphs[i] for i in idx],
            labels=labels,
            name=name or f"{self.name}/subset",
        )

    def split(
        self,
        fractions: Sequence[float] = (0.8, 0.1, 0.1),
        seed: Optional[int] = 0,
    ) -> List["GraphDatabase"]:
        """Random split into parts, e.g. train/val/test = (0.8, 0.1, 0.1)."""
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise DatasetError(f"fractions must sum to 1, got {fractions}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.graphs))
        parts: List[GraphDatabase] = []
        start = 0
        for i, frac in enumerate(fractions):
            if i == len(fractions) - 1:
                take = order[start:]
            else:
                count = int(round(frac * len(self.graphs)))
                take = order[start : start + count]
                start += count
            parts.append(self.subset(take.tolist(), name=f"{self.name}/part{i}"))
        return parts

    def __repr__(self) -> str:
        labelled = "unlabelled" if self.labels is None else f"{self.n_classes} classes"
        return f"<GraphDatabase {self.name!r} |G|={len(self)} {labelled}>"


__all__ = ["GraphDatabase"]
