"""Dataset registry with size presets (Table 3 workloads).

``load_dataset(name, scale)`` is the single entry point the benches
use. Scales: ``test`` (seconds, for CI), ``bench`` (default for the
figure reproductions), ``large`` (scalability sweeps). The paper's
absolute sizes (Table 3) are out of reach for a pure-Python GNN, so
each scale records its *ratio* intent instead: MAL has the largest
graphs, PCQ the most graphs, PRO/SYN the largest connected bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.exceptions import DatasetError
from repro.graphs.database import GraphDatabase
from repro.datasets.malware import malnet
from repro.datasets.molecules import mutagenicity, pcqm4m
from repro.datasets.products import products
from repro.datasets.proteins import enzymes
from repro.datasets.social import reddit_binary
from repro.datasets.synthetic import ba_synthetic


@dataclass(frozen=True)
class DatasetInfo:
    """Static description of one dataset family."""

    name: str
    paper_name: str
    loader: Callable[..., GraphDatabase]
    n_features: int
    n_classes: int
    directed: bool
    #: loader kwargs per scale
    scales: Dict[str, Dict[str, int]]

    def load(self, scale: str = "test", seed: int = 0, **overrides) -> GraphDatabase:
        if scale not in self.scales:
            raise DatasetError(
                f"dataset {self.name!r} has no scale {scale!r}; "
                f"options: {sorted(self.scales)}"
            )
        kwargs = dict(self.scales[scale])
        kwargs.update(overrides)
        return self.loader(seed=seed, **kwargs)


DATASETS: Dict[str, DatasetInfo] = {
    "mutagenicity": DatasetInfo(
        name="mutagenicity",
        paper_name="MUTAGENICITY (MUT)",
        loader=mutagenicity,
        n_features=14,
        n_classes=2,
        directed=False,
        scales={
            "test": dict(n_graphs=24, min_size=5, max_size=9),
            "bench": dict(n_graphs=60, min_size=6, max_size=14),
            "large": dict(n_graphs=200, min_size=8, max_size=20),
        },
    ),
    "reddit_binary": DatasetInfo(
        name="reddit_binary",
        paper_name="REDDIT-BINARY (RED)",
        loader=reddit_binary,
        n_features=1,
        n_classes=2,
        directed=False,
        scales={
            "test": dict(n_graphs=16, n_hubs=3, leaves_per_hub=5, n_cliques=2,
                         experts=2, askers=5),
            "bench": dict(n_graphs=40, n_hubs=4, leaves_per_hub=9, n_cliques=3,
                          experts=3, askers=8),
            "large": dict(n_graphs=120, n_hubs=6, leaves_per_hub=14, n_cliques=4,
                          experts=4, askers=12),
        },
    ),
    "enzymes": DatasetInfo(
        name="enzymes",
        paper_name="ENZYMES (ENZ)",
        loader=enzymes,
        n_features=3,
        n_classes=6,
        directed=False,
        scales={
            "test": dict(n_graphs=36, min_size=5, max_size=8),
            "bench": dict(n_graphs=72, min_size=6, max_size=12),
            "large": dict(n_graphs=240, min_size=8, max_size=16),
        },
    ),
    "malnet": DatasetInfo(
        name="malnet",
        paper_name="MALNET-TINY (MAL)",
        loader=malnet,
        n_features=10,  # in/out-degree buckets (featureless in the paper)
        n_classes=5,
        directed=True,
        scales={
            "test": dict(n_graphs=15, min_size=20, max_size=35),
            "bench": dict(n_graphs=30, min_size=40, max_size=80),
            "large": dict(n_graphs=60, min_size=80, max_size=160),
        },
    ),
    "pcqm4m": DatasetInfo(
        name="pcqm4m",
        paper_name="PCQM4Mv2 (PCQ)",
        loader=pcqm4m,
        n_features=9,
        n_classes=3,
        directed=False,
        scales={
            "test": dict(n_graphs=30, min_size=4, max_size=8),
            "bench": dict(n_graphs=96, min_size=5, max_size=10),
            "large": dict(n_graphs=400, min_size=5, max_size=12),
        },
    ),
    "products": DatasetInfo(
        name="products",
        paper_name="PRODUCTS (PRO)",
        loader=products,
        n_features=100,
        n_classes=6,
        directed=False,
        scales={
            "test": dict(n_subgraphs=12, n_blocks=6, block_size=10, radius=1),
            "bench": dict(n_subgraphs=24, n_blocks=6, block_size=30, radius=2),
            "large": dict(n_subgraphs=48, n_blocks=8, block_size=50, radius=2),
        },
    ),
    "ba_synthetic": DatasetInfo(
        name="ba_synthetic",
        paper_name="SYNTHETIC (SYN)",
        loader=ba_synthetic,
        n_features=8,  # degree buckets (featureless in the paper)
        n_classes=2,
        directed=False,
        scales={
            "test": dict(n_graphs=8, base_size=25, motifs_per_graph=2),
            "bench": dict(n_graphs=12, base_size=60, motifs_per_graph=3),
            "large": dict(n_graphs=24, base_size=150, motifs_per_graph=4),
        },
    ),
}

#: the paper's four fidelity-figure datasets (Figures 5-6)
FIDELITY_DATASETS = ("reddit_binary", "enzymes", "mutagenicity", "malnet")


def load_dataset(
    name: str, scale: str = "test", seed: int = 0, **overrides
) -> GraphDatabase:
    """Load a dataset by name at the given scale."""
    try:
        info = DATASETS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; options: {sorted(DATASETS)}"
        ) from None
    return info.load(scale=scale, seed=seed, **overrides)


def dataset_info(name: str) -> DatasetInfo:
    try:
        return DATASETS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; options: {sorted(DATASETS)}"
        ) from None


__all__ = ["DatasetInfo", "DATASETS", "FIDELITY_DATASETS", "load_dataset", "dataset_info"]
