"""ogbn-PRODUCTS analogue (Table 3): co-purchase ego subgraphs.

The real benchmark is one giant Amazon co-purchasing network whose node
classification task the paper converts to graph classification by
sampling ~400 neighborhoods and labelling each with its seed node's
category. We reproduce the pipeline: a stochastic-block-model
co-purchase graph (blocks = product categories), ego subgraphs sampled
around random seeds, 100-dim node features (category signal + noise,
like the real bag-of-words embeddings), label = the seed's block.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.database import GraphDatabase
from repro.graphs.generators import stochastic_block_model
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

N_FEATURES = 100


def products(
    n_subgraphs: int = 24,
    n_blocks: int = 6,
    block_size: int = 30,
    radius: int = 2,
    p_in: float = 0.25,
    p_out: float = 0.01,
    feature_noise: float = 0.3,
    seed: RngLike = 0,
) -> GraphDatabase:
    """PRODUCTS analogue: ego subgraphs of an SBM co-purchase network."""
    rng = ensure_rng(seed)
    base, blocks = stochastic_block_model(
        [block_size] * n_blocks, p_in, p_out, seed=rng
    )
    features = _block_features(blocks, n_blocks, feature_noise, rng)

    graphs: List[Graph] = []
    labels: List[int] = []
    for i in range(n_subgraphs):
        label = i % n_blocks
        members = np.flatnonzero(blocks == label)
        seed_node = int(rng.choice(members))
        hood = sorted(base.k_hop_nodes(seed_node, radius))
        # cap ego size so explanation problems stay tractable
        if len(hood) > 3 * block_size:
            hood = sorted(rng.choice(hood, size=3 * block_size, replace=False))
            hood = sorted(set(hood) | {seed_node})
        sub, ids = base.induced_subgraph(hood)
        ego = Graph(sub.node_types, features=features[ids])
        for u, v, t in sub.edges():
            ego.add_edge(u, v, t)
        graphs.append(ego)
        labels.append(label)
    return GraphDatabase(graphs, labels=labels, name="products")


def _block_features(
    blocks: np.ndarray, n_blocks: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """100-dim features: block one-hot in the leading dims + noise tail."""
    n = len(blocks)
    X = rng.normal(0.0, noise, size=(n, N_FEATURES))
    X[np.arange(n), blocks] += 1.0
    return X


__all__ = ["products", "N_FEATURES"]
