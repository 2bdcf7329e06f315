"""Model zoo: train-once classifier cache per dataset/scale/seed.

Mirrors §6.1's setup (GCN, three conv layers, max-pool + FC head,
Adam, 80/10/10 split). Trained weights are cached in memory and on
disk (``REPRO_CACHE_DIR`` or ``./.gvex_cache``) so the benches — which
run as separate pytest processes — pay for training once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from repro.datasets.registry import dataset_info, load_dataset
from repro.gnn.model import GnnClassifier
from repro.gnn.training import LabelEncoder, train_classifier
from repro.graphs.database import GraphDatabase


@dataclass
class TrainedClassifier:
    """Everything the benches need for one dataset."""

    dataset: str
    scale: str
    db: GraphDatabase
    model: GnnClassifier
    encoder: LabelEncoder
    metrics: Dict[str, float]


_MEMORY_CACHE: Dict[Tuple[str, str, int, Tuple[int, ...]], TrainedClassifier] = {}


def cache_dir() -> Path:
    path = Path(os.environ.get("REPRO_CACHE_DIR", ".gvex_cache"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def get_trained(
    dataset: str,
    scale: str = "test",
    seed: int = 0,
    hidden_dims: Tuple[int, ...] = (32, 32, 32),
    max_epochs: int = 150,
    use_disk_cache: bool = True,
) -> TrainedClassifier:
    """Load the dataset and a trained classifier for it (cached)."""
    key = (dataset, scale, seed, tuple(hidden_dims))
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]

    info = dataset_info(dataset)
    db = load_dataset(dataset, scale=scale, seed=seed)
    encoder = LabelEncoder(db.labels)

    arch = "x".join(str(d) for d in hidden_dims)
    model_path = cache_dir() / f"{dataset}-{scale}-s{seed}-h{arch}.npz"
    if use_disk_cache and model_path.exists():
        model = GnnClassifier.load(model_path)
        trainer_metrics = {"train_accuracy": float("nan")}
        trained = TrainedClassifier(dataset, scale, db, model, encoder, trainer_metrics)
        _MEMORY_CACHE[key] = trained
        return trained

    model = GnnClassifier(
        in_dim=info.n_features,
        n_classes=info.n_classes,
        hidden_dims=hidden_dims,
        conv="gcn",
        readout="max",
        seed=seed,
    )
    model, encoder, metrics = train_classifier(
        db, model, seed=seed, max_epochs=max_epochs, patience=30
    )
    if use_disk_cache:
        model.save(model_path)
    trained = TrainedClassifier(dataset, scale, db, model, encoder, metrics)
    _MEMORY_CACHE[key] = trained
    return trained


def clear_cache(memory: bool = True, disk: bool = False) -> None:
    """Drop cached models (used by tests that need fresh training)."""
    if memory:
        _MEMORY_CACHE.clear()
    if disk:
        for path in cache_dir().glob("*.npz"):
            path.unlink()


__all__ = ["TrainedClassifier", "get_trained", "clear_cache", "cache_dir"]
