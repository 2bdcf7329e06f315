"""GNN substrate: numpy message-passing classifiers, training, Jacobians."""

from repro.gnn.jacobian import exact_influence, normalized_influence
from repro.gnn.batch import symmetrized_adjacency
from repro.gnn.loss import softmax, softmax_cross_entropy
from repro.gnn.model import GnnClassifier
from repro.gnn.node_model import NodeGnnClassifier
from repro.gnn.optim import Adam, Sgd
from repro.gnn.propagation import propagation_power
from repro.gnn.training import LabelEncoder, Trainer, TrainingHistory, train_classifier

__all__ = [
    "GnnClassifier",
    "NodeGnnClassifier",
    "Trainer",
    "TrainingHistory",
    "LabelEncoder",
    "train_classifier",
    "Adam",
    "Sgd",
    "softmax",
    "softmax_cross_entropy",
    "propagation_power",
    "symmetrized_adjacency",
    "exact_influence",
    "normalized_influence",
]
