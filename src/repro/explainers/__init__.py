"""Explainers: GVEX (AG/SG) and the four baselines behind one interface."""

from repro.explainers.base import Explainer, ExplainerCapabilities
from repro.explainers.gcfexplainer import GcfExplainer
from repro.explainers.gnnexplainer import GnnExplainer
from repro.explainers.gstarx import GStarX
from repro.explainers.gvex import ApproxGvexExplainer, StreamGvexExplainer
from repro.explainers.random_baseline import RandomExplainer
from repro.explainers.subgraphx import SubgraphX

__all__ = [
    "Explainer",
    "ExplainerCapabilities",
    "ApproxGvexExplainer",
    "StreamGvexExplainer",
    "GnnExplainer",
    "SubgraphX",
    "GStarX",
    "GcfExplainer",
    "RandomExplainer",
]
