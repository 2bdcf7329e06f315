"""GVEX core: explainability objective, verifiers, and the two algorithms."""

from repro.core.approx import (
    ApproxGvex,
    database_predictions,
    explain_database,
    explain_graph,
)
from repro.core.explainability import ExplainabilityOracle, SelectionState
from repro.core.inc_everify import IncrementalEVerify, OracleStats
from repro.core.node_explain import NodeExplanation, explain_node
from repro.core.psum import PsumResult, summarize
from repro.core.streaming import AnytimeSnapshot, StreamGvex, StreamResult
from repro.core.verifiers import (
    BatchedGnnVerifier,
    GnnVerifier,
    ViewVerification,
    uniform_prior,
    verify_view,
    vp_extend,
    vp_extend_frontier,
)

__all__ = [
    "ApproxGvex",
    "StreamGvex",
    "StreamResult",
    "AnytimeSnapshot",
    "explain_graph",
    "explain_database",
    "database_predictions",
    "explain_node",
    "NodeExplanation",
    "ExplainabilityOracle",
    "SelectionState",
    "IncrementalEVerify",
    "OracleStats",
    "summarize",
    "PsumResult",
    "GnnVerifier",
    "BatchedGnnVerifier",
    "uniform_prior",
    "vp_extend",
    "vp_extend_frontier",
    "verify_view",
    "ViewVerification",
]
