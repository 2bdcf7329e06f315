"""GVEX configuration objects.

The paper's configuration ``C = (θ, r, {[b_l, u_l]})`` (§3.2) bundles the
explainability thresholds with per-label coverage constraints. We extend
it with the explainability trade-off weight ``γ`` (Eq. 2), the Jacobian
mode for feature influence (§3.1 / DESIGN.md §1), and the verification
mode of Procedure ``VpExtend`` (DESIGN.md §3).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from numbers import Integral
from typing import Any, Dict, Hashable, Tuple

from repro.exceptions import ConfigurationError

#: Literal Procedure 2 — every extension must be consistent + counterfactual.
VERIFY_PAPER = "paper"
#: Grow by explainability gain; record/verify consistency + counterfactual
#: after each extension and stop early once both hold (default).
VERIFY_SOFT = "soft"
#: No GNN verification during growth (pure submodular maximization).
VERIFY_NONE = "none"

VERIFICATION_MODES = (VERIFY_PAPER, VERIFY_SOFT, VERIFY_NONE)

#: coverage bounds apply to each graph's selected node count (matches
#: Algorithm 1's stopping rule and the u_l sweeps in Figures 5-6)
SCOPE_PER_GRAPH = "per_graph"
#: coverage bounds apply to the label group's total selected nodes
#: (Problem 1's aggregate reading)
SCOPE_PER_GROUP = "per_group"

COVERAGE_SCOPES = (SCOPE_PER_GRAPH, SCOPE_PER_GROUP)

#: Exact per-pair Jacobian through the trained network's ReLU masks.
JACOBIAN_EXACT = "exact"
#: Expected Jacobian == k-step random-walk matrix (Xu et al. 2018).
JACOBIAN_EXPECTED = "expected"

JACOBIAN_MODES = (JACOBIAN_EXACT, JACOBIAN_EXPECTED)

#: ``GvexConfig`` keys retired when production lost its reference-tier
#: switches (the matcher, the ``EVerify`` schedule, and the
#: ``IncEVerify`` schedule now each have one implementation).
#: :meth:`GvexConfig.from_dict` accepts and ignores them for one
#: deprecation cycle, so ``/explain`` payloads and cluster dispatches
#: written with them still load (docs/api.md).
RETIRED_KEYS = ("verifier_backend", "matching_backend", "stream_inc")


@dataclass(frozen=True)
class CoverageConstraint:
    """Per-label node coverage range ``[lower, upper]`` (§3.1 Coverage)."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ConfigurationError(
                f"coverage lower bound must be >= 0, got {self.lower}"
            )
        if self.upper < self.lower:
            raise ConfigurationError(
                f"coverage upper bound {self.upper} < lower bound {self.lower}"
            )

    def contains(self, count: int) -> bool:
        """Whether a node count satisfies this constraint."""
        return self.lower <= count <= self.upper

    def as_tuple(self) -> Tuple[int, int]:
        return (self.lower, self.upper)


@dataclass(frozen=True)
class GvexConfig:
    """Full GVEX configuration.

    Parameters
    ----------
    theta:
        Influence threshold ``θ`` — a node ``v`` counts as influenced by
        ``u`` when the normalized influence ``I2(u, v) >= theta`` (Eq. 5).
    radius:
        Embedding-distance threshold ``r`` for the diversity ball
        ``r(v, d)`` (Eq. 6).
    gamma:
        Trade-off weight between influence and diversity in Eq. 2.
    coverage:
        Mapping from class label to its :class:`CoverageConstraint`.
        Labels missing from the mapping fall back to ``default_coverage``.
    default_coverage:
        Constraint applied to labels not listed in ``coverage``.
    verification:
        One of :data:`VERIFICATION_MODES`; see DESIGN.md §3.
    jacobian:
        One of :data:`JACOBIAN_MODES` for feature-influence computation.
    max_pattern_size:
        Upper bound on mined pattern node count (PGen).
    min_pattern_support:
        Minimum number of explanation subgraphs a mined pattern must
        occur in before it becomes a Psum candidate (singletons are
        always kept so coverage stays feasible).
    """

    theta: float = 0.1
    radius: float = 0.5
    gamma: float = 0.5
    coverage: Mapping[Hashable, CoverageConstraint] = field(default_factory=dict)
    default_coverage: CoverageConstraint = CoverageConstraint(0, 15)
    verification: str = VERIFY_SOFT
    jacobian: str = JACOBIAN_EXPECTED
    max_pattern_size: int = 5
    min_pattern_support: int = 1
    coverage_scope: str = SCOPE_PER_GRAPH
    #: StreamGVEX: nodes per batch between oracle refreshes (§5)
    stream_batch_size: int = 8
    #: StreamGVEX: neighborhood radius handed to IncPGen
    stream_radius: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        if self.radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {self.radius}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.verification not in VERIFICATION_MODES:
            raise ConfigurationError(
                f"verification must be one of {VERIFICATION_MODES}, "
                f"got {self.verification!r}"
            )
        if self.jacobian not in JACOBIAN_MODES:
            raise ConfigurationError(
                f"jacobian must be one of {JACOBIAN_MODES}, got {self.jacobian!r}"
            )
        if self.max_pattern_size < 1:
            raise ConfigurationError(
                f"max_pattern_size must be >= 1, got {self.max_pattern_size}"
            )
        if self.min_pattern_support < 1:
            raise ConfigurationError(
                f"min_pattern_support must be >= 1, got {self.min_pattern_support}"
            )
        if self.coverage_scope not in COVERAGE_SCOPES:
            raise ConfigurationError(
                f"coverage_scope must be one of {COVERAGE_SCOPES}, "
                f"got {self.coverage_scope!r}"
            )
        if self.stream_batch_size < 1:
            raise ConfigurationError(
                f"stream_batch_size must be >= 1, got {self.stream_batch_size}"
            )
        if self.stream_radius < 0:
            raise ConfigurationError(
                f"stream_radius must be >= 0, got {self.stream_radius}"
            )

    def coverage_for(self, label: Hashable) -> CoverageConstraint:
        """Coverage constraint ``[b_l, u_l]`` for a class label."""
        return self.coverage.get(label, self.default_coverage)

    def with_coverage(self, label: Hashable, lower: int, upper: int) -> "GvexConfig":
        """Return a copy with the constraint for ``label`` replaced."""
        new = dict(self.coverage)
        new[label] = CoverageConstraint(lower, upper)
        return replace(self, coverage=new)

    def with_bounds(self, lower: int, upper: int) -> "GvexConfig":
        """Return a copy whose *default* coverage is ``[lower, upper]``."""
        return replace(self, default_coverage=CoverageConstraint(lower, upper))

    # ------------------------------------------------------------------
    # wire format (used by the service / HTTP layer)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "coverage":
                out[f.name] = {
                    str(label): list(c.as_tuple()) for label, c in value.items()
                }
            elif f.name == "default_coverage":
                out[f.name] = list(value.as_tuple())
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GvexConfig":
        """Build a config from a plain-JSON dict (unknown keys rejected).

        Coverage labels arrive as JSON object keys (strings); integer
        labels are converted back so lookups keep working. The
        :data:`RETIRED_KEYS` are accepted and ignored. Malformed input
        raises :class:`ConfigurationError`.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"GvexConfig must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        kwargs: Dict[str, Any] = {
            k: v for k, v in data.items() if k not in RETIRED_KEYS
        }
        unknown = set(kwargs) - known
        if unknown:
            raise ConfigurationError(
                f"unknown GvexConfig fields: {sorted(map(str, unknown))}"
            )
        if "coverage" in kwargs:
            raw = kwargs["coverage"] or {}
            if not isinstance(raw, Mapping):
                raise ConfigurationError(
                    "coverage must map labels to [lower, upper], got "
                    f"{type(raw).__name__}"
                )
            coverage: Dict[Hashable, CoverageConstraint] = {}
            for label, bounds in raw.items():
                if isinstance(label, str) and label.lstrip("-").isdigit():
                    label = int(label)
                coverage[label] = _constraint(bounds, f"coverage[{label!r}]")
            kwargs["coverage"] = coverage
        if "default_coverage" in kwargs:
            kwargs["default_coverage"] = _constraint(
                kwargs["default_coverage"], "default_coverage"
            )
        return cls(**kwargs)


def _constraint(bounds: Any, what: str) -> CoverageConstraint:
    """A wire ``[lower, upper]`` pair as a constraint, or a typed error."""
    if isinstance(bounds, CoverageConstraint):
        return bounds
    if (
        isinstance(bounds, (list, tuple))
        and len(bounds) == 2
        and all(
            isinstance(b, Integral) and not isinstance(b, bool) for b in bounds
        )
    ):
        return CoverageConstraint(int(bounds[0]), int(bounds[1]))
    raise ConfigurationError(
        f"{what} must be two integers [lower, upper], got {bounds!r}"
    )


DEFAULT_CONFIG = GvexConfig()

__all__ = [
    "CoverageConstraint",
    "GvexConfig",
    "DEFAULT_CONFIG",
    "RETIRED_KEYS",
    "VERIFY_PAPER",
    "VERIFY_SOFT",
    "VERIFY_NONE",
    "VERIFICATION_MODES",
    "JACOBIAN_EXACT",
    "JACOBIAN_EXPECTED",
    "JACOBIAN_MODES",
    "SCOPE_PER_GRAPH",
    "SCOPE_PER_GROUP",
    "COVERAGE_SCOPES",
]
