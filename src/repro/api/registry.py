"""The two serving registries: explainers and tenants.

**Explainer registry.** Every explainer is described by an
:class:`ExplainerSpec` and built through :func:`build_explainer`, so
the CLI, the service, the bench harness, and the parallel engine
construct, sweep, and capability-table methods identically instead of
special-casing imports::

    from repro.api import build_explainer

    explainer = build_explainer("gvex-approx", model, config=config)
    explainer = build_explainer("SX", model, seed=0, rollouts=15)

Names resolve case-insensitively through each spec's aliases (the
paper's short names — AG, SG, GE, SX, GX, GCF — all work). Third-party
explainers can join the sweep with :func:`register_explainer`.

**Tenant registry.** A serving replica used to host exactly one
(dataset, model, config) triple. :class:`TenantRegistry` makes the
triple addressable: each :class:`TenantSpec` declares how to
materialize one resident :class:`~repro.api.service.ExplanationService`
(named dataset + scale + seed + config, optional ``.npz`` model and
views files), residents are built lazily on first use (fit-or-load
happens inside the service), and a bounded number of residents is kept
per process with LRU eviction — an evicted tenant keeps its spec and
transparently re-materializes on the next request. The HTTP layer
(``repro.api.server``) routes the ``tenant`` field of ``/explain`` and
``/query`` through :meth:`TenantRegistry.acquire`; eviction never
touches a tenant with requests in flight.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Type

from repro.config import GvexConfig
from repro.exceptions import RegistryError, TenantError, ValidationError
from repro.runtime.workqueue import DEFAULT_TENANT
from repro.explainers import (
    ApproxGvexExplainer,
    GcfExplainer,
    GnnExplainer,
    GStarX,
    RandomExplainer,
    StreamGvexExplainer,
    SubgraphX,
)
from repro.explainers.base import Explainer
from repro.gnn.model import GnnClassifier


@dataclass(frozen=True)
class ExplainerSpec:
    """How to build one explainer uniformly.

    Attributes
    ----------
    name:
        Canonical registry key (kebab-case).
    cls:
        The :class:`~repro.explainers.base.Explainer` subclass.
    aliases:
        Alternative lookup names (the paper's short names, CLI spellings).
    takes_config:
        Whether the constructor accepts a ``config=GvexConfig`` keyword.
    takes_seed:
        Whether the constructor accepts a ``seed`` keyword.
    native_views:
        Whether the explainer is one of GVEX's own algorithms
        (Algorithms 1–3), listed at ``/explainers`` as a descriptor.
        Scheduling does not read it: every method's views come from
        ``repro.runtime``'s shard loop and its one Psum tail.
    defaults:
        Default constructor keyword overrides.
    description:
        One-line summary for ``/explainers`` listings.
    """

    name: str
    cls: Type[Explainer]
    aliases: Tuple[str, ...] = ()
    takes_config: bool = False
    takes_seed: bool = True
    native_views: bool = False
    #: whether the method is a row of the paper's Table 1 matrix
    in_table1: bool = True
    defaults: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def capability_row(self):
        """The spec's Table 1 capability metadata."""
        return self.cls.capabilities


_REGISTRY: Dict[str, ExplainerSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_explainer(spec: ExplainerSpec) -> ExplainerSpec:
    """Add a spec to the registry (canonical name + aliases).

    Re-registering an existing canonical name replaces it; an alias
    colliding with a *different* spec's name is rejected — before any
    mutation, so a failed registration leaves the registry untouched.
    """
    canonical = spec.name.lower()
    aliases = {alias.lower() for alias in (spec.name, *spec.aliases)}
    for alias in sorted(aliases):
        owner = _ALIASES.get(alias)
        if owner is not None and owner != canonical:
            raise RegistryError(
                f"alias {alias!r} already registered for {owner!r}"
            )
    if canonical in _REGISTRY:  # drop the replaced spec's old aliases
        for alias in [a for a, o in _ALIASES.items() if o == canonical]:
            del _ALIASES[alias]
    for alias in aliases:
        _ALIASES[alias] = canonical
    _REGISTRY[canonical] = spec
    return spec


def get_spec(name: str) -> ExplainerSpec:
    """Resolve a canonical name or alias to its spec."""
    try:
        return _REGISTRY[_ALIASES[name.lower()]]
    except KeyError:
        raise RegistryError(
            f"unknown explainer {name!r}; registered: {explainer_names()}"
        ) from None


def explainer_names(include_aliases: bool = False) -> List[str]:
    """Registered canonical names (registration order)."""
    if include_aliases:
        return sorted(_ALIASES)
    return list(_REGISTRY)


def explainer_specs() -> List[ExplainerSpec]:
    """All registered specs in registration order."""
    return list(_REGISTRY.values())


def build_explainer(
    name: str,
    model: GnnClassifier,
    config: Optional[GvexConfig] = None,
    seed: Optional[Any] = None,
    **overrides: Any,
) -> Explainer:
    """Construct any registered explainer uniformly.

    ``config`` reaches explainers that accept a :class:`GvexConfig`
    (the GVEX algorithms); ``seed`` reaches those that take one;
    ``overrides`` are method-specific constructor keywords (e.g.
    ``rollouts`` for SubgraphX) layered over the spec's defaults.
    """
    spec = get_spec(name)
    kwargs: Dict[str, Any] = dict(spec.defaults)
    kwargs.update(overrides)
    if spec.takes_config and config is not None:
        kwargs["config"] = config
    if spec.takes_seed and seed is not None:
        kwargs["seed"] = seed
    try:
        return spec.cls(model, **kwargs)
    except TypeError as exc:
        raise RegistryError(
            f"cannot build explainer {spec.name!r} with {sorted(kwargs)}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# built-in registrations (Table 1 row order, then the random baseline)
# ----------------------------------------------------------------------
register_explainer(ExplainerSpec(
    name="subgraphx",
    cls=SubgraphX,
    aliases=("sx",),
    description="MCTS + Shapley subgraph search (Yuan et al.)",
))
register_explainer(ExplainerSpec(
    name="gnnexplainer",
    cls=GnnExplainer,
    aliases=("ge",),
    description="learned edge/feature masks (Ying et al.)",
))
register_explainer(ExplainerSpec(
    name="gstarx",
    cls=GStarX,
    aliases=("gx",),
    description="structure-aware coalition scores (Zhang et al.)",
))
register_explainer(ExplainerSpec(
    name="gcfexplainer",
    cls=GcfExplainer,
    aliases=("gcf",),
    description="global counterfactual candidates (Huang et al.)",
))
register_explainer(ExplainerSpec(
    name="gvex-approx",
    cls=ApproxGvexExplainer,
    aliases=("approx", "ag", "gvex"),
    takes_config=True,
    takes_seed=False,
    native_views=True,
    description="GVEX Algorithm 1/2: greedy + lower-bound two-tier views",
))
register_explainer(ExplainerSpec(
    name="gvex-stream",
    cls=StreamGvexExplainer,
    aliases=("stream", "sg"),
    takes_config=True,
    takes_seed=False,
    native_views=True,
    description="GVEX Algorithm 3: streaming anytime two-tier views",
))
register_explainer(ExplainerSpec(
    name="random",
    cls=RandomExplainer,
    aliases=("rnd",),
    in_table1=False,
    description="random node subsets (sanity-check baseline)",
))


# ----------------------------------------------------------------------
# the tenant registry: many (dataset, model, config) residents per process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """How to materialize one serving tenant's resident service.

    Attributes
    ----------
    name:
        Tenant key requests address (the ``tenant`` field of
        ``/explain`` / ``/query``).
    dataset:
        Registry dataset name (``repro.datasets.registry``), loaded
        lazily at ``scale`` / ``seed`` when the tenant materializes.
    config:
        Default :class:`GvexConfig` for the tenant's explains.
    model_path:
        Optional ``.npz`` classifier to fit-or-load (trained and saved
        there on first explain when absent on disk).
    views_path:
        Optional views ``.json`` preloaded into the resident, so a
        freshly materialized tenant serves queries before its first
        explain.
    hidden_dims:
        Classifier architecture used when training in-service.
    """

    name: str
    dataset: str
    scale: str = "test"
    seed: int = 0
    config: Optional[GvexConfig] = None
    model_path: Optional[str] = None
    views_path: Optional[str] = None
    hidden_dims: Tuple[int, ...] = (32, 32, 32)

    def build(self):
        """Materialize the resident service (model stays lazy)."""
        from repro.api.service import ExplanationService

        service = ExplanationService(
            self.dataset,
            scale=self.scale,
            seed=self.seed,
            config=self.config,
            hidden_dims=self.hidden_dims,
        )
        if self.model_path is not None:
            service.fit_or_load(self.model_path)
        if self.views_path is not None:
            service.load_views(self.views_path)
        return service


class _TenantEntry:
    """One registered tenant: its spec and (maybe) resident service."""

    __slots__ = (
        "name",
        "spec",
        "service",
        "pinned",
        "in_use",
        "last_used",
        "build_lock",
        "materializations",
    )

    def __init__(self, name, spec=None, service=None, pinned=False):
        self.name = name
        self.spec = spec
        self.service = service
        self.pinned = pinned
        self.in_use = 0
        self.last_used = 0
        self.build_lock = threading.Lock()
        self.materializations = 0


class TenantRegistry:
    """Per-process residents for multi-tenant serving, with LRU eviction.

    ``max_residents`` bounds how many materialized services the process
    keeps; past it, the least-recently-used idle, unpinned resident is
    dropped (its spec survives, so the tenant transparently rebuilds on
    next use — the lazy fit-or-load path). Services adopted via
    :meth:`add_service` have no rebuild recipe and are pinned by
    default. All registry operations are thread-safe; materialization
    runs outside the registry lock (training can take seconds) under a
    per-tenant build lock, so one cold tenant never blocks the others.
    """

    def __init__(self, max_residents: int = 4):
        if max_residents < 1:
            raise ValidationError(
                f"max_residents must be >= 1, got {max_residents}"
            )
        self.max_residents = max_residents
        self._lock = threading.Lock()
        self._entries: Dict[str, _TenantEntry] = {}
        self._ticks = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def register(self, spec: TenantSpec, replace: bool = False) -> TenantSpec:
        """Declare a tenant (no service is built until first use)."""
        with self._lock:
            if spec.name in self._entries and not replace:
                raise TenantError(f"tenant {spec.name!r} already registered")
            self._entries[spec.name] = _TenantEntry(spec.name, spec=spec)
        return spec

    def add_service(self, name: str, service, pinned: bool = True) -> None:
        """Adopt an already-built service as a resident tenant.

        In-memory services (tests, benches, ``create_server(service)``)
        have no spec to rebuild from, so they are pinned — never
        evicted — unless the caller opts out.
        """
        with self._lock:
            if name in self._entries:
                raise TenantError(f"tenant {name!r} already registered")
            entry = _TenantEntry(name, service=service, pinned=pinned)
            entry.last_used = self._tick()
            self._entries[name] = entry
        self._evict_excess()

    def _tick(self) -> int:
        self._ticks += 1
        return self._ticks

    # ------------------------------------------------------------------
    def ensure(self, name: str) -> None:
        """Raise :class:`TenantError` unless ``name`` is registered."""
        with self._lock:
            if name not in self._entries:
                raise TenantError(
                    f"unknown tenant {name!r}; registered: {sorted(self._entries)}"
                )

    @contextmanager
    def acquire(self, name: str) -> Iterator[Any]:
        """Lease a tenant's resident service for one request.

        Bumps the LRU clock, holds an in-use count for the lease's
        duration (eviction skips busy tenants), materializes the
        resident from its spec when absent, and triggers eviction on
        release.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise TenantError(
                    f"unknown tenant {name!r}; registered: {sorted(self._entries)}"
                )
            entry.in_use += 1
            entry.last_used = self._tick()
        try:
            yield self._materialize(entry)
        finally:
            with self._lock:
                entry.in_use -= 1
            self._evict_excess()

    def _materialize(self, entry: _TenantEntry):
        # per-entry lock: concurrent requests for one cold tenant build
        # it once; other tenants are untouched
        with entry.build_lock:
            if entry.service is None:
                assert entry.spec is not None  # add_service pins by default
                service = entry.spec.build()
                with self._lock:
                    entry.service = service
                    entry.materializations += 1
                    self.misses += 1
                self._evict_excess()
            else:
                with self._lock:
                    self.hits += 1
            return entry.service

    # ------------------------------------------------------------------
    def _evict_excess(self) -> None:
        """Drop LRU idle, unpinned residents past ``max_residents``."""
        with self._lock:
            while True:
                residents = [
                    e for e in self._entries.values() if e.service is not None
                ]
                if len(residents) <= self.max_residents:
                    return
                victims = [
                    e
                    for e in residents
                    if not e.pinned and e.in_use == 0 and e.spec is not None
                ]
                if not victims:
                    return  # everything evictable is busy or pinned
                victim = min(victims, key=lambda e: e.last_used)
                victim.service = None
                self.evictions += 1

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered tenant names (sorted)."""
        with self._lock:
            return sorted(self._entries)

    def resident_names(self) -> List[str]:
        """Tenants currently holding a materialized service (sorted)."""
        with self._lock:
            return sorted(
                name
                for name, entry in self._entries.items()
                if entry.service is not None
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def peek(self, name: str):
        """The resident service, or ``None`` — no LRU bump, no build."""
        with self._lock:
            entry = self._entries.get(name)
            return entry.service if entry is not None else None

    def stats(self) -> Dict[str, Any]:
        """Registry occupancy and churn counters (for ``/health``)."""
        with self._lock:
            return {
                "max_residents": self.max_residents,
                "registered": len(self._entries),
                "residents": sum(
                    1 for e in self._entries.values() if e.service is not None
                ),
                "evictions": self.evictions,
                "hits": self.hits,
                "misses": self.misses,
                "tenants": {
                    name: {
                        "resident": entry.service is not None,
                        "pinned": entry.pinned,
                        "in_use": entry.in_use,
                        "materializations": entry.materializations,
                        "dataset": (
                            entry.spec.dataset
                            if entry.spec is not None
                            else getattr(entry.service, "dataset", None)
                        ),
                    }
                    for name, entry in sorted(self._entries.items())
                },
            }


__all__ = [
    "ExplainerSpec",
    "register_explainer",
    "get_spec",
    "explainer_names",
    "explainer_specs",
    "build_explainer",
    "TenantSpec",
    "TenantRegistry",
    "DEFAULT_TENANT",
]
