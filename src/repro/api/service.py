"""The front door: one facade owning the explain lifecycle.

:class:`ExplanationService` bundles dataset, model, and configuration
lifecycle behind four verbs — ``fit_or_load → explain → persist →
query`` — so the CLI, the examples, the benchmarks, and the HTTP layer
all drive the exact same code path::

    from repro.api import ExplanationService, Q

    svc = ExplanationService("mutagenicity", scale="test")
    svc.fit_or_load()                       # train (or load a .npz)
    views = svc.explain("gvex-approx")      # any registered explainer
    svc.persist("views.json")               # versioned wire format
    svc.query(Q.pattern(p) & Q.label(1))    # inverted-index queries

A service can equally wrap an in-memory database/model pair
(``ExplanationService(db=db, model=model)``) or pre-generated views
(``svc.load_views("views.json")``).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.api.registry import get_spec
from repro.config import GvexConfig
from repro.exceptions import ConfigurationError, ExplanationError
from repro.gnn.model import GnnClassifier
from repro.gnn.training import train_classifier
from repro.graphs.database import GraphDatabase
from repro.graphs.io import graph_from_dict, load_views, save_views
from repro.graphs.pattern import Pattern
from repro.graphs.view import ViewSet
from repro.metrics.capability import capability_table
from repro.query import Q, Query, ViewIndex
from repro.query.index import PatternOccurrence


def pattern_from_spec(spec: Mapping[str, Any]) -> Pattern:
    """Build a query pattern from its wire form.

    ``{"node_types": [...], "edges": [[u, v, type], ...], "directed":
    bool}`` — the same shape the CLI ``--pattern`` flag and the HTTP
    ``/query`` route accept.
    """
    graph = graph_from_dict(
        {
            "node_types": spec["node_types"],
            "edges": spec.get("edges", []),
            "directed": spec.get("directed", False),
        }
    )
    return Pattern(graph)


class ExplanationService:
    """Facade owning dataset/model/config lifecycle for explanations.

    Parameters
    ----------
    dataset:
        Registry dataset name (``repro.datasets.registry``); loaded
        lazily at ``scale``/``seed``. Omit when passing ``db`` directly.
    db:
        An explicit :class:`GraphDatabase` (overrides ``dataset``).
    model:
        A trained classifier; otherwise :meth:`fit_or_load` trains one.
    config:
        Default :class:`GvexConfig` for :meth:`explain` calls.
    """

    def __init__(
        self,
        dataset: Optional[str] = None,
        *,
        scale: str = "test",
        seed: int = 0,
        db: Optional[GraphDatabase] = None,
        model: Optional[GnnClassifier] = None,
        config: Optional[GvexConfig] = None,
        hidden_dims: Tuple[int, ...] = (32, 32, 32),
    ) -> None:
        if dataset is None and db is None:
            raise ConfigurationError(
                "ExplanationService needs a dataset name or a db"
            )
        self.dataset = dataset
        self.scale = scale
        self.seed = seed
        self.config = config if config is not None else GvexConfig()
        self.hidden_dims = tuple(hidden_dims)
        self._db = db
        self._model = model
        self._views: Optional[ViewSet] = None
        self._index: Optional[ViewIndex] = None
        # concurrency contract (multi-worker serving): explains on one
        # service serialize — views/model mutation is never concurrent
        # with itself — while queries stay lock-free readers of the
        # atomically swapped views/index references. The index lock only
        # guards first-build vs patch races.
        self._explain_lock = threading.RLock()
        self._index_lock = threading.RLock()
        #: metrics of the most recent in-service training run
        self.train_metrics: Optional[Dict[str, float]] = None
        #: registry name of the most recent explain() method
        self.last_method: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle: data + model
    # ------------------------------------------------------------------
    @property
    def db(self) -> GraphDatabase:
        """The graph database (lazily loaded for named datasets)."""
        if self._db is None:
            from repro.datasets.registry import load_dataset

            self._db = load_dataset(self.dataset, scale=self.scale, seed=self.seed)
        return self._db

    @property
    def model(self) -> GnnClassifier:
        """The classifier; trains one on first use when absent."""
        if self._model is None:
            self.fit_or_load()
        return self._model

    def fit_or_load(
        self,
        model_path: Optional[Any] = None,
        *,
        epochs: int = 150,
        save: bool = True,
    ) -> GnnClassifier:
        """Load ``model_path`` if it exists, else train (and save there).

        Idempotent: once the service holds a model, it is returned
        as-is. Training metrics land in :attr:`train_metrics`.
        """
        with self._explain_lock:  # two racing explains must train once
            if self._model is not None:
                return self._model
            path = Path(model_path) if model_path is not None else None
            if path is not None and path.exists():
                self._model = GnnClassifier.load(path)
                return self._model
            in_dim, n_classes = self._model_dims()
            model = GnnClassifier(
                in_dim, n_classes, hidden_dims=self.hidden_dims, seed=self.seed
            )
            model, _, metrics = train_classifier(
                self.db, model, seed=self.seed, max_epochs=epochs
            )
            self.train_metrics = metrics
            self._model = model
            if path is not None and save:
                model.save(path)
            return model

    def _model_dims(self) -> Tuple[int, int]:
        if self.dataset is not None:
            from repro.datasets.registry import dataset_info

            info = dataset_info(self.dataset)
            return info.n_features, info.n_classes
        db = self.db
        n_classes = len({l for l in db.labels})
        first = db[0]
        if first.features is not None:
            return int(first.features.shape[1]), n_classes
        n_types = 1 + max(int(g.node_types.max()) for g in db if g.n_nodes)
        return n_types, n_classes

    # ------------------------------------------------------------------
    # lifecycle: explain + persist
    # ------------------------------------------------------------------
    def explain(
        self,
        method: str = "gvex-approx",
        *,
        labels: Optional[Iterable[int]] = None,
        config: Optional[GvexConfig] = None,
        processes: int = 1,
        seed: Optional[Any] = None,
        deadline: Optional[Any] = None,
        **overrides: Any,
    ) -> ViewSet:
        """Generate explanation views with any registered explainer.

        ``method`` is a registry name or alias (``gvex-approx``,
        ``stream``, ``SX``, ...). Scheduling always goes through the
        :mod:`repro.runtime` plan/executor engine: ``processes > 1``
        forks a warm-state worker pool. ``deadline`` (a
        :class:`~repro.runtime.deadline.Deadline`) attaches a monotonic
        budget the executors re-check between shards — when it expires
        mid-run the typed
        :class:`~repro.exceptions.DeadlineExpiredError` surfaces (the
        HTTP layer maps it to 504) and no views are published. The
        produced views become the service's current views (queryable
        via :meth:`query`).
        """
        spec = get_spec(method)
        config = config if config is not None else self.config
        seed = seed if seed is not None else self.seed
        from repro.runtime import build_plan, run_plan

        # serialize whole explains per service: a multi-worker serve
        # pool may drain several queued explains at once, and two
        # concurrent explains on *one* tenant would race on training
        # and view publication. Distinct tenants (distinct services)
        # still overlap freely.
        with self._explain_lock:
            plan = build_plan(
                self.db,
                self.model,
                config,
                labels=labels,
                method=spec.name,
                seed=seed,
                explainer_kwargs=overrides,
                processes=processes,
                deadline=deadline,
            )
            views = run_plan(plan, processes=processes)
            self.last_method = spec.name
            self._set_views(views)
            return views

    def persist(self, path: Any) -> Path:
        """Write the current views as versioned JSON; returns the path."""
        path = Path(path)
        save_views(self.views, path)
        return path

    def load_views(self, path: Any) -> ViewSet:
        """Adopt previously persisted views (v1 or v2 schema)."""
        self._set_views(load_views(path))
        return self.views

    def set_views(self, views: ViewSet) -> None:
        """Adopt an in-memory view set (e.g. from a custom pipeline)."""
        self._set_views(views)

    def _set_views(self, views: ViewSet) -> None:
        with self._index_lock:
            if self._index is not None:
                # warm replica: patch posting lists per admitted view
                # instead of rebuilding (see docs/runtime.md). The patch
                # runs on a clone swapped in atomically, so concurrent
                # query threads (the HTTP server reads without locks)
                # keep a consistent snapshot; when no index exists yet
                # it stays lazily built on first query. The index lock
                # keeps a concurrent first-build from publishing an
                # index of the outgoing views *after* this patch.
                self._index = self._index.patched_copy(views)
            self._views = views

    @property
    def views(self) -> ViewSet:
        if self._views is None:
            raise ExplanationError(
                "no views yet: call explain() or load_views() first"
            )
        return self._views

    @property
    def has_views(self) -> bool:
        return self._views is not None

    # ------------------------------------------------------------------
    # lifecycle: query
    # ------------------------------------------------------------------
    @property
    def index(self) -> ViewIndex:
        """Inverted-index query engine over the current views.

        Lock-free once built (readers see an atomically swapped
        reference); the first build double-checks under the index lock
        so concurrent query threads build it exactly once and never
        clobber a fresher patched index.
        """
        index = self._index
        if index is not None:
            return index
        with self._index_lock:
            if self._index is None:
                self._index = ViewIndex(self.views, db=self.db)
            return self._index

    def query(self, query: Query) -> List[PatternOccurrence]:
        """Execute a composable :class:`~repro.query.dsl.Query`."""
        return self.index.select(query)

    def query_pattern(
        self,
        pattern: Pattern,
        *,
        scope: str = "explanations",
        label: Optional[Hashable] = None,
    ) -> List[PatternOccurrence]:
        """Convenience: the paper's §1 queries without hand-building Q."""
        q: Query = Q.pattern(pattern) & Q.in_scope(scope)
        if label is not None:
            q = q & Q.label(label)
        return self.query(q)

    # ------------------------------------------------------------------
    @staticmethod
    def capabilities() -> str:
        """The Table 1 capability matrix."""
        return capability_table()

    def __repr__(self) -> str:
        source = self.dataset if self.dataset is not None else "custom-db"
        state = []
        if self._model is not None:
            state.append("model")
        if self._views is not None:
            state.append(f"views[{len(self._views)}]")
        return f"<ExplanationService {source} {'+'.join(state) or 'empty'}>"


__all__ = ["ExplanationService", "pattern_from_spec"]
