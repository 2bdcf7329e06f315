"""Stdlib JSON/HTTP endpoint — concurrent, multi-tenant serving.

A dependency-free ``http.server`` wrapper exposing the explain + query
lifecycle for *many* (dataset, model, config) residents at once::

    python -m repro.cli serve --dataset mutagenicity --port 8080 \\
        --workers 4 --tenant enzymes=enzymes --max-tenants 4

Routes
------
``GET  /health``        service status + registry + work-queue statistics
``GET  /tenants``       the tenant registry (names, residency, datasets)
``GET  /explainers``    the explainer registry (names, aliases, descriptions)
``GET  /capabilities``  the Table 1 capability matrix (text)
``GET  /views``         current views (``?tenant=NAME``), versioned wire format
``POST /explain``       ``{"tenant"?, "method", "labels"?, "config"?,``
                        ``"processes"?, "deadline_seconds"?}``
                        -> view summary
``POST /query``         ``{"tenant"?, "pattern", "scope"?, "label"?,``
                        ``"patterns"?}`` -> occurrences + per-label statistics

All bodies and responses are JSON. The ``tenant`` field addresses one
resident of the server's :class:`~repro.api.registry.TenantRegistry`
(default: the ``"default"`` tenant); unknown tenants get ``404``.
Explain requests mutate *their tenant's* views (and therefore what
``/query`` sees for that tenant), matching the facade's semantics — and
they *patch* the tenant's warm :class:`~repro.query.ViewIndex` posting
lists instead of rebuilding them per request.

Concurrency: the server is threaded for reads (lock-free — views and
indexes are swapped atomically); explains are admitted through a
:class:`~repro.runtime.BoundedWorkQueue` drained by ``workers`` threads,
so explains for *distinct* tenants run simultaneously while each
tenant's own explains serialize inside its service. Submissions past
the queued backlog (``queue_capacity``) — or past one tenant's depth
bound (``tenant_queue_capacity``) — are rejected immediately with
``503`` + ``Retry-After`` (backpressure; see docs/runtime.md). An
``/explain`` may carry ``deadline_seconds``, a monotonic budget the
whole stack honours (queue admission, drain, per-shard execution);
when it expires the request gets ``504`` with a structured body
(``"code": "deadline_expired"``) and its queue depth is fully
reclaimed — see docs/api.md. Request bodies above ``max_body_bytes``
are refused with ``413`` before the queue is touched; a fork worker
killed mid-shard surfaces as a ``500`` with its queue slot reclaimed.
With ``auth_token`` set, POST routes require ``Authorization: Bearer
<token>`` (compared constant-time); reads stay open.
"""

from __future__ import annotations

import hmac
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api.registry import DEFAULT_TENANT, TenantRegistry, explainer_specs
from repro.api.service import ExplanationService, pattern_from_spec
from repro.config import GvexConfig
from repro.exceptions import (
    ConfigurationError,
    DeadlineExpiredError,
    InvalidTypeError,
    QueueFullError,
    ReproError,
    TenantError,
    ValidationError,
    WorkerCrashError,
)
from repro.graphs.io import viewset_to_dict
from repro.query import Q, Query
from repro.runtime.deadline import Deadline
from repro.runtime.workqueue import DEFAULT_CAPACITY, BoundedWorkQueue

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8080
#: request bodies above this are refused with 413 before admission
DEFAULT_MAX_BODY_BYTES = 1 << 20


class ExplanationServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer fronting a tenant registry.

    Construct it with either a single ``service`` (adopted as the
    pinned ``"default"`` tenant — the historical single-tenant shape)
    or an explicit ``registry`` of many tenants, plus a worker count
    for the explain pool.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: Optional[ExplanationService] = None,
        *,
        registry: Optional[TenantRegistry] = None,
        workers: int = 1,
        queue_capacity: int = DEFAULT_CAPACITY,
        tenant_queue_capacity: Optional[int] = None,
        auth_token: Optional[str] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        super().__init__(address, _Handler)
        if registry is None:
            if service is None:
                raise ConfigurationError(
                    "ExplanationServer needs a service or a registry"
                )
            registry = TenantRegistry()
            registry.add_service(DEFAULT_TENANT, service, pinned=True)
        elif service is not None:
            raise ConfigurationError(
                "pass either a service or a registry, not both"
            )
        self.registry = registry
        names = registry.names()
        self.default_tenant: Optional[str] = (
            DEFAULT_TENANT
            if DEFAULT_TENANT in registry
            else (names[0] if len(names) == 1 else None)
        )
        self.auth_token = auth_token
        self.max_body_bytes = max_body_bytes
        self.work_queue = BoundedWorkQueue(
            capacity=queue_capacity,
            workers=workers,
            tenant_capacity=tenant_queue_capacity,
        )

    @property
    def service(self) -> Optional[ExplanationService]:
        """The default tenant's resident service (if materialized)."""
        if self.default_tenant is None:
            return None
        return self.registry.peek(self.default_tenant)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:  # noqa: D102 - stdlib override
        self.work_queue.close()
        super().server_close()


def create_server(
    service: Optional[ExplanationService] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    registry: Optional[TenantRegistry] = None,
    workers: int = 1,
    queue_capacity: int = DEFAULT_CAPACITY,
    tenant_queue_capacity: Optional[int] = None,
    auth_token: Optional[str] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> ExplanationServer:
    """Bind (but do not start) a server; ``port=0`` picks a free port."""
    return ExplanationServer(
        (host, port),
        service,
        registry=registry,
        workers=workers,
        queue_capacity=queue_capacity,
        tenant_queue_capacity=tenant_queue_capacity,
        auth_token=auth_token,
        max_body_bytes=max_body_bytes,
    )


def serve(
    service: Optional[ExplanationService] = None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    registry: Optional[TenantRegistry] = None,
    workers: int = 1,
    queue_capacity: int = DEFAULT_CAPACITY,
    tenant_queue_capacity: Optional[int] = None,
    auth_token: Optional[str] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> None:
    """Blocking serve loop (Ctrl-C to stop)."""
    server = create_server(
        service,
        host,
        port,
        registry=registry,
        workers=workers,
        queue_capacity=queue_capacity,
        tenant_queue_capacity=tenant_queue_capacity,
        auth_token=auth_token,
        max_body_bytes=max_body_bytes,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()


class _PayloadTooLarge(ValidationError):
    """Request body exceeds the server's ``max_body_bytes`` (413)."""


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Reusable JSON-over-HTTP plumbing shared by every repro endpoint.

    Provides bearer-token auth (constant-time compare), bounded body
    reads (:class:`_PayloadTooLarge` -> 413; a negative
    ``Content-Length`` is a 400 before any read), JSON responses, and
    quiet logging. The owning server object must expose ``auth_token``
    (``Optional[str]``) and ``max_body_bytes`` (``int``). The serving
    handler below and the cluster coordinator/worker handlers
    (``repro.runtime.cluster``) all subclass this, so the wire behavior
    — auth failures, body limits, error shapes — is identical across
    the whole HTTP surface.
    """

    def _authorized(self) -> bool:
        """Bearer-token check on POST routes (constant-time compare)."""
        token = self.server.auth_token
        if token is None:
            return True
        header = self.headers.get("Authorization") or ""
        expected = f"Bearer {token}"
        return hmac.compare_digest(header.encode(), expected.encode())

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:  # rfile.read(-1) would block until the client closes
            raise ValidationError(f"negative Content-Length: {length}")
        if length == 0:
            return {}
        if length > self.server.max_body_bytes:
            # refuse before reading or admitting: oversized requests
            # must never occupy memory or a queue slot
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit"
            )
        raw = self.rfile.read(length)
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValidationError("request body must be a JSON object")
        return data

    def _json(self, status: int, payload: Dict[str, Any]) -> None:
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if status == 503:
            self.send_header("Retry-After", "1")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep the CLI/test output clean


class _Handler(JsonRequestHandler):
    server: ExplanationServer  # narrowed type

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route in ("/", "/health"):
                self._json(200, self._health())
            elif route == "/tenants":
                self._json(200, self._tenants())
            elif route == "/explainers":
                self._json(200, self._explainers())
            elif route == "/capabilities":
                self._json(200, {"table": ExplanationService.capabilities()})
            elif route == "/views":
                params = parse_qs(parsed.query)
                tenant = self._tenant_name(params.get("tenant", [None])[0])
                with self.server.registry.acquire(tenant) as svc:
                    if not svc.has_views:
                        self._error(
                            404,
                            f"tenant {tenant!r} has no views generated "
                            "or loaded yet",
                        )
                    else:
                        payload = viewset_to_dict(svc.views)
                        payload["tenant"] = tenant
                        self._json(200, payload)
            else:
                self._error(404, f"unknown route {route!r}")
        except TenantError as exc:
            self._error(404, str(exc))
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # repro: noqa[REPRO401] - HTTP boundary -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route = self.path.split("?", 1)[0].rstrip("/")
        if not self._authorized():
            self._error(401, "missing or invalid bearer token")
            return
        try:
            body = self._read_body()
            if route == "/explain":
                tenant = self._tenant_name(body.get("tenant"))
                # resolve the tenant *before* admission so an unknown
                # name is a 404 that never consumes a queue slot
                self.server.registry.ensure(tenant)
                deadline = self._deadline(body)
                # explains mutate tenant state: admit through the
                # bounded queue and block for the result; a full queue
                # (global backlog or this tenant's depth bound) is
                # immediate backpressure
                try:
                    item = self.server.work_queue.submit(
                        lambda: self._explain(tenant, body, deadline),
                        tenant=tenant,
                        deadline=deadline,
                    )
                except QueueFullError as exc:
                    self._json(
                        503,
                        {
                            "error": str(exc),
                            "scope": exc.scope,
                            "tenant": tenant,
                            "queue": self.server.work_queue.stats(),
                        },
                    )
                    return
                self._json(200, item.result())
            elif route == "/query":
                tenant = self._tenant_name(body.get("tenant"))
                with self.server.registry.acquire(tenant) as svc:
                    self._json(200, self._query(svc, tenant, body))
            else:
                self._error(404, f"unknown route {route!r}")
        except _PayloadTooLarge as exc:
            self._error(413, str(exc))
        except TenantError as exc:
            self._error(404, str(exc))
        except DeadlineExpiredError as exc:
            # the deadline contract (docs/api.md): expired in the queue
            # or mid-dispatch -> 504 with a structured body; the queue
            # depth the request held is already reclaimed
            self._json(
                504,
                {
                    "error": str(exc),
                    "code": "deadline_expired",
                    "queue": self.server.work_queue.stats(),
                },
            )
        except WorkerCrashError as exc:
            self._error(500, str(exc))
        except (ReproError, KeyError, ValueError, TypeError) as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # repro: noqa[REPRO401] - HTTP boundary -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    @staticmethod
    def _deadline(body: Dict[str, Any]) -> Optional[Deadline]:
        """Parse the optional ``deadline_seconds`` budget field."""
        budget = body.get("deadline_seconds")
        if budget is None:
            return None
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise InvalidTypeError(
                "deadline_seconds must be a number of seconds, got "
                f"{type(budget).__name__}"
            )
        return Deadline.after(float(budget))

    def _tenant_name(self, requested: Optional[str]) -> str:
        """Resolve a request's tenant field against the server default."""
        if requested is not None:
            if not isinstance(requested, str):
                raise InvalidTypeError("tenant must be a string")
            return requested
        if self.server.default_tenant is None:
            raise TenantError(
                "this server hosts multiple tenants and has no default; "
                "pass a 'tenant' field "
                f"(registered: {self.server.registry.names()})"
            )
        return self.server.default_tenant

    # ------------------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "status": "ok",
            "queue": self.server.work_queue.stats(),
            "registry": self.server.registry.stats(),
            "default_tenant": self.server.default_tenant,
            "auth": self.server.auth_token is not None,
        }
        # the default tenant's fields stay at the top level (the
        # single-tenant health shape callers already scrape); peek only
        # — a health probe must stay cheap and never materialize a
        # tenant or build an index
        svc = self.server.service
        if svc is not None:
            out["dataset"] = svc.dataset
            out["scale"] = svc.scale
            out["has_model"] = svc._model is not None
            out["has_views"] = svc.has_views
            out["last_method"] = svc.last_method
            if svc.has_views:
                out["labels"] = [str(l) for l in svc.views.labels]
                if svc._index is not None:
                    out["index"] = svc._index.index_stats()
        return out

    def _tenants(self) -> Dict[str, Any]:
        stats = self.server.registry.stats()
        stats["default_tenant"] = self.server.default_tenant
        return stats

    @staticmethod
    def _explainers() -> Dict[str, Any]:
        return {
            "explainers": [
                {
                    "name": spec.name,
                    "aliases": list(spec.aliases),
                    "native_views": spec.native_views,
                    "takes_config": spec.takes_config,
                    "description": spec.description,
                }
                for spec in explainer_specs()
            ]
        }

    def _explain(
        self,
        tenant: str,
        body: Dict[str, Any],
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, Any]:
        """One explain job — runs on a work-queue pool thread."""
        with self.server.registry.acquire(tenant) as svc:
            method = body.get("method", "gvex-approx")
            labels = body.get("labels")
            config: Optional[GvexConfig] = None
            if body.get("config"):
                config = GvexConfig.from_dict(body["config"])
            views = svc.explain(
                method,
                labels=labels,
                config=config,
                processes=int(body.get("processes", 1)),
                deadline=deadline,
            )
            return {
                "tenant": tenant,
                "method": svc.last_method,
                "views": [
                    {
                        "label": view.label,
                        "n_subgraphs": len(view.subgraphs),
                        "n_patterns": len(view.patterns),
                        "score": view.score,
                        "compression": view.compression(),
                    }
                    for view in views
                ],
            }

    def _query(
        self, svc: ExplanationService, tenant: str, body: Dict[str, Any]
    ) -> Dict[str, Any]:
        specs = body.get("patterns")
        if specs is None:
            specs = [body["pattern"]]
        patterns = [pattern_from_spec(s) for s in specs]
        query: Query = Q.all(*(Q.pattern(p) for p in patterns))
        scope = body.get("scope", "explanations")
        query = query & Q.in_scope(scope)
        if body.get("label") is not None:
            query = query & Q.label(body["label"])
        hits = svc.query(query)
        # per-label explanation counts of hosts matching ALL requested
        # patterns (== pattern_statistics for a single pattern), so the
        # statistics block always describes the same conjunction the
        # matches do
        stats_q = Q.all(*(Q.pattern(p) for p in patterns))
        stats = {
            str(label): svc.index.count(stats_q & Q.label(label))
            for label in svc.views.labels
        }
        return {
            "tenant": tenant,
            "scope": scope,
            "matches": [
                {
                    "label": hit.label,
                    "graph_index": hit.graph_index,
                    "in_explanation": hit.in_explanation,
                }
                for hit in hits
            ],
            "statistics": stats,
        }


__all__ = [
    "ExplanationServer",
    "JsonRequestHandler",
    "create_server",
    "serve",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_MAX_BODY_BYTES",
]
