"""HTTP request handlers for cluster endpoints.

Both handlers subclass the serving layer's
:class:`~repro.api.server.JsonRequestHandler`, so bearer auth,
body-size limits (413), JSON error shapes, and quiet logging are the
same wire behavior the ``repro.cli serve`` endpoint already proves.
Mutating routes (every POST) require the cluster token when one is
configured; GET diagnostics stay open, matching the serving layer's
policy.

Wire validation errors map to HTTP statuses the dispatcher can reason
about: a :class:`~repro.exceptions.WireVersionError` or
:class:`~repro.exceptions.WireError` is a ``400`` (the *sender* is
broken), an unknown worker heartbeat is a ``404`` (re-register), and
anything unexpected is a ``500``.
"""

from __future__ import annotations

from repro.api.server import JsonRequestHandler, _PayloadTooLarge
from repro.exceptions import (
    ClusterError,
    DeadlineExpiredError,
    ReproError,
    WireError,
)
from repro.runtime.cluster import wire


class CoordinatorHandler(JsonRequestHandler):
    """Routes of :class:`~repro.runtime.cluster.ClusterCoordinator`."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        coord = self.server.coordinator
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if route in ("/", "/status", "/health"):
                self._json(200, coord.status())
            else:
                self._error(404, f"unknown route {route!r}")
        except Exception as exc:  # repro: noqa[REPRO401] - HTTP boundary -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        coord = self.server.coordinator
        route = self.path.split("?", 1)[0].rstrip("/")
        if not self._authorized():
            self._error(401, "missing or invalid bearer token")
            return
        try:
            body = self._read_body()
            if route == "/register":
                self._json(200, coord.register(wire.decode_register(body)))
            elif route == "/heartbeat":
                self._json(200, coord.heartbeat(wire.decode_heartbeat(body)))
            else:
                self._error(404, f"unknown route {route!r}")
        except _PayloadTooLarge as exc:
            self._error(413, str(exc))
        except WireError as exc:
            self._error(400, str(exc))
        except ClusterError as exc:
            self._error(404, str(exc))
        except (ReproError, ValueError, TypeError) as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # repro: noqa[REPRO401] - HTTP boundary -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")


class WorkerHandler(JsonRequestHandler):
    """Routes of :class:`~repro.runtime.cluster.ClusterWorker`."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        worker = self.server.worker
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if route in ("/", "/health"):
                self._json(200, worker.health())
            else:
                self._error(404, f"unknown route {route!r}")
        except Exception as exc:  # repro: noqa[REPRO401] - HTTP boundary -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        worker = self.server.worker
        route = self.path.split("?", 1)[0].rstrip("/")
        if not self._authorized():
            self._error(401, "missing or invalid bearer token")
            return
        try:
            body = self._read_body()
            if route == "/shard":
                self._json(200, worker.run_dispatch(wire.decode_dispatch(body)))
            elif route == "/shutdown":
                self._json(200, {"worker_id": worker.worker_id, "stopping": True})
                worker.request_stop()
            else:
                self._error(404, f"unknown route {route!r}")
        except _PayloadTooLarge as exc:
            self._error(413, str(exc))
        except WireError as exc:
            self._error(400, str(exc))
        except DeadlineExpiredError as exc:
            # a refused spent-budget dispatch: 504 tells the retrying
            # coordinator the *deadline* failed, not the worker
            self._json(
                504,
                {
                    "error": str(exc),
                    "code": "deadline_expired",
                    "worker_id": worker.worker_id,
                },
            )
        except (ReproError, ValueError, TypeError) as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # repro: noqa[REPRO401] - HTTP boundary -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")


__all__ = ["CoordinatorHandler", "WorkerHandler"]
