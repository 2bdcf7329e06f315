"""HTTP client plumbing for cluster peers (stdlib ``urllib`` only).

One call — POST a JSON object, read a JSON object back — with bearer
auth and a hard timeout. Every failure mode collapses into one typed
exception, :class:`~repro.exceptions.TransportError`, but failures are
no longer equal: each error carries a **classification** (``status``,
``transient``) that :class:`RetryPolicy` acts on:

* transient — connection refused/reset, timeout, and backpressure
  statuses (:data:`TRANSIENT_STATUSES`: 408, 429, 500, 502, 503, 504)
  → worth retrying with backoff;
* fatal — 401/404 and unparseable bodies → retrying the identical
  request can only fail identically, so the policy raises immediately.

Wire-schema validation stays out of this module — callers decode the
returned object with ``cluster.wire`` (a :class:`WireError` is always
fatal).

:func:`post_json` accepts an optional
:class:`~repro.runtime.faults.FaultPlan` plus a ``site`` name; the plan
is consulted *before* the socket is touched, so chaos tests inject
drops/resets/503s deterministically through the same retry/breaker
code paths real failures take (docs/faults.md).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, TypeVar
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.exceptions import TransportError, ValidationError
from repro.runtime.deadline import Deadline

#: default per-request timeout; dispatch calls override this with the
#: coordinator's configured request timeout (``--transport-timeout``)
DEFAULT_TIMEOUT = 30.0

#: HTTP statuses classified as transient (re-exported from the
#: exception class so retry code can import everything from here)
TRANSIENT_STATUSES = TransportError.TRANSIENT_STATUSES

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Budget-capped exponential backoff with deterministic jitter.

    ``delay(attempt, salt)`` is a pure function of the policy's fields
    — the jitter comes from ``random.Random(f"{seed}:{salt}:{attempt}")``,
    not shared global state — so a cluster run's retry timing is
    reproducible from its seed and thread-safe without locks.

    :meth:`call` retries **only transient** :class:`TransportError`\\ s
    (fatal ones re-raise immediately) and never sleeps past the
    caller's :class:`~repro.runtime.deadline.Deadline`: when the budget
    cannot cover the next backoff, the last transient error is raised
    so the caller sees why the work could not complete in time.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValidationError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValidationError("retry delays must be >= 0")

    def delay(self, attempt: int, salt: str = "") -> float:
        """Backoff before retry ``attempt`` (0-based): exponential,
        capped at ``max_delay``, jittered into [50%, 100%]."""
        raw = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        jitter = random.Random(f"{self.seed}:{salt}:{attempt}").random()
        return raw * (0.5 + 0.5 * jitter)

    def call(
        self,
        fn: Callable[[], T],
        *,
        salt: str = "",
        deadline: Optional[Deadline] = None,
    ) -> T:
        """Run ``fn`` with up to ``attempts`` tries."""
        last: Optional[TransportError] = None
        for attempt in range(self.attempts):
            if deadline is not None:
                deadline.require("transport attempt")
            try:
                return fn()
            except TransportError as exc:
                if not exc.transient:
                    raise
                last = exc
                if attempt + 1 >= self.attempts:
                    break
                pause = self.delay(attempt, salt)
                if deadline is not None and deadline.remaining() < pause:
                    break
                if pause > 0:
                    time.sleep(pause)
        assert last is not None
        raise last


def _headers(token: Optional[str]) -> Dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _exchange(request: Request, timeout: float) -> Dict[str, Any]:
    try:
        with urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except HTTPError as exc:
        detail = ""
        try:
            body = json.loads(exc.read().decode("utf-8"))
            detail = f": {body.get('error', body)}"
        except Exception:  # repro: noqa[REPRO401] - best-effort detail
            pass
        raise TransportError(
            f"{request.full_url} answered HTTP {exc.code}{detail}",
            status=exc.code,
        ) from exc
    except (URLError, OSError, TimeoutError) as exc:
        raise TransportError(
            f"{request.full_url} unreachable: {exc}", transient=True
        ) from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TransportError(
            f"{request.full_url} returned a non-JSON body", transient=False
        ) from exc
    if not isinstance(payload, dict):
        raise TransportError(
            f"{request.full_url} returned a non-object JSON body",
            transient=False,
        )
    return payload


def post_json(
    url: str,
    payload: Dict[str, Any],
    *,
    token: Optional[str] = None,
    timeout: float = DEFAULT_TIMEOUT,
    faults: Optional[Any] = None,
    site: str = "",
) -> Dict[str, Any]:
    """POST a JSON object; return the (JSON object) response body."""
    if faults is not None:
        faults.before_request(site or url)
    body = json.dumps(payload).encode("utf-8")
    return _exchange(
        Request(url, data=body, headers=_headers(token), method="POST"),
        timeout,
    )


__all__ = [
    "DEFAULT_TIMEOUT",
    "TRANSIENT_STATUSES",
    "RetryPolicy",
    "post_json",
]
