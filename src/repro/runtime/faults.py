"""Deterministic fault injection for transport and journal I/O.

``tests/test_cluster_faults.py`` used to induce failures ad hoc —
monkeypatched methods, hand-rolled rogue servers. This module replaces
that with a *plan*: a :class:`FaultPlan` decides, purely as a function
of its seed (or an explicit spec list), which call index at which
named **site** suffers which fault. The transport layer
(:func:`repro.runtime.cluster.transport.post_json` and friends) and
the shard journal (:class:`repro.runtime.cluster.journal.ShardJournal`)
consult the plan before touching the socket or the file, so a whole
cluster run's fault sequence is reproducible from one integer.

Fault kinds (:data:`FAULT_KINDS`):

``drop``       connection refused before the request is sent (transient)
``reset``      connection reset mid-exchange (transient)
``timeout``    the request times out (transient)
``http_503``   the peer answers ``503 Service Unavailable`` (transient)
``http_401``   the peer answers ``401 Unauthorized`` (fatal)
``delay``      the exchange is slowed by ``spec.delay`` seconds (no error)
``torn_write`` a journal append persists only a prefix of its record

Determinism contract: :meth:`FaultPlan.seeded` derives its entire
schedule from ``(seed, sites, kinds, rate, horizon)`` with a private
``random.Random(seed)`` — two plans built with the same arguments have
equal :meth:`schedule`\\ s, so re-running a chaos soak with a seed
reproduces the identical fault sequence (docs/faults.md). Call-index
counters are kept per site under a lock, so concurrent dispatcher
threads see one consistent numbering.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError

#: every injectable fault kind
FAULT_KINDS: Tuple[str, ...] = (
    "drop",
    "reset",
    "timeout",
    "http_503",
    "http_401",
    "delay",
    "torn_write",
)

#: kinds that make sense at a transport site (everything but torn_write)
TRANSPORT_KINDS: Tuple[str, ...] = (
    "drop",
    "reset",
    "timeout",
    "http_503",
    "delay",
)

#: the canonical site names the runtime consults
SITE_DISPATCH = "dispatch"
SITE_HEARTBEAT = "heartbeat"
SITE_REGISTER = "register"
SITE_JOURNAL = "journal.append"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: at ``site``'s ``index``-th call, do ``kind``."""

    site: str
    index: int
    kind: str
    #: seconds slept for ``delay`` faults (ignored otherwise)
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {list(FAULT_KINDS)})"
            )
        if self.index < 0:
            raise ValidationError(
                f"fault call index must be >= 0, got {self.index}"
            )


class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    Thread-safe: per-site call counters advance under one lock, and the
    :attr:`injected` log records every fault actually fired (in firing
    order) for post-run assertions.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: Dict[Tuple[str, int], FaultSpec] = {}
        for spec in specs:
            key = (spec.site, spec.index)
            if key in self._specs:
                raise ValidationError(
                    f"duplicate fault spec for site {spec.site!r} "
                    f"index {spec.index}"
                )
            self._specs[key] = spec
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        #: faults actually fired, in firing order
        self.injected: List[FaultSpec] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Sequence[str] = (SITE_DISPATCH,),
        kinds: Optional[Sequence[str]] = None,
        rate: float = 0.25,
        horizon: int = 64,
        delay: float = 0.02,
    ) -> "FaultPlan":
        """A randomized-but-reproducible plan.

        For each site and each call index below ``horizon``, an
        injection fires with probability ``rate``, drawing its kind
        uniformly from ``kinds`` (default: the transport kinds for
        transport sites, ``torn_write`` for journal sites). The whole
        schedule is a pure function of the arguments: equal arguments
        give equal :meth:`schedule`\\ s.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"fault rate must be in [0, 1], got {rate}")
        if horizon < 0:
            raise ValidationError(f"horizon must be >= 0, got {horizon}")
        rng = random.Random(int(seed))
        specs: List[FaultSpec] = []
        for site in sites:
            site_kinds = tuple(kinds) if kinds is not None else (
                ("torn_write",)
                if site.startswith("journal")
                else TRANSPORT_KINDS
            )
            for index in range(horizon):
                if rng.random() < rate:
                    kind = site_kinds[rng.randrange(len(site_kinds))]
                    specs.append(
                        FaultSpec(site=site, index=index, kind=kind, delay=delay)
                    )
        return cls(specs, seed=seed)

    def schedule(self) -> Tuple[FaultSpec, ...]:
        """The full planned schedule, sorted (site, index) — pure data."""
        return tuple(
            self._specs[key] for key in sorted(self._specs)
        )

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def _take(self, site: str) -> Optional[FaultSpec]:
        """Advance ``site``'s call counter; return the fault due, if any."""
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
            spec = self._specs.get((site, index))
            if spec is not None:
                self.injected.append(spec)
            return spec

    def before_request(self, site: str) -> None:
        """Transport hook: raise/delay per the schedule.

        Called by ``transport.post_json`` before the exchange. Raised errors are :class:`TransportError`\\ s carrying
        the same transient/fatal classification a real failure would,
        so the retry policy and circuit breaker exercise their real
        code paths.
        """
        spec = self._take(site)
        if spec is None:
            return
        if spec.kind == "delay":
            time.sleep(spec.delay)
            return
        from repro.exceptions import TransportError

        if spec.kind == "drop":
            raise TransportError(
                f"[injected:{site}#{spec.index}] connection refused"
            )
        if spec.kind == "reset":
            raise TransportError(
                f"[injected:{site}#{spec.index}] connection reset by peer"
            )
        if spec.kind == "timeout":
            raise TransportError(
                f"[injected:{site}#{spec.index}] timed out"
            )
        if spec.kind == "http_503":
            raise TransportError(
                f"[injected:{site}#{spec.index}] answered HTTP 503",
                status=503,
            )
        if spec.kind == "http_401":
            raise TransportError(
                f"[injected:{site}#{spec.index}] answered HTTP 401",
                status=401,
            )
        raise ValidationError(  # pragma: no cover - kinds validated above
            f"fault kind {spec.kind!r} cannot fire at transport site {site!r}"
        )

    def torn_write(self, site: str = SITE_JOURNAL) -> bool:
        """Journal hook: True if this append must tear (persist a prefix)."""
        spec = self._take(site)
        return spec is not None and spec.kind == "torn_write"

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "planned": len(self._specs),
                "injected": len(self.injected),
                **{
                    f"calls[{site}]": count
                    for site, count in sorted(self._counters.items())
                },
            }

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} planned={len(self._specs)} "
            f"injected={len(self.injected)}>"
        )


__all__ = [
    "FAULT_KINDS",
    "TRANSPORT_KINDS",
    "SITE_DISPATCH",
    "SITE_HEARTBEAT",
    "SITE_REGISTER",
    "SITE_JOURNAL",
    "FaultSpec",
    "FaultPlan",
]
