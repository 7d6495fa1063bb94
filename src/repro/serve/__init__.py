"""Concurrent query serving: sessions, admission control, semantic cache.

The ROADMAP's target workload is many clients replaying overlapping SSBM
flights.  This package puts a service in front of both engines:

* :class:`~repro.serve.service.QueryService` — owns the engines, admits a
  bounded number of in-flight queries (FIFO queue, per-query deadlines),
  and drains gracefully;
* :class:`~repro.serve.session.Session` — one logical client's engine
  choice, execution config, and running tallies;
* :class:`~repro.serve.semcache.SemanticCache` — normalizes each query's
  predicates and caches result tables, answering an exact structural
  repeat verbatim; anything else runs on the engine;
* :mod:`~repro.serve.resilience` — per-scope circuit breakers on a
  deterministic simulated clock, cooperative cancellation tokens for
  deadline propagation, and the primitives behind priority-aware load
  shedding and degraded (exact-hit-only) serving.

See ``docs/serving.md`` for the admission and keying rules, and
``docs/robustness.md`` ("service resilience") for breakers, shedding,
and degraded-mode honesty.
"""

from ..errors import (
    AdmissionError,
    BreakerOpenError,
    DeadlineError,
    QueryCancelledError,
    ServeError,
    ServiceError,
    ShedError,
)
from .resilience import BreakerBoard, CancellationToken, ServiceClock
from .semcache import SemanticCache
from .service import QueryService, ServiceConfig, ServiceRun
from .session import Session

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceRun",
    "Session",
    "SemanticCache",
    "ServiceClock",
    "CancellationToken",
    "BreakerBoard",
    "ServeError",
    "ServiceError",
    "AdmissionError",
    "DeadlineError",
    "ShedError",
    "QueryCancelledError",
    "BreakerOpenError",
]
