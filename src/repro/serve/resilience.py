"""Service-level resilience primitives: clock, cancellation, breakers.

Everything here is deterministic under the *simulated* clock: the
:class:`ServiceClock` advances only by the priced simulated seconds of
finished queries, so breaker cooldowns and half-open transitions depend
on the submission order and the cost model — never on wall time, thread
scheduling, or host speed.

* :class:`ServiceClock` — a logical clock in simulated seconds.
* :class:`CancellationToken` — cooperative cancellation checked at every
  page access.  Carries an optional wall deadline and an
  optional simulated-seconds budget; either (or an explicit
  :meth:`~CancellationToken.cancel`) turns the next boundary check into
  a typed :class:`~repro.errors.QueryCancelledError`.
* :class:`BreakerBoard` — per-scope circuit breakers keyed on
  ``(engine, fact table)``.  A breaker opens after ``threshold``
  consecutive qualifying failures, rejects (or degrades) queries while
  open, half-opens after ``cooldown`` simulated seconds, and closes
  again on one successful trial.

See ``docs/robustness.md`` ("service resilience") for the state machine
and the honesty rules of degraded serving.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import QueryCancelledError


class ServiceClock:
    """A logical clock measured in accumulated simulated seconds.

    The service advances it once per finished submission (success or
    failure), so "time" passes exactly as fast as the workload burns
    simulated seconds — reproducible for a given submission order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward (negative deltas are ignored)."""
        with self._lock:
            if seconds > 0:
                self._now += seconds
            return self._now


class CancellationToken:
    """Cooperative cancellation for one query execution.

    The service installs the token on the engine's simulated disk for
    the duration of the query (engine executions are serialized per
    engine, so the slot is single-writer); the disk and buffer pool call
    :meth:`check` before every page access.  Checks never touch the
    ledger they are given — cancellation is observable only as the
    typed error.
    """

    def __init__(self, deadline_at: Optional[float] = None,
                 sim_budget: Optional[float] = None,
                 cost_model=None) -> None:
        if sim_budget is not None and cost_model is None:
            raise ValueError("a simulated-seconds budget needs a cost model")
        self.deadline_at = deadline_at          # time.monotonic() instant
        self.sim_budget = sim_budget            # simulated seconds
        self.cost_model = cost_model
        self._cancelled: Optional[str] = None

    def cancel(self, reason: str = "cancelled by the service") -> None:
        self._cancelled = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled is not None

    def check(self, stats=None) -> None:
        """Raise :class:`QueryCancelledError` if the query must stop.

        ``stats`` is the ledger priced against the simulated-seconds
        budget; ``None`` skips that check (wall deadline and explicit
        cancellation still apply).
        """
        if self._cancelled is not None:
            raise QueryCancelledError(self._cancelled)
        if self.deadline_at is not None \
                and time.monotonic() >= self.deadline_at:
            raise QueryCancelledError("wall deadline expired mid-execution")
        if self.sim_budget is not None and stats is not None:
            spent = self.cost_model.cost(stats).total_seconds
            if spent > self.sim_budget:
                raise QueryCancelledError(
                    f"simulated-seconds budget exhausted "
                    f"({spent:.6f}s > {self.sim_budget:.6f}s)")


#: breaker states (exposed in ``serve_stats()`` / ``\serve stats``)
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class _Breaker:
    """One scope's breaker state (mutated under the board's lock)."""

    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    trial_in_flight: bool = False


class BreakerBoard:
    """Per-scope circuit breakers on a deterministic clock.

    ``admit`` is called before an engine touch, ``record_failure`` /
    ``record_success`` after it; all transitions are counted through the
    ``counter`` callback (the service aims it at its
    :class:`~repro.serve.service.ServiceStats`).
    """

    def __init__(self, threshold: int, cooldown: float,
                 counter=None) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._counter = counter or (lambda **kw: None)
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple, _Breaker] = {}

    def _get(self, scope: Tuple) -> _Breaker:
        breaker = self._breakers.get(scope)
        if breaker is None:
            breaker = self._breakers[scope] = _Breaker()
        return breaker

    def admit(self, scope: Tuple, now: float) -> str:
        """Gate one engine touch for ``scope``.

        Returns the effective state: ``CLOSED`` (go ahead), ``HALF_OPEN``
        (go ahead — this call holds the single trial slot), or ``OPEN``
        (do not touch the engine; serve degraded or reject).
        """
        with self._lock:
            breaker = self._get(scope)
            if breaker.state == OPEN \
                    and now - breaker.opened_at >= self.cooldown:
                breaker.state = HALF_OPEN
                breaker.trial_in_flight = False
                self._counter(breaker_half_opens=1)
            if breaker.state == CLOSED:
                return CLOSED
            if breaker.state == HALF_OPEN and not breaker.trial_in_flight:
                breaker.trial_in_flight = True
                return HALF_OPEN
            return OPEN

    def abandon_trial(self, scope: Tuple) -> None:
        """Return a half-open trial slot that never touched the engine
        (e.g. the query was answered from the result cache)."""
        with self._lock:
            breaker = self._breakers.get(scope)
            if breaker is not None and breaker.state == HALF_OPEN:
                breaker.trial_in_flight = False

    def record_failure(self, scope: Tuple, now: float) -> None:
        """One qualifying engine failure for ``scope``."""
        with self._lock:
            breaker = self._get(scope)
            if breaker.state == HALF_OPEN:
                # the trial failed: straight back to open, cooldown anew
                breaker.state = OPEN
                breaker.opened_at = now
                breaker.trial_in_flight = False
                breaker.consecutive_failures = self.threshold
                self._counter(breaker_opens=1)
                return
            breaker.consecutive_failures += 1
            if breaker.state == CLOSED \
                    and breaker.consecutive_failures >= self.threshold:
                breaker.state = OPEN
                breaker.opened_at = now
                self._counter(breaker_opens=1)

    def record_success(self, scope: Tuple) -> None:
        """One successful engine touch for ``scope``."""
        with self._lock:
            breaker = self._breakers.get(scope)
            if breaker is None:
                return
            if breaker.state == HALF_OPEN:
                self._counter(breaker_closes=1)
            breaker.state = CLOSED
            breaker.consecutive_failures = 0
            breaker.trial_in_flight = False

    def state_of(self, scope: Tuple) -> str:
        with self._lock:
            breaker = self._breakers.get(scope)
            return breaker.state if breaker is not None else CLOSED

    def states(self) -> Dict[str, str]:
        """Every scope's state, keyed by a printable scope string."""
        with self._lock:
            return {"/".join(str(part) for part in scope): b.state
                    for scope, b in sorted(self._breakers.items())}

    def open_scopes(self) -> List[Tuple]:
        with self._lock:
            return sorted(scope for scope, b in self._breakers.items()
                          if b.state != CLOSED)


__all__ = ["ServiceClock", "CancellationToken", "BreakerBoard",
           "CLOSED", "OPEN", "HALF_OPEN"]
