"""Per-client session state for the query service.

A :class:`Session` is one logical client: which engine it targets, the
execution config (column store) or physical design (row store) it runs
under, whether it wants cache service, and running tallies of what it
got.  Sessions are cheap descriptors — all heavy state (engines, cache,
admission) lives on the :class:`~repro.serve.service.QueryService` that
issued them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from ..core.config import ExecutionConfig
from ..plan.logical import StarQuery
from ..rowstore.designs import DesignKind
from ..storage.colfile import CompressionLevel


@dataclass
class SessionStats:
    """What one session has been served so far."""

    submitted: int = 0
    completed: int = 0
    errors: int = 0
    exact_hits: int = 0
    engine_runs: int = 0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0


class Session:
    """One logical client of a :class:`QueryService`."""

    def __init__(
        self,
        service: "object",
        name: str,
        engine: str = "cs",
        config: Optional[ExecutionConfig] = None,
        level: Optional[CompressionLevel] = None,
        design: DesignKind = DesignKind.TRADITIONAL,
        cached: bool = True,
        priority: int = 0,
    ) -> None:
        if engine not in ("cs", "rs"):
            raise ValueError(f"unknown engine {engine!r} (expected cs or rs)")
        self.service = service
        self.name = name
        self.engine = engine
        self.config = config if config is not None \
            else ExecutionConfig.baseline()
        self.level = level
        self.design = design
        self.cached = cached
        #: brownout class: <= 0 is sheddable when the service is over
        #: its latency threshold; > 0 rides out the brownout
        self.priority = priority
        self.stats = SessionStats()
        self.closed = False
        self._lock = threading.Lock()

    def execute(self, query: StarQuery, cached: Optional[bool] = None,
                timeout: Optional[float] = None,
                deadline: Optional[float] = None,
                sim_deadline: Optional[float] = None,
                priority: Optional[int] = None):
        """Submit ``query`` through the owning service (blocking)."""
        return self.service.submit(query, session=self, cached=cached,
                                   timeout=timeout, deadline=deadline,
                                   sim_deadline=sim_deadline,
                                   priority=priority)

    def execute_sql(self, sql: str, **kwargs):
        """Parse and serve one SQL statement through the owning service
        (SELECT returns a ``ServiceRun``; INSERT/DELETE return rows
        affected)."""
        return self.service.execute_sql(sql, session=self, **kwargs)

    def note_submitted(self) -> None:
        with self._lock:
            self.stats.submitted += 1

    def note_result(self, source: str, simulated_seconds: float,
                    wall_seconds: float) -> None:
        with self._lock:
            self.stats.completed += 1
            if source == "cache-exact":
                self.stats.exact_hits += 1
            else:
                self.stats.engine_runs += 1
            self.stats.simulated_seconds += simulated_seconds
            self.stats.wall_seconds += wall_seconds

    def note_error(self) -> None:
        with self._lock:
            self.stats.errors += 1

    def close(self) -> None:
        self.closed = True


__all__ = ["Session", "SessionStats"]
