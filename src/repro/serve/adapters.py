"""Engine adapters: one uniform surface the service drives both engines
through.

Each adapter names a session's cache scope and shard count and executes
a query for it.  The work an execution does is charged to the ledger the
engine installs for that run; the service folds it into the requesting
query's ledger.
"""

from __future__ import annotations

from typing import Tuple

from ..colstore.engine import CStore
from ..errors import PlanError
from ..plan.logical import StarQuery
from ..rowstore.engine import SystemX
from ..storage.colfile import CompressionLevel
from .session import Session


# ---------------------------------------------------------------------- #
# column store
# ---------------------------------------------------------------------- #
class ColumnStoreAdapter:
    """Drives a :class:`CStore` for the service."""

    kind = "cs"

    def __init__(self, engine: CStore) -> None:
        self.engine = engine

    def level(self, session: Session) -> CompressionLevel:
        if session.level is not None:
            return session.level
        return (CompressionLevel.MAX if session.config.compression
                else CompressionLevel.NONE)

    def scope(self, session: Session) -> Tuple:
        # zone maps and sharding never change results, but scoping on
        # them keeps cached ledgers/traces comparable within one
        # setting (and isolates each shard set's cache)
        return ("cs", session.config.label, self.level(session).value,
                "zm" if session.config.zone_maps else "",
                f"sh{session.config.shards}")

    def shard_count(self, session: Session) -> int:
        return session.config.shards

    def execute(self, query: StarQuery, session: Session,
                cancellation=None):
        return self.engine.execute(query, session.config, session.level,
                                   cancellation=cancellation)

    def refilter(self, *args, **kwargs):
        """Always raises :class:`PlanError`: the cache keeps no position
        sets.  Kept only as a patch point of the end-to-end benchmark's
        tracer (``benchmarks/e2e/tracing.py``); the ``[benchmark]`` change
        of ROADMAP item 0(f) retires it."""
        raise PlanError("the cache keeps no position sets to re-filter")


# ---------------------------------------------------------------------- #
# row store
# ---------------------------------------------------------------------- #
class RowStoreAdapter:
    """Drives a :class:`SystemX` for the service."""

    kind = "rs"

    def __init__(self, engine: SystemX) -> None:
        self.engine = engine

    def scope(self, session: Session) -> Tuple:
        return ("rs", session.design.value,
                "zm" if self.engine.zone_maps else "",
                f"sh{self.engine.shards}")

    def shard_count(self, session: Session) -> int:
        return self.engine.shards

    def execute(self, query: StarQuery, session: Session,
                cancellation=None):
        return self.engine.execute(query, session.design,
                                   cancellation=cancellation)

    def refilter(self, *args, **kwargs):
        """Always raises :class:`PlanError`, like
        :meth:`ColumnStoreAdapter.refilter`, and kept for the same
        tracer patch point until ROADMAP item 0(f)."""
        raise PlanError("the cache keeps no position sets to re-filter")


__all__ = ["ColumnStoreAdapter", "RowStoreAdapter"]
