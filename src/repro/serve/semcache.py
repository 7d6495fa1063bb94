"""Predicate normalization and the semantic result cache.

The cache stores the final :class:`~repro.result.ResultSet` of a query,
keyed on the query's full structural identity rather than its text:
predicates (normalized), grouping, aggregates, ordering and limit.  An
exact structural repeat is served verbatim; anything else is a miss and
runs on the engine.

Normalization folds each table's conjunctive predicates into one
constraint per column, with the constraint algebra of
:mod:`repro.plan.predicates`: an ``Interval`` (possibly half-bounded) or
a ``ValueSet``.  Texts that differ only in how they spell the same
constraints (``lo.quantity < 25 AND lo.quantity < 30`` and
``lo.quantity < 25``, or predicates in another order) share an entry.

Admission is cost-aware (only queries whose priced simulated-seconds
reach a threshold are worth remembering) and eviction is byte-budget
LRU.  The cache never touches the simulated disk: a lookup costs the
requesting query nothing on its ledger but the lookup counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..plan.logical import BinOp, ColumnRef, Expr, Literal, StarQuery
from ..plan.predicates import (Constraint, check_constraint, constraint_of,
                               intersect)
from ..result import ResultSet
from ..ssb.schema import SCHEMAS


# ---------------------------------------------------------------------- #
# query signatures
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PredicateSignature:
    """A query's normalized predicates: one constraint per (table,
    column), sorted — the predicate part of :func:`query_key`."""

    fact_table: str
    constraints: Tuple[Tuple[str, str, Constraint], ...]


#: whether each SSB column holds strings, keyed (table, column)
_IS_STRING = {(table, field.name): field.ctype.is_string
              for table, schema in SCHEMAS.items() for field in schema}


def normalize_query(query: StarQuery) -> PredicateSignature:
    """Fold the query's conjunctive predicates into one constraint per
    (table, column), type-checking the literals of each fold first."""
    folded: Dict[Tuple[str, str], Constraint] = {}
    for pred in query.predicates:
        key = (pred.table, pred.column)
        constraint = constraint_of(pred)
        if key in folded:
            if key in _IS_STRING:  # typed before a fold compares them
                for side in (folded[key], constraint):
                    check_constraint(side, _IS_STRING[key], pred.column)
            constraint = intersect(folded[key], constraint)
        folded[key] = constraint
    return PredicateSignature(
        fact_table=query.fact_table,
        constraints=tuple((t, c, folded[(t, c)])
                          for t, c in sorted(folded)),
    )


def _expr_key(expr: Expr) -> Tuple:
    if isinstance(expr, ColumnRef):
        return ("col", expr.table, expr.column)
    if isinstance(expr, Literal):
        return ("lit", expr.value)
    if isinstance(expr, BinOp):
        return ("bin", expr.op, _expr_key(expr.left), _expr_key(expr.right))
    raise TypeError(f"unknown expression type {type(expr).__name__}")


def query_key(query: StarQuery) -> Tuple:
    """The query's full structural identity — predicates (normalized),
    grouping, aggregates, ordering, limit — independent of its name."""
    return (
        query.fact_table,
        tuple(sorted(query.joins.items())),
        tuple(sorted(query.dim_keys.items())),
        normalize_query(query).constraints,
        tuple((g.table, g.column) for g in query.group_by),
        tuple((a.func, _expr_key(a.expr), a.alias)
              for a in query.aggregates),
        tuple((o.key, o.ascending) for o in query.order_by),
        query.limit,
    )


# ---------------------------------------------------------------------- #
# entries
# ---------------------------------------------------------------------- #
@dataclass
class ResultEntry:
    """A cached final result table."""

    key: Tuple
    result: ResultSet
    seconds: float
    tables: FrozenSet[str]
    nbytes: int


@dataclass
class CacheCounters:
    """Storage-side tallies (hit/miss counters live on each query's
    :class:`~repro.simio.stats.QueryStats` and in the service stats)."""

    admitted: int = 0
    rejected_cheap: int = 0
    evictions: int = 0
    invalidations: int = 0


class SemanticCache:
    """Thread-safe byte-budget LRU over result entries."""

    def __init__(self, budget_bytes: int = 64 << 20,
                 admit_seconds: float = 1e-3) -> None:
        self.budget_bytes = budget_bytes
        self.admit_seconds = admit_seconds
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, ResultEntry]" = OrderedDict()
        self._bytes = 0
        self.counters = CacheCounters()

    # -------------------------------------------------------------- #
    # lookup
    # -------------------------------------------------------------- #
    def lookup_result(self, scope: Tuple, query: StarQuery
                      ) -> Optional[ResultSet]:
        """The cached result for an exact structural repeat, if any."""
        key = ("result", scope, query_key(query))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return ResultSet(list(entry.result.columns),
                             list(entry.result.rows))

    def find_subsuming(self, *args, **kwargs) -> None:
        """Always None: the cache keeps no position sets to subsume from.
        Kept only as a patch point of the end-to-end benchmark's tracer
        (``benchmarks/e2e/tracing.py``); the ``[benchmark]`` change of
        ROADMAP item 0(f) retires it."""
        return None

    # -------------------------------------------------------------- #
    # admission / eviction
    # -------------------------------------------------------------- #
    def worth_admitting(self, seconds: float) -> bool:
        """The cost-aware admission policy: cheap queries are not worth
        the bytes (re-running them costs less than a cache slot)."""
        return seconds >= self.admit_seconds

    def admit_result(self, scope: Tuple, query: StarQuery,
                     result: ResultSet, seconds: float,
                     tables: FrozenSet[str]) -> bool:
        if not self.worth_admitting(seconds):
            with self._lock:
                self.counters.rejected_cheap += 1
            return False
        key = ("result", scope, query_key(query))
        entry = ResultEntry(
            key=key,
            result=ResultSet(list(result.columns), list(result.rows)),
            seconds=seconds,
            tables=tables,
            nbytes=_result_nbytes(result),
        )
        self._insert(entry)
        return True

    def admit_positions(self, *args, **kwargs) -> bool:
        """Always False: nothing but results is admitted.  Kept only as a
        patch point of the end-to-end benchmark's tracer; the
        ``[benchmark]`` change of ROADMAP item 0(f) retires it."""
        return False

    def _insert(self, entry: ResultEntry) -> None:
        with self._lock:
            old = self._entries.pop(entry.key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[entry.key] = entry
            self._bytes += entry.nbytes
            self.counters.admitted += 1
            removed = old is not None
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                _key, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.counters.evictions += 1
                removed = True
            if removed:
                self._check_bytes()

    def _check_bytes(self) -> None:
        """Assert the byte gauge against ground truth (caller holds the
        lock).  Runs after every mutation that removes entries and in
        ``snapshot()`` — a plain insert only adds to the gauge — because
        the gauge drives eviction and the ``snapshot()`` numbers, so
        silent drift would corrupt both long before anything visibly
        failed."""
        actual = sum(e.nbytes for e in self._entries.values())
        if self._bytes != actual or self._bytes < 0:
            raise AssertionError(
                f"semantic-cache byte accounting drifted: gauge "
                f"{self._bytes}, entries sum to {actual}")

    # -------------------------------------------------------------- #
    # invalidation
    # -------------------------------------------------------------- #
    def discard(self, key: Tuple) -> None:
        """Drop one entry."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry.nbytes
            self._check_bytes()

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop every entry touching ``table`` (all entries when
        ``None``) — the hook a data mutation would call.  Returns the
        number of entries dropped.  Victims are collected *before* any
        pop so the gauge is decremented against a stable view of
        ``_entries``."""
        with self._lock:
            if table is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._bytes = 0
            else:
                victims = [k for k, e in self._entries.items()
                           if table in e.tables]
                for key in victims:
                    entry = self._entries.pop(key)
                    self._bytes -= entry.nbytes
                dropped = len(victims)
            self.counters.invalidations += dropped
            self._check_bytes()
            return dropped

    def clear(self) -> int:
        return self.invalidate(None)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #
    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            self._check_bytes()
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "admitted": self.counters.admitted,
                "rejected_cheap": self.counters.rejected_cheap,
                "evictions": self.counters.evictions,
                "invalidations": self.counters.invalidations,
            }


def _result_nbytes(result: ResultSet) -> int:
    """A small, honest estimate of a result table's memory footprint."""
    total = 64 + 16 * len(result.columns)
    for row in result.rows:
        total += 48
        for cell in row:
            total += 8 + (len(cell) if isinstance(cell, str) else 8)
    return total


__all__ = [
    "PredicateSignature",
    "normalize_query",
    "query_key",
    "ResultEntry",
    "SemanticCache",
]
