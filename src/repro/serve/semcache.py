"""Predicate normalization, subsumption, and the semantic cache.

The cache stores two kinds of entries, both keyed on *normalized*
predicates rather than query text:

* **result entries** — the final :class:`~repro.result.ResultSet` of a
  query, keyed on the query's full structural identity (predicates,
  group-by, aggregates, ordering).  Served verbatim on an exact repeat.
* **position entries** — the surviving fact-table positions of a query,
  keyed on its :class:`PredicateSignature` within one engine scope.  A
  later query whose predicates are *implied* by a cached entry's
  (``d.year BETWEEN 1992 AND 1997`` covers ``d.year = 1993``) is served
  by re-filtering the cached positions instead of rescanning the fact
  table — the paper's Section 5.4 between-predicate rewriting lifted
  from one query to a whole workload.

Normalization folds each table's conjunctive predicates into one
constraint per column: an :class:`Interval` (possibly half-bounded) or a
:class:`ValueSet`.  Implication between two constraints on the same
column is decided symbolically; when a cached dimension constraint names
a *different column* than the requested one (``s.nation = 'UNITED
STATES'`` under a cached ``s.region = 'AMERICA'``), symbolic reasoning
cannot decide, and the service falls back to comparing the dimensions'
surviving *key sets* — cached entries carry them — which is exact.

Admission is cost-aware (only queries whose priced simulated-seconds
exceed a threshold are worth remembering) and eviction is byte-budget
LRU.  The cache itself never touches the simulated disk; all lookup-time
I/O (key-set probes, re-filters) is charged by the service to the
requesting query's ledger.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from ..plan.logical import (
    BinOp,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    InSet,
    Literal,
    Predicate,
    RangePredicate,
    StarQuery,
)
from ..result import ResultSet


# ---------------------------------------------------------------------- #
# constraints
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Interval:
    """A contiguous constraint ``low .. high`` on one column.

    ``None`` bounds are unbounded; ``*_open`` excludes the endpoint.
    """

    low: Optional[object] = None
    high: Optional[object] = None
    low_open: bool = False
    high_open: bool = False

    def contains(self, value: object) -> bool:
        if self.low is not None:
            if value < self.low or (value == self.low and self.low_open):
                return False
        if self.high is not None:
            if value > self.high or (value == self.high and self.high_open):
                return False
        return True

    def is_empty(self) -> bool:
        if self.low is None or self.high is None:
            return False
        if self.low > self.high:
            return True
        return self.low == self.high and (self.low_open or self.high_open)


@dataclass(frozen=True)
class ValueSet:
    """An explicit, sorted set of admissible values for one column."""

    values: Tuple[object, ...]

    def is_empty(self) -> bool:
        return not self.values


Constraint = Union[Interval, ValueSet]

#: matches every value; folding a column's predicates starts from here
TOP = Interval()


def constraint_of(pred: Predicate) -> Constraint:
    """The single-column constraint a predicate expresses."""
    if isinstance(pred, Comparison):
        if pred.op is CompareOp.EQ:
            return ValueSet((pred.value,))
        if pred.op is CompareOp.LT:
            return Interval(high=pred.value, high_open=True)
        if pred.op is CompareOp.LE:
            return Interval(high=pred.value)
        if pred.op is CompareOp.GT:
            return Interval(low=pred.value, low_open=True)
        return Interval(low=pred.value)  # GE
    if isinstance(pred, RangePredicate):
        return Interval(low=pred.low, high=pred.high)
    if isinstance(pred, InSet):
        return ValueSet(tuple(sorted(set(pred.values))))
    raise TypeError(f"unknown predicate type {type(pred).__name__}")


def intersect(a: Constraint, b: Constraint) -> Constraint:
    """The conjunction of two constraints on the same column."""
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        return ValueSet(tuple(sorted(set(a.values) & set(b.values))))
    if isinstance(a, ValueSet):
        return ValueSet(tuple(v for v in a.values if b.contains(v)))
    if isinstance(b, ValueSet):
        return ValueSet(tuple(v for v in b.values if a.contains(v)))
    low, low_open = a.low, a.low_open
    if b.low is not None and (low is None or b.low > low or
                              (b.low == low and b.low_open)):
        low, low_open = b.low, b.low_open
    high, high_open = a.high, a.high_open
    if b.high is not None and (high is None or b.high < high or
                               (b.high == high and b.high_open)):
        high, high_open = b.high, b.high_open
    merged = Interval(low, high, low_open, high_open)
    if merged.is_empty():
        return ValueSet(())
    return merged


def implies(a: Constraint, b: Constraint) -> bool:
    """True when every value satisfying ``a`` also satisfies ``b``
    (both constraints are on the same column).  Conservative: value
    types that do not compare cleanly yield ``False``, never a wrong
    ``True``."""
    try:
        return _implies(a, b)
    except TypeError:
        return False


def _implies(a: Constraint, b: Constraint) -> bool:
    if isinstance(a, ValueSet):
        if a.is_empty():
            return True
        if isinstance(b, ValueSet):
            return set(a.values) <= set(b.values)
        return all(b.contains(v) for v in a.values)
    if a.is_empty():
        return True
    if isinstance(b, ValueSet):
        # an interval only fits inside an explicit set when it is a
        # single closed point (wider membership cannot be proven
        # without knowing the column's value domain)
        return (a.low is not None and a.low == a.high
                and not a.low_open and not a.high_open
                and a.low in set(b.values))
    if b.low is not None:
        if a.low is None:
            return False
        if a.low < b.low:
            return False
        if a.low == b.low and b.low_open and not a.low_open:
            return False
    if b.high is not None:
        if a.high is None:
            return False
        if a.high > b.high:
            return False
        if a.high == b.high and b.high_open and not a.high_open:
            return False
    return True


# ---------------------------------------------------------------------- #
# query signatures
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PredicateSignature:
    """A query's normalized predicates: one constraint per (table,
    column), sorted — the canonical key the position cache matches on."""

    fact_table: str
    constraints: Tuple[Tuple[str, str, Constraint], ...]

    def by_column(self) -> Dict[Tuple[str, str], Constraint]:
        return {(t, c): k for t, c, k in self.constraints}

    def tables(self) -> FrozenSet[str]:
        return frozenset({self.fact_table}
                         | {t for t, _c, _k in self.constraints})


def normalize_query(query: StarQuery) -> PredicateSignature:
    """Fold the query's conjunctive predicates into one constraint per
    (table, column)."""
    folded: Dict[Tuple[str, str], Constraint] = {}
    for pred in query.predicates:
        key = (pred.table, pred.column)
        constraint = constraint_of(pred)
        if key in folded:
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


def subsumption_gaps(requested: PredicateSignature,
                     cached: PredicateSignature) -> Optional[List[str]]:
    """Decide symbolically whether ``cached``'s positions can serve
    ``requested``.

    Returns ``None`` when they definitely cannot (a cached *fact*
    constraint is not implied, or the fact tables differ); otherwise the
    list of dimension tables whose cached constraints could not be
    proven symbolically and need the exact key-set containment check
    (empty list: fully proven, every requested row is among the cached
    positions)."""
    if requested.fact_table != cached.fact_table:
        return None
    return _gaps(requested.by_column(), cached)


def _gaps(req: Dict[Tuple[str, str], Constraint],
          cached: PredicateSignature) -> Optional[List[str]]:
    """:func:`subsumption_gaps` over the requested signature's
    ``by_column()`` (same fact table), so a lookup builds it once."""
    gaps: List[str] = []
    for table, column, cached_constraint in cached.constraints:
        mine = req.get((table, column))
        if mine is not None and implies(mine, cached_constraint):
            continue
        if table == cached.fact_table:
            return None
        if table not in gaps:
            gaps.append(table)
    return gaps


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
class PositionEntry:
    """A cached set of surviving fact positions within one engine scope.

    ``payload`` is engine-specific (column-store position lists naming
    their projection, row-store rid arrays); ``key_sets`` holds each
    predicated dimension's surviving keys — primary keys, so strictly
    ascending once sorted — for the exact containment fallback, which
    relies on that order."""

    key: Tuple
    scope: Tuple
    signature: PredicateSignature
    payload: object
    key_sets: Dict[str, np.ndarray]
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
    #: position entries ``find_subsuming`` ran the subsumption test on
    candidates_inspected: int = 0


class SemanticCache:
    """Thread-safe byte-budget LRU over result and position entries."""

    def __init__(self, budget_bytes: int = 64 << 20,
                 admit_seconds: float = 1e-3) -> None:
        self.budget_bytes = budget_bytes
        self.admit_seconds = admit_seconds
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        #: scope -> signature -> position entry: the position entries of
        #: ``_entries``, each scope's in the same relative LRU order
        self._positions: Dict[Tuple, "OrderedDict"] = {}
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

    def find_subsuming(
        self,
        scope: Tuple,
        requested: PredicateSignature,
        keyset_fn: Optional[Callable[[str], np.ndarray]],
        dimensions: Optional[FrozenSet[str]] = None,
    ) -> Optional[PositionEntry]:
        """The position entry in ``scope`` with ``requested``'s own
        signature if there is one, else the oldest in LRU order whose
        predicates imply ``requested``'s.

        ``keyset_fn(dim)`` must return the *requested* query's surviving
        keys for dimension ``dim`` (strictly ascending int64); it is
        called at most once per dimension, only for dimensions symbolic
        reasoning could not decide, and any I/O it performs is the
        caller's to charge.  ``keyset_fn=None`` forbids
        key-set probes entirely: only *symbolically proven* entries (no
        gaps) match — degraded-mode serving uses this so a cache answer
        never depends on reading possibly-corrupt dimension columns.
        ``dimensions`` names the dimensions the requested query joins: a
        key-set check against a dimension outside it cannot be
        evaluated, so those candidates are skipped."""
        with self._lock:
            bucket = self._positions.get(scope)
            if not bucket:
                return None
            # prefer an exact signature match: its re-filter is a no-op scan
            exact = bucket.get(requested)
            candidates = [e for e in bucket.values() if e is not exact]
        if exact is not None:
            candidates.insert(0, exact)
        req = requested.by_column()
        requested_keys: Dict[str, np.ndarray] = {}
        #: (dim, the entry's constraints on dim) -> contained?  Equal
        #: constraints in one scope select equal key sets.
        verdicts: Dict[Tuple, bool] = {}

        def contained(entry: PositionEntry, dim: str) -> bool:
            cached_keys = entry.key_sets.get(dim)
            if cached_keys is None:
                return False
            memo = (dim, tuple(c for c in entry.signature.constraints
                               if c[0] == dim))
            verdict = verdicts.get(memo)
            if verdict is None:
                keys = requested_keys.get(dim)
                if keys is None:
                    keys = requested_keys[dim] = keyset_fn(dim)
                verdict = verdicts[memo] = _ascending_subset(keys,
                                                             cached_keys)
            return verdict

        found, inspected = None, 0
        for entry in candidates:
            if entry.signature.fact_table != requested.fact_table:
                continue
            inspected += 1
            gaps = _gaps(req, entry.signature)
            if gaps is None:
                continue
            if keyset_fn is None and gaps:
                continue
            if dimensions is not None \
                    and not set(gaps) <= set(dimensions):
                continue
            if all(contained(entry, dim) for dim in gaps):
                found = entry
                break
        with self._lock:
            self.counters.candidates_inspected += inspected
            if found is not None and found.key in self._entries:
                self._entries.move_to_end(found.key)
                self._positions[scope].move_to_end(found.signature)
        return found

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

    def admit_positions(self, scope: Tuple, signature: PredicateSignature,
                        payload: object, key_sets: Dict[str, np.ndarray],
                        seconds: float, nbytes: int) -> bool:
        if not self.worth_admitting(seconds):
            with self._lock:
                self.counters.rejected_cheap += 1
            return False
        entry = PositionEntry(
            key=("positions", scope, signature),
            scope=scope,
            signature=signature,
            payload=payload,
            key_sets=key_sets,
            seconds=seconds,
            tables=signature.tables(),
            nbytes=nbytes + sum(int(a.nbytes) for a in key_sets.values()),
        )
        self._insert(entry)
        return True

    def _insert(self, entry) -> None:
        with self._lock:
            old = self._entries.pop(entry.key, None)
            if old is not None:
                self._bytes -= old.nbytes
                self._unindex(old)
            self._entries[entry.key] = entry
            if isinstance(entry, PositionEntry):
                self._positions.setdefault(entry.scope, OrderedDict())[
                    entry.signature] = entry
            self._bytes += entry.nbytes
            self.counters.admitted += 1
            removed = old is not None
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                _key, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._unindex(evicted)
                self.counters.evictions += 1
                removed = True
            if removed:
                self._check_bytes()

    def _unindex(self, entry) -> None:
        """Drop a removed entry from the position index (lock held)."""
        if isinstance(entry, PositionEntry):
            bucket = self._positions[entry.scope]
            del bucket[entry.signature]
            if not bucket:
                del self._positions[entry.scope]

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
        """Drop one entry (e.g. after its projection went bad)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry.nbytes
                self._unindex(entry)
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
                self._positions.clear()
                self._bytes = 0
            else:
                victims = [k for k, e in self._entries.items()
                           if table in e.tables]
                for key in victims:
                    entry = self._entries.pop(key)
                    self._bytes -= entry.nbytes
                    self._unindex(entry)
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
            positions = sum(len(b) for b in self._positions.values())
            return {
                "entries": len(self._entries),
                "result_entries": len(self._entries) - positions,
                "position_entries": positions,
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "admitted": self.counters.admitted,
                "rejected_cheap": self.counters.rejected_cheap,
                "evictions": self.counters.evictions,
                "invalidations": self.counters.invalidations,
                "candidates_inspected": self.counters.candidates_inspected,
            }


def _ascending_subset(keys: np.ndarray, within: np.ndarray) -> bool:
    """Is every element of ``keys`` in ``within``?  Both are strictly
    ascending, so size and end points reject most pairs before the one
    binary-search pass."""
    if keys.size == 0:
        return True
    if keys.size > within.size or keys[0] < within[0] \
            or keys[-1] > within[-1]:
        return False
    return bool((within[np.searchsorted(within, keys)] == keys).all())


def _result_nbytes(result: ResultSet) -> int:
    """A small, honest estimate of a result table's memory footprint."""
    total = 64 + 16 * len(result.columns)
    for row in result.rows:
        total += 48
        for cell in row:
            total += 8 + (len(cell) if isinstance(cell, str) else 8)
    return total


__all__ = [
    "Interval",
    "ValueSet",
    "Constraint",
    "constraint_of",
    "intersect",
    "implies",
    "PredicateSignature",
    "normalize_query",
    "query_key",
    "subsumption_gaps",
    "ResultEntry",
    "PositionEntry",
    "SemanticCache",
]
