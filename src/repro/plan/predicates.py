"""Predicates as operations over a constant mapped into the stored domain.

Every decision about how an IR predicate's literal meets the values a
column stores is made here, once:

* :func:`constraint_of` gives a predicate's logical constraint, an
  :class:`Interval` or a :class:`ValueSet`; the serving layer's cache
  key is built from these;
* :func:`check_literal` is the one literal type check (the SQL binder
  calls it too, against the schema's column type), and
  :func:`check_aggregate` the one aggregate-input type check;
* :func:`stored_domain` maps the constraint into one of three stored
  domains: an integer dtype, an order-preserving dictionary's codes, or
  fixed-width NUL-padded bytes.

:func:`domain_mask` tests stored values against a domain, and
:func:`eval_predicate` is the two together over an in-memory column.
Both engines' scans, planners, statistics and zone maps, the write path
and the reference engine all translate predicates here (ROADMAP item
3a gives the oracle its own evaluator).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..errors import TypeMismatchError
from .logical import (
    AggExpr,
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    Predicate,
    RangePredicate,
    StarQuery,
    Value,
    expr_columns,
)

if TYPE_CHECKING:
    from ..storage.column import Column, StringDictionary


# ---------------------------------------------------------------------- #
# logical constraints
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


Constraint = Union[Interval, ValueSet]


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
        # the key lets a mixed-type list reach the type check unsorted
        return ValueSet(tuple(sorted(set(pred.values),
                                     key=lambda v: (isinstance(v, str), v))))
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


# ---------------------------------------------------------------------- #
# stored domains
# ---------------------------------------------------------------------- #
#: an inclusive ``(lo, hi)`` (empty when ``lo > hi``) or sorted needles
Domain = Union[Tuple[Any, Any], np.ndarray]


def check_literal(value: Value, is_string: bool, column: str) -> None:
    """The one literal type check: strings only against string columns,
    integers only against integer columns."""
    if isinstance(value, str) != is_string:
        literal = "integer" if is_string else "string"
        target = "string" if is_string else "integer"
        raise TypeMismatchError(
            f"{literal} literal {value!r} on {target} column {column!r}")


def check_constraint(constraint: Constraint, is_string: bool,
                     column: str) -> None:
    """:func:`check_literal` on every literal of ``constraint``."""
    literals = (constraint.values if isinstance(constraint, ValueSet)
                else (constraint.low, constraint.high))
    for value in literals:
        if value is not None:
            check_literal(value, is_string, column)


def check_aggregate(agg: AggExpr,
                    is_string: Callable[[ColumnRef], bool]) -> None:
    """The one aggregate-input type check: every aggregate but COUNT of
    a bare column, and both sides of any arithmetic, take numbers."""
    if agg.func == "count" and isinstance(agg.expr, ColumnRef):
        return
    for ref in expr_columns(agg.expr):
        if is_string(ref):
            raise TypeMismatchError(f"string column {ref} is not numeric")


def check_aggregates(query: StarQuery, tables: Dict[str, Any]) -> None:
    """:func:`check_aggregate` against the storage ``tables`` read."""
    for agg in query.aggregates:
        check_aggregate(agg, lambda ref: ref.table in tables and tables[
            ref.table].column(ref.column).is_string)


def stored_domain(pred: Predicate, dtype,
                  dictionary: Optional["StringDictionary"] = None
                  ) -> Domain:
    """``pred`` mapped into the domain a column stores.

    ``dtype`` is the stored array's: ``S<n>`` holds NUL-padded strings,
    an integer dtype holds integers or, with a ``dictionary``, its
    order-preserving codes.  IN becomes the sorted distinct needles the
    domain can hold; every other predicate an inclusive ``(lo, hi)``.  A
    string absent from the dictionary or wider than the CHAR, and an
    integer outside the dtype, match nothing.
    """
    dtype = np.dtype(dtype)
    raw = dtype.kind == "S"
    constraint = constraint_of(pred)
    check_constraint(constraint, raw or dictionary is not None, pred.column)
    if isinstance(pred, InSet):
        values = constraint.values
        if raw:
            held = [v.encode() for v in values
                    if len(v.encode()) <= dtype.itemsize]
        elif dictionary is not None:
            held = [c for c in map(dictionary.code_or_none, values)
                    if c is not None]
        else:
            info = np.iinfo(dtype)
            held = [v for v in values if info.min <= v <= info.max]
        return np.array(held, dtype=dtype)
    if isinstance(constraint, ValueSet):  # equality: a point interval
        constraint = Interval(constraint.values[0], constraint.values[0])
    if raw:
        return _byte_bounds(constraint, dtype.itemsize)
    if dictionary is not None:
        strings = dictionary.strings
        lo = 0 if constraint.low is None else (
            bisect.bisect_right if constraint.low_open
            else bisect.bisect_left)(strings, constraint.low)
        hi = len(strings) - 1 if constraint.high is None else (
            bisect.bisect_left if constraint.high_open
            else bisect.bisect_right)(strings, constraint.high) - 1
        return lo, hi
    info = np.iinfo(dtype)
    lo = info.min if constraint.low is None else max(
        int(constraint.low) + constraint.low_open, info.min)
    hi = info.max if constraint.high is None else min(
        int(constraint.high) - constraint.high_open, info.max)
    return lo, hi


def _byte_bounds(constraint: Interval, width: int) -> Tuple[bytes, bytes]:
    """Inclusive bounds over ``S<width>`` values.  numpy compares these
    as if NUL-padded, so no bound may end in ``\\x00``: the successor of
    ``v`` is ``v + b"\\x01"``."""
    lo = b"" if constraint.low is None else constraint.low.encode()
    hi = b"\xff" * width if constraint.high is None \
        else constraint.high.encode()
    low_open, high_open = constraint.low_open, constraint.high_open
    # a literal wider than the column lies strictly between its prefix
    # of the column's width and that prefix's successor
    if len(lo) > width:
        lo, low_open = lo[:width], True
    if len(hi) > width:
        hi, high_open = hi[:width], False
    if low_open:
        lo += b"\x01"
    if high_open:
        if not hi:  # nothing sorts below ''
            return b"\x01", b""
        hi = hi[:-1] + bytes([hi[-1] - 1]) + b"\xff" * (width - len(hi))
    return lo, hi


def domain_mask(data: np.ndarray, domain: Domain) -> np.ndarray:
    """Which stored values lie in ``domain``: one numpy pass for an
    equality or a half-open range, as a row store's comparison makes."""
    if isinstance(domain, np.ndarray):
        return np.isin(data, domain)
    lo, hi = domain
    if lo > hi:
        return np.zeros(len(data), dtype=bool)
    if lo == hi:
        return data == lo
    if data.dtype.kind == "S":
        bottom, top = b"", b"\xff" * data.dtype.itemsize
    else:
        info = np.iinfo(data.dtype)
        bottom, top = info.min, info.max
    if lo <= bottom:
        return data <= hi
    if hi >= top:
        return data >= lo
    return (data >= lo) & (data <= hi)


def eval_predicate(column: "Column", pred: Predicate) -> np.ndarray:
    """Boolean mask of rows of ``column`` satisfying ``pred``."""
    return domain_mask(column.data, stored_domain(
        pred, column.data.dtype, column.dictionary))


__all__ = [
    "Interval", "ValueSet", "Constraint", "constraint_of", "intersect",
    "Domain", "check_literal", "check_constraint", "check_aggregate",
    "check_aggregates", "stored_domain", "domain_mask", "eval_predicate",
]
