"""Predicate evaluation over in-memory columns.

Given a :class:`~repro.storage.column.Column` and one IR predicate,
produce a boolean mask.  String predicates are evaluated on dictionary
codes, which is sound because dictionaries are order-preserving (codes
sort exactly like their strings).  Both engines' planners and scans,
the write path and the reference engine all evaluate predicates here
(ROADMAP item 3a gives the oracle its own evaluator).
"""

from __future__ import annotations

import bisect
from typing import Tuple

import numpy as np

from ..errors import ExecutionError, TypeMismatchError
from ..storage.column import Column
from .logical import (
    CompareOp,
    Comparison,
    InSet,
    Predicate,
    RangePredicate,
    Value,
)


def code_bounds_for_range(column: Column, low: Value, high: Value
                          ) -> Tuple[int, int]:
    """Translate a [low, high] literal range into the column's raw domain.

    For string columns, returns the inclusive code range covering every
    dictionary entry in [low, high]; the range may be empty (lo > hi).
    """
    if column.dictionary is None:
        if isinstance(low, str) or isinstance(high, str):
            raise TypeMismatchError(
                f"string bounds on integer column {column.name!r}"
            )
        return int(low), int(high)
    if not isinstance(low, str) or not isinstance(high, str):
        raise TypeMismatchError(
            f"integer bounds on string column {column.name!r}"
        )
    strings = column.dictionary.strings
    lo = bisect.bisect_left(strings, low)
    hi = bisect.bisect_right(strings, high) - 1
    return lo, hi


def comparison_as_code_bounds(column: Column, pred: Comparison
                              ) -> Tuple[int, int]:
    """An inclusive raw-domain [lo, hi] equivalent to ``pred``.

    Unbounded sides use the dtype's extremes.  For string columns the
    translation uses dictionary order, so e.g. ``city < 'M'`` becomes a
    code range.
    """
    info = np.iinfo(column.data.dtype)
    if column.dictionary is None:
        if isinstance(pred.value, str):
            raise TypeMismatchError(
                f"string literal on integer column {column.name!r}"
            )
        v = int(pred.value)
        return {
            CompareOp.EQ: (v, v),
            CompareOp.LT: (info.min, v - 1),
            CompareOp.LE: (info.min, v),
            CompareOp.GT: (v + 1, info.max),
            CompareOp.GE: (v, info.max),
        }[pred.op]
    if not isinstance(pred.value, str):
        raise TypeMismatchError(
            f"integer literal on string column {column.name!r}"
        )
    strings = column.dictionary.strings
    left = bisect.bisect_left(strings, pred.value)
    right = bisect.bisect_right(strings, pred.value) - 1
    return {
        CompareOp.EQ: (left, right),
        CompareOp.LT: (0, left - 1),
        CompareOp.LE: (0, right if right >= left else left - 1),
        CompareOp.GT: (right + 1 if right >= left else left, len(strings) - 1),
        CompareOp.GE: (left, len(strings) - 1),
    }[pred.op]


def eval_predicate(column: Column, pred: Predicate) -> np.ndarray:
    """Boolean mask of rows of ``column`` satisfying ``pred``."""
    data = column.data
    if isinstance(pred, Comparison):
        lo, hi = comparison_as_code_bounds(column, pred)
        if lo > hi:
            return np.zeros(len(data), dtype=bool)
        return (data >= lo) & (data <= hi)
    if isinstance(pred, RangePredicate):
        lo, hi = code_bounds_for_range(column, pred.low, pred.high)
        if lo > hi:
            return np.zeros(len(data), dtype=bool)
        return (data >= lo) & (data <= hi)
    if isinstance(pred, InSet):
        info = np.iinfo(data.dtype)
        raw = []
        for v in pred.values:
            code = column.encode_literal(v)
            # an absent string, or an integer the dtype cannot hold,
            # matches nothing
            if code is not None and info.min <= code <= info.max:
                raw.append(code)
        if not raw:
            return np.zeros(len(data), dtype=bool)
        return np.isin(data, np.asarray(raw, dtype=data.dtype))
    raise ExecutionError(f"unknown predicate type {type(pred).__name__}")


__all__ = ["eval_predicate", "code_bounds_for_range", "comparison_as_code_bounds"]
