"""Predicate compilation for the row-store executor.

Row batches carry raw stored values (integers, or null-padded ``S<n>``
bytes for CHAR fields), so predicates compare against encoded literals.
The compiled closure also charges the ledger for the tuple-at-a-time work
a row store performs: one attribute extraction per tuple, plus a scalar
comparison whose cost scales with the value width in 4-byte words (a
12-byte CHAR costs three times an int32 — the effect Figure 8's
uncompressed pre-join case hinges on).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ..errors import ExecutionError, TypeMismatchError
from ..plan.logical import (
    CompareOp,
    Comparison,
    InSet,
    Predicate,
    RangePredicate,
    Value,
)
from ..simio.stats import QueryStats

#: A compiled predicate: (values, stats) -> boolean mask.
CompiledPredicate = Callable[[np.ndarray, QueryStats], np.ndarray]


def encode_literal(value: Value, dtype: np.dtype) -> Union[int, bytes]:
    """Encode a query literal for comparison against stored values."""
    if dtype.kind == "S":
        if not isinstance(value, str):
            raise TypeMismatchError(
                f"integer literal {value!r} against CHAR column"
            )
        raw = value.encode("ascii")
        if len(raw) > dtype.itemsize:
            raise TypeMismatchError(
                f"literal {value!r} exceeds CHAR({dtype.itemsize})"
            )
        return raw
    if isinstance(value, str):
        raise TypeMismatchError(
            f"string literal {value!r} against integer column"
        )
    return int(value)


def _width_words(dtype: np.dtype) -> int:
    return max(1, dtype.itemsize // 4)


def compile_predicate(pred: Predicate, dtype: np.dtype) -> CompiledPredicate:
    """Compile one IR predicate for values of ``dtype``."""
    words = _width_words(dtype)

    if isinstance(pred, Comparison):
        literal = encode_literal(pred.value, dtype)
        op = pred.op

        def run_cmp(values: np.ndarray, stats: QueryStats) -> np.ndarray:
            n = len(values)
            stats.attr_extractions += n
            stats.values_scanned_scalar += n * words
            if op is CompareOp.EQ:
                return values == literal
            if op is CompareOp.LT:
                return values < literal
            if op is CompareOp.LE:
                return values <= literal
            if op is CompareOp.GT:
                return values > literal
            return values >= literal

        return run_cmp

    if isinstance(pred, RangePredicate):
        low = encode_literal(pred.low, dtype)
        high = encode_literal(pred.high, dtype)

        def run_range(values: np.ndarray, stats: QueryStats) -> np.ndarray:
            n = len(values)
            stats.attr_extractions += n
            # a BETWEEN is two comparisons per tuple
            stats.values_scanned_scalar += 2 * n * words
            return (values >= low) & (values <= high)

        return run_range

    if isinstance(pred, InSet):
        literals = [encode_literal(v, dtype) for v in pred.values]
        if dtype.kind in "iu":
            # a value the column's dtype cannot hold matches nothing
            info = np.iinfo(dtype)
            literals = [v for v in literals if info.min <= v <= info.max]
        needles = np.asarray(literals, dtype=dtype)

        def run_in(values: np.ndarray, stats: QueryStats) -> np.ndarray:
            n = len(values)
            stats.attr_extractions += n
            stats.values_scanned_scalar += n * words * max(1, len(needles))
            return np.isin(values, needles)

        return run_in

    raise ExecutionError(f"unknown predicate type {type(pred).__name__}")


__all__ = ["compile_predicate", "encode_literal", "CompiledPredicate"]
