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

from typing import Callable

import numpy as np

from ..plan.logical import Predicate, RangePredicate
from ..plan.predicates import domain_mask, stored_domain
from ..simio.stats import QueryStats

#: A compiled predicate: (values, stats) -> boolean mask.
CompiledPredicate = Callable[[np.ndarray, QueryStats], np.ndarray]


def compile_predicate(pred: Predicate, dtype: np.dtype) -> CompiledPredicate:
    """Compile one IR predicate for values of ``dtype``: one comparison
    per tuple, two for a BETWEEN, one per distinct IN value."""
    domain = stored_domain(pred, dtype)
    if isinstance(domain, np.ndarray):
        comparisons = max(1, len(domain))
    else:
        comparisons = 2 if isinstance(pred, RangePredicate) else 1
    charge = max(1, dtype.itemsize // 4) * comparisons

    def run(values: np.ndarray, stats: QueryStats) -> np.ndarray:
        n = len(values)
        stats.attr_extractions += n
        stats.values_scanned_scalar += n * charge
        return domain_mask(values, domain)

    return run


__all__ = ["compile_predicate", "CompiledPredicate"]
