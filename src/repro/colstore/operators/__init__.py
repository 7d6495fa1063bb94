"""Vectorized column operators.

Each operator reads :class:`~repro.storage.blocks.ArrayBlock` /
``RleBlock`` streams from column files and charges the ledger for the
work the modeled executor performs:

* with **block iteration** on, values are processed as arrays (one block
  call per block, one vector op per value, scaled by value width);
* with block iteration off, every value also pays a per-value iterator
  call — the paper's tuple-at-a-time "getNext" interface (Section 6.3.2
  notes the difference shows up in selection operations);
* with **compression** on, RLE blocks are processed run-at-a-time
  (one op per run, not per value) — direct operation on compressed data;
* decompression (expanding non-plain blocks to arrays) is charged by the
  storage layer when it actually happens.
"""

from .scan import predicate_positions, probe_positions
from .fetch import fetch_values, read_column
from .join import dimension_rows_for_keys, gather_attribute, LmJoinResult
from .aggregate import grouped_aggregate, scalar_aggregate, eval_fact_expr
from .materialize import construct_tuples, row_pipeline

__all__ = [
    "predicate_positions",
    "probe_positions",
    "fetch_values",
    "read_column",
    "dimension_rows_for_keys",
    "gather_attribute",
    "LmJoinResult",
    "grouped_aggregate",
    "scalar_aggregate",
    "eval_fact_expr",
    "construct_tuples",
    "row_pipeline",
]
