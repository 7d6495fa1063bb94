"""The delta evaluator: one query over the visible WOS fact rows.

A snapshot read whose epoch sees buffered fact inserts cannot be answered
from base pages alone.  The engines run their normal (patched) plan over
the base and ask this module for a *partial* over the WOS side — the
visible WOS fact rows joined against the effective dimensions — then
merge the two partials with :mod:`repro.plan.combine`.

The WOS is in-memory by design (that is the point of a write-optimized
store), so the delta pays no I/O; it pays honest *compute*: scalar
predicate evaluation per buffered row, a hash probe per surviving row
per joined dimension, and an aggregate update per surviving row, all
recorded under the ``wos-merge`` span by the caller.  ``delta_rows_merged``
counts the buffered rows examined, so a read-only run is provably
delta-free (the counter stays zero).
"""

from __future__ import annotations

from typing import Dict

from ..plan.logical import StarQuery
from ..reference.engine import execute, selected_positions
from ..result import ResultSet
from ..simio.stats import QueryStats
from ..storage.table import Table


def delta_partial(query: StarQuery, tables: Dict[str, Table],
                  stats: QueryStats) -> ResultSet:
    """Evaluate ``query`` over the delta tables, charging ``stats``.

    ``tables`` comes from :meth:`repro.write.store.Visibility.delta_tables`:
    the visible WOS fact rows plus effective dimensions.  The result is a
    gather-ready partial (the caller passes the same rewritten partial
    query it ran over the base, so hidden aggregates line up).
    """
    fact = tables[query.fact_table]
    n = fact.num_rows
    stats.delta_rows_merged += n
    # every buffered row is checked against the fact conjuncts (at least
    # one pass even for an unpredicated query: visibility itself reads
    # the row)
    stats.values_scanned_scalar += n * max(1, len(query.fact_predicates()))
    survivors = selected_positions(tables, query)
    dims = query.dimensions_used()
    stats.hash_probes += len(survivors) * len(dims)
    stats.agg_updates += len(survivors)
    return execute(tables, query)


__all__ = ["delta_partial"]
