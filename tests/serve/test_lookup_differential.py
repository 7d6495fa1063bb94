"""The indexed subsumption lookup against the linear one it replaced.

``SemanticCache.find_subsuming`` keeps a per-scope index and decides
key-set containment by binary search; ``tests/serve/linear_lookup.py``
is the scan it replaced.  Equivalence is the contract
(``docs/serving.md``, "How lookups stay sub-linear"): the same entry
comes back, the same entries are promoted, and ``keyset_fn`` is *first*
called for the same dimensions in the same order — each first call reads
dimension columns onto the requester's ledger, so that order is what
keeps served ledgers byte-identical.  Checked three ways here: a
Hypothesis property over random operation sequences on two caches in
lock-step, a ``serve_sql``-shaped statement stream through two services
on both engines, and work bounds asserted by count.
"""

import random
from collections import OrderedDict
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colstore.engine import CStore
from repro.result import ResultSet
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService
from repro.serve.semcache import (
    Interval,
    PositionEntry,
    PredicateSignature,
    SemanticCache,
    ValueSet,
)
from repro.sql import parse_query
from repro.ssb.sql_text import SQL_TEXT
from repro.storage.colfile import CompressionLevel
from tests.serve.linear_lookup import linear_find_subsuming

FACT = "lineorder"
SCOPES = (("cs", "tICL"), ("cs", "Ticl"), ("rs", "T"))
#: a toy star: ``KEYS`` keys per dimension, every attribute a function
#: of the key, so a signature's key sets follow from its constraints
KEYS = 24
COLUMNS = {
    (FACT, "discount"): None,
    (FACT, "quantity"): None,
    ("date", "month"): lambda key: key % 6,
    ("date", "year"): lambda key: key // 4,
    ("supplier", "nation"): lambda key: key // 4,
    ("supplier", "region"): lambda key: key // 8,
}
DIMENSIONS = ("date", "supplier")


class LinearCache(SemanticCache):
    """The cache as it was: every lookup is the linear scan."""

    find_subsuming = linear_find_subsuming


# --------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------- #
_values = st.integers(0, 5)
_constraints = st.one_of(
    st.builds(Interval, st.none() | _values, st.none() | _values,
              st.booleans(), st.booleans()),
    st.lists(_values, unique=True, max_size=3).map(
        lambda chosen: ValueSet(tuple(sorted(chosen)))))


def _signature(by_column) -> PredicateSignature:
    return PredicateSignature(FACT, tuple(
        (table, column, by_column[table, column])
        for table, column in sorted(by_column)))


@st.composite
def _signatures(draw) -> PredicateSignature:
    """Sparse, so that one often covers another: a fact column is
    constrained one time in three, a dimension column every other."""
    return _signature({
        column: draw(_constraints) for column in COLUMNS
        if draw(st.integers(0, 2 if column[0] == FACT else 1)) == 0})


def _satisfies(constraint, value) -> bool:
    if isinstance(constraint, ValueSet):
        return value in constraint.values
    return constraint.contains(value)


def _narrowed(draw, signature: PredicateSignature) -> PredicateSignature:
    """A signature likely to be subsumed by ``signature``: constraints
    kept, pinned to one admissible value, or moved to the sibling column
    of the same table (which only a key-set probe can decide)."""
    by_column = {}
    for table, column, constraint in signature.constraints:
        move = draw(st.sampled_from(("keep", "pin", "sibling", "sibling")))
        admissible = [v for v in range(6) if _satisfies(constraint, v)]
        if move == "pin" and admissible:
            constraint = ValueSet((draw(st.sampled_from(admissible)),))
        elif move == "sibling" and table != FACT:
            # pinned to the value one surviving key has there: contained
            # where the columns nest (supplier), rarely where they
            # interleave (date)
            keys = _key_set(signature, table)
            column = next(c for t, c in COLUMNS
                          if t == table and c != column)
            constraint = draw(_constraints) if not keys.size else ValueSet(
                (COLUMNS[table, column](draw(st.sampled_from(list(keys)))),))
        by_column[table, column] = constraint
    for column in COLUMNS:
        if column not in by_column and draw(st.integers(0, 3)) == 0:
            by_column[column] = draw(_constraints)
    return _signature(by_column)


def _related(draw, scope, admitted):
    """``(scope, signature)``: fresh in ``scope``, or an earlier
    admission's signature — itself or narrowed — in that one's scope."""
    kind = draw(st.sampled_from(("fresh", "same", "narrowed", "narrowed"))) \
        if admitted else "fresh"
    if kind == "fresh":
        return scope, draw(_signatures())
    scope, base = draw(st.sampled_from(admitted))
    return scope, base if kind == "same" else _narrowed(draw, base)


def _key_set(signature: PredicateSignature, dim: str) -> np.ndarray:
    return np.array(
        [key for key in range(KEYS)
         if all(_satisfies(constraint, COLUMNS[table, column](key))
                for table, column, constraint in signature.constraints
                if table == dim)], dtype=np.int64)


def _query(n: int):
    return parse_query(f"SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
                       f"WHERE lo.quantity < {n}")


# --------------------------------------------------------------------- #
# the lock-step property
# --------------------------------------------------------------------- #
def _lookup(cache, scope, requested, degraded, dimensions):
    """(key of the entry found, dimensions in first-touch order, calls)"""
    touched = []

    def keyset_fn(dim):
        touched.append(dim)
        return _key_set(requested, dim)

    found = cache.find_subsuming(scope, requested,
                                 None if degraded else keyset_fn,
                                 dimensions=dimensions)
    return (None if found is None else found.key,
            list(dict.fromkeys(touched)), len(touched))


def _assert_in_step(indexed: SemanticCache, linear: SemanticCache) -> None:
    assert list(indexed._entries) == list(linear._entries)  # LRU order
    assert indexed._bytes == linear._bytes \
        == sum(e.nbytes for e in indexed._entries.values())
    # the index is exactly the position entries of _entries, in order
    by_scope = {}
    for entry in indexed._entries.values():
        if isinstance(entry, PositionEntry):
            by_scope.setdefault(entry.scope, []).append(entry)
    assert set(indexed._positions) == set(by_scope)
    for scope, entries in by_scope.items():
        bucket = indexed._positions[scope]
        assert list(bucket) == [e.signature for e in entries]
        assert all(a is b for a, b in zip(bucket.values(), entries))
    snap = indexed.snapshot()
    assert snap["position_entries"] == sum(map(len, by_scope.values()))
    assert snap["result_entries"] + snap["position_entries"] \
        == snap["entries"] == len(indexed._entries)


OPS = ("admit_positions",) * 4 + ("lookup",) * 5 + (
    "admit_result", "lookup_result", "discard", "invalidate")


@given(st.data())
@settings(deadline=None)
def test_indexed_lookup_equals_the_linear_scan(data):
    draw = data.draw
    budget = draw(st.sampled_from((4_000, 20_000, 1 << 20)))
    caches = (SemanticCache(budget, admit_seconds=0.0),
              LinearCache(budget, admit_seconds=0.0))
    admitted = []
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(OPS))
        scope = draw(st.sampled_from(SCOPES))
        if op == "admit_positions":
            scope, signature = _related(draw, scope, admitted)
            admitted.append((scope, signature))
            dims = sorted({t for t, _c, _k in signature.constraints
                           if t != FACT})
            if dims and draw(st.integers(0, 7)) == 0:
                dims = dims[1:]  # an entry that lacks a key set
            nbytes = draw(st.integers(0, 1_500))
            for cache in caches:
                cache.admit_positions(
                    scope, signature, payload=object(),
                    key_sets={d: _key_set(signature, d) for d in dims},
                    seconds=1.0, nbytes=nbytes)
        elif op == "lookup":
            scope, requested = _related(draw, scope, admitted)
            degraded = draw(st.integers(0, 7)) == 0
            dimensions = draw(st.sampled_from(
                (None, None, None, frozenset(DIMENSIONS),
                 frozenset(DIMENSIONS[:1]), frozenset())))
            indexed, linear = (
                _lookup(cache, scope, requested, degraded, dimensions)
                for cache in caches)
            assert indexed[:2] == linear[:2]
            assert indexed[2] == len(indexed[1])  # one call per dimension
        elif op == "admit_result":
            n, rows = draw(st.integers(1, 6)), draw(st.integers(0, 40))
            tables = frozenset({FACT, draw(st.sampled_from(DIMENSIONS))})
            for cache in caches:
                cache.admit_result(
                    scope, _query(n),
                    ResultSet(["r"], [(i,) for i in range(rows)]),
                    seconds=1.0, tables=tables)
        elif op == "lookup_result":
            n = draw(st.integers(1, 6))
            indexed, linear = (cache.lookup_result(scope, _query(n))
                               for cache in caches)
            assert (indexed is None) == (linear is None)
        elif op == "discard":
            keys = list(caches[0]._entries)
            if keys:
                key = draw(st.sampled_from(keys))
                for cache in caches:
                    cache.discard(key)
        else:
            table = draw(st.sampled_from(DIMENSIONS + DIMENSIONS
                                         + (FACT, None)))
            indexed, linear = (cache.invalidate(table) for cache in caches)
            assert indexed == linear
        _assert_in_step(*caches)


def test_exact_signature_first_else_the_oldest_that_qualifies():
    """The contract in one scope: region 0 (oldest, does not cover
    nation 2), region 1 and "any region" (both do), then nation 2
    itself."""
    cache = SemanticCache(admit_seconds=0.0)
    scope = SCOPES[0]
    nation_2 = _signature({("supplier", "nation"): ValueSet((2,))})
    region_0, region_1 = (
        _signature({("supplier", "region"): ValueSet((r,))}) for r in (0, 1))
    any_region = _signature({("supplier", "region"): Interval(low=0)})
    for signature in (region_0, region_1, any_region):
        cache.admit_positions(
            scope, signature, payload=object(), seconds=1.0, nbytes=8,
            key_sets={"supplier": _key_set(signature, "supplier")})

    def found():
        return _lookup(cache, scope, nation_2, False, None)

    # one probe of the dimension, one verdict per cached constraint —
    # region 0's "no" does not answer for region 1
    assert found() == (("positions", scope, region_1), ["supplier"], 1)
    # the hit promoted region 1, so "any region" is now the oldest
    assert found()[0] == ("positions", scope, any_region)
    cache.admit_positions(scope, nation_2, payload=object(), seconds=1.0,
                          nbytes=8, key_sets={"supplier": _key_set(
                              nation_2, "supplier")})
    assert found() == (("positions", scope, nation_2), [], 0)


# --------------------------------------------------------------------- #
# the end-to-end twin
# --------------------------------------------------------------------- #
def _statement_stream(length: int, seed: int):
    """``serve_sql`` in small: parametrised SSB texts with hot constants
    and nested windows, each bound to one engine session."""
    rng = random.Random(seed)

    def hot(*choices):
        return choices[min(int(rng.expovariate(0.9)), len(choices) - 1)]

    shapes = (
        lambda: SQL_TEXT["Q1.1"]
        .replace("1993", str(hot(1993, 1994, 1995)))
        .replace("BETWEEN 1 AND 3", hot("BETWEEN 0 AND 6", "BETWEEN 1 AND 3",
                                        "BETWEEN 2 AND 3", "BETWEEN 1 AND 5"))
        .replace("< 25", hot("< 35", "< 25", "< 15")),
        lambda: SQL_TEXT["Q2.1"]
        .replace("'MFGR#12'", hot("'MFGR#12'", "'MFGR#13'"))
        .replace("'AMERICA'", hot("'AMERICA'", "'ASIA'")),
        lambda: SQL_TEXT["Q2.2"]
        .replace("'MFGR#2228'", hot("'MFGR#2228'", "'MFGR#2224'"))
        .replace("'ASIA'", hot("'ASIA'", "'AMERICA'")),
        lambda: SQL_TEXT["Q3.1"]
        .replace("1992 AND 1997", hot("1992 AND 1997", "1993 AND 1996",
                                      "1994 AND 1995")),
        lambda: SQL_TEXT["Q3.2"]
        .replace("1992 AND 1997", hot("1992 AND 1997", "1993 AND 1996")),
        lambda: SQL_TEXT[hot("Q3.3", "Q3.4")],
        lambda: SQL_TEXT[hot("Q4.1", "Q4.2", "Q4.3")]
        .replace("(1997, 1998)", hot("(1997, 1998)", "(1997)")),
    )
    return [(hot("cs", "rs"), rng.choice(shapes)()) for _ in range(length)]


def _service(data) -> QueryService:
    # engines of its own: probes and re-filters read through the buffer
    # pool as the previous request left it, so twins cannot share one
    return QueryService(
        cstore=CStore(data, levels=(CompressionLevel.MAX,)),
        system_x=SystemX(data, designs=[DesignKind.TRADITIONAL]))


def test_statement_stream_serves_identically_under_either_lookup(ssb_data):
    indexed, linear = _service(ssb_data), _service(ssb_data)
    linear.cache.find_subsuming = partial(linear_find_subsuming,
                                          linear.cache)
    sources = set()
    with indexed, linear:
        sessions = [{engine: service.session(engine=engine)
                     for engine in ("cs", "rs")}
                    for service in (indexed, linear)]
        for engine, sql in _statement_stream(160, seed=22):
            ours, theirs = (by_engine[engine].execute_sql(sql)
                            for by_engine in sessions)
            assert ours.source == theirs.source
            assert ours.result.rows == theirs.result.rows
            assert ours.stats.snapshot() == theirs.stats.snapshot()
            assert ours.trace.span_names() == theirs.trace.span_names()
            sources.add((engine, ours.source))
        assert list(indexed.cache._entries) == list(linear.cache._entries)
    # the stream exercised every way of serving, on both engines
    assert sources == {(engine, source) for engine in ("cs", "rs")
                       for source in ("engine", "cache-exact",
                                      "cache-refilter")}


# --------------------------------------------------------------------- #
# work bounds, by count
# --------------------------------------------------------------------- #
class _CountingEntries(OrderedDict):
    """``_entries`` that counts whole passes over itself."""

    passes = 0

    def values(self):
        self.passes += 1
        return super().values()

    def items(self):
        self.passes += 1
        return super().items()

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _crowded_cache():
    """≥ 500 entries a lookup in ``SCOPES[0]`` has no business with."""
    cache = SemanticCache(admit_seconds=0.0)
    for n in range(300):
        cache.admit_result(SCOPES[0], _query(n), ResultSet(["r"], [(n,)]),
                           seconds=1.0, tables=frozenset({FACT}))
        cache.admit_positions(
            SCOPES[1], _signature({(FACT, "quantity"): Interval(high=n)}),
            payload=object(), key_sets={}, seconds=1.0, nbytes=64)
    return cache


def test_foreign_scope_lookup_inspects_no_candidate():
    cache = _crowded_cache()
    assert len(cache) == 600
    wanted = _signature({(FACT, "quantity"): ValueSet((7,))})
    assert cache.find_subsuming(SCOPES[0], wanted, None) is None
    assert cache.find_subsuming(SCOPES[2], wanted, None) is None
    assert cache.snapshot()["candidates_inspected"] == 0
    # the same lookup where the entries live does walk them
    assert cache.find_subsuming(SCOPES[1], wanted, None) is not None
    assert 0 < cache.snapshot()["candidates_inspected"] <= 300


def test_plain_insert_makes_no_pass_over_the_entries():
    cache = _crowded_cache()
    cache._entries = entries = _CountingEntries(cache._entries)
    cache.admit_result(SCOPES[2], _query(1), ResultSet(["r"], [(1,)]),
                       seconds=1.0, tables=frozenset({FACT}))
    cache.admit_positions(
        SCOPES[2], _signature({(FACT, "discount"): ValueSet((1,))}),
        payload=object(), key_sets={}, seconds=1.0, nbytes=64)
    assert entries.passes == 0
    assert cache.current_bytes == sum(e.nbytes for e in entries.values())
    # every path that removes entries still audits the gauge
    for remove in (lambda: cache.discard(next(reversed(entries))),
                   lambda: cache.invalidate("date"),
                   cache.snapshot):
        before = entries.passes
        remove()
        assert entries.passes > before
    cache.budget_bytes = cache.current_bytes  # the next insert evicts
    before = entries.passes
    cache.admit_result(SCOPES[2], _query(2), ResultSet(["r"], [(2,)]),
                       seconds=1.0, tables=frozenset({FACT}))
    assert cache.counters.evictions > 0 and entries.passes > before
