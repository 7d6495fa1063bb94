"""Unit and property tests for the semantic cache's constraint algebra,
query keys and result-cache mechanics.

The result key folds each column's predicates with ``intersect``.  A
wrong fold could give two different queries one key and serve one of
them the other's rows, so the randomized test brute-forces the
conjunction over a small integer domain.
"""

import dataclasses
import random

import pytest

from repro.colstore.engine import CStore
from repro.errors import TypeMismatchError
from repro.plan.logical import (
    ColumnRef,
    CompareOp,
    Comparison,
    InSet,
    RangePredicate,
)
from repro.plan.predicates import Interval, ValueSet, constraint_of, intersect
from repro.serve.semcache import SemanticCache, normalize_query, query_key
from repro.serve.service import QueryService
from repro.ssb.generator import generate
from repro.ssb.queries import ALL_QUERIES, Q1_1, Q1_2, Q2_1, query_by_name

DOMAIN = list(range(-2, 13))


def _satisfying(constraint):
    if isinstance(constraint, ValueSet):
        return {v for v in DOMAIN if v in set(constraint.values)}
    return {v for v in DOMAIN if constraint.contains(v)}


def _random_constraint(rng):
    kind = rng.random()
    if kind < 0.35:
        return ValueSet(tuple(sorted(rng.sample(
            DOMAIN, rng.randint(0, 4)))))
    low = rng.choice([None] + DOMAIN)
    high = rng.choice([None] + DOMAIN)
    return Interval(low, high, rng.random() < 0.5, rng.random() < 0.5)


# -------------------------------------------------------------------- #
# constraint algebra
# -------------------------------------------------------------------- #
def test_constraint_of_each_predicate_shape():
    year = ColumnRef("date", "year")
    qty = ColumnRef("lineorder", "quantity")
    assert constraint_of(
        Comparison(year, CompareOp.EQ, 1993)) == ValueSet((1993,))
    assert constraint_of(
        Comparison(qty, CompareOp.LT, 25)) == Interval(
            high=25, high_open=True)
    assert constraint_of(
        Comparison(qty, CompareOp.GE, 26)) == Interval(low=26)
    assert constraint_of(
        RangePredicate(qty, 1, 3)) == Interval(low=1, high=3)
    assert constraint_of(
        InSet(year, (1998, 1997))) == ValueSet((1997, 1998))


@pytest.mark.parametrize("seed", range(3))
def test_intersect_matches_brute_force(seed):
    rng = random.Random(77 + seed)
    for _ in range(400):
        a, b = _random_constraint(rng), _random_constraint(rng)
        merged = intersect(a, b)
        assert _satisfying(merged) == _satisfying(a) & _satisfying(b)


# -------------------------------------------------------------------- #
# query normalization
# -------------------------------------------------------------------- #
def test_normalize_folds_same_column_predicates():
    sig = normalize_query(Q1_1)
    by_col = {(t, c): k for t, c, k in sig.constraints}
    assert by_col[("lineorder", "quantity")] == Interval(
        high=25, high_open=True)
    assert by_col[("lineorder", "discount")] == Interval(low=1, high=3)
    assert by_col[("date", "year")] == ValueSet((1993,))
    assert sig.fact_table == "lineorder"


def test_a_wrong_typed_literal_is_refused_typed_before_folding():
    """``lo.quantity < 5 AND lo.quantity < 'A'`` built as IR: the fold
    would compare 'A' with 5; the literal check runs first, so the
    service refuses it as every engine refuses ``quantity < 'A'``."""
    qty = ColumnRef("lineorder", "quantity")
    query = dataclasses.replace(Q1_1, predicates=Q1_1.predicates + (
        Comparison(qty, CompareOp.LT, 5), Comparison(qty, CompareOp.LT, "A")))
    with pytest.raises(TypeMismatchError):
        normalize_query(query)
    cstore = CStore(generate(0.004, seed=1))
    with QueryService(cstore=cstore) as service:
        with pytest.raises(TypeMismatchError):
            service.session(engine="cs").execute(query)


def test_query_key_is_structural_not_nominal():
    renamed = Q1_1.replace(name="totally-different-name") \
        if hasattr(Q1_1, "replace") else None
    if renamed is None:
        import dataclasses
        renamed = dataclasses.replace(Q1_1, name="totally-different")
    assert query_key(renamed) == query_key(Q1_1)
    assert query_key(Q1_1) != query_key(Q1_2)
    import dataclasses
    limited = dataclasses.replace(Q1_1, limit=5)
    assert query_key(limited) != query_key(Q1_1)


def test_all_13_query_keys_distinct():
    keys = {query_key(q) for q in ALL_QUERIES}
    assert len(keys) == len(ALL_QUERIES)


# -------------------------------------------------------------------- #
# cache mechanics
# -------------------------------------------------------------------- #
def test_result_cache_round_trip_and_lru_eviction():
    from repro.result import ResultSet

    cache = SemanticCache(budget_bytes=1, admit_seconds=0.0)
    scope = ("cs", "tICL", "max")
    small = ResultSet(["x"], [(1,)])
    assert cache.admit_result(scope, Q1_1, small, 1.0,
                              frozenset({"lineorder"}))
    # budget of one byte: admitting a second entry evicts the first
    assert cache.admit_result(scope, Q1_2, small, 1.0,
                              frozenset({"lineorder"}))
    assert cache.lookup_result(scope, Q1_1) is None
    assert cache.lookup_result(scope, Q1_2) is not None
    assert cache.counters.evictions >= 1


def test_cheap_queries_are_not_admitted():
    from repro.result import ResultSet

    cache = SemanticCache(admit_seconds=10.0)
    assert not cache.admit_result(("cs",), Q1_1, ResultSet(["x"], [(1,)]),
                                  0.5, frozenset({"lineorder"}))
    assert len(cache) == 0
    assert cache.counters.rejected_cheap == 1


def test_invalidate_by_table_and_wholesale():
    from repro.result import ResultSet

    cache = SemanticCache(admit_seconds=0.0)
    scope = ("cs",)
    cache.admit_result(scope, Q1_1, ResultSet(["x"], [(1,)]), 1.0,
                       frozenset({"lineorder", "date"}))
    cache.admit_result(scope, Q2_1, ResultSet(["x"], [(1,)]), 1.0,
                       frozenset({"lineorder", "part", "supplier",
                                  "date"}))
    assert cache.invalidate("part") == 1
    assert cache.lookup_result(scope, Q1_1) is not None
    assert cache.lookup_result(scope, Q2_1) is None
    assert cache.invalidate() == 1
    assert len(cache) == 0


def test_scopes_do_not_bleed():
    from repro.result import ResultSet

    cache = SemanticCache(admit_seconds=0.0)
    cache.admit_result(("cs", "tICL"), Q1_1, ResultSet(["x"], [(1,)]),
                       1.0, frozenset({"lineorder"}))
    assert cache.lookup_result(("cs", "TICL"), Q1_1) is None
    assert cache.lookup_result(("rs", "T"), Q1_1) is None
    assert cache.lookup_result(("cs", "tICL"), Q1_1) is not None


def test_query_by_name_round_trip():
    for query in ALL_QUERIES:
        assert query_by_name(query.name) is query
