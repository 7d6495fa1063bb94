"""Semantic-cache byte accounting, and the inert ``shards`` field's
place outside the cache scope.

The ``_bytes`` gauge drives eviction and the ``snapshot()`` numbers, so
the cache self-checks it against the sum of entry sizes after every
mutation.  These tests hammer the mutation paths — insert, replace,
discard, invalidate, evict — and assert the gauge can never go stale or
negative; plus the serve-layer rule that a session differing only in
the inert ``shards`` field shares the cache entries of ``shards=1``.
"""

from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.core.config import ExecutionConfig
from repro.result import ResultSet
from repro.serve.semcache import SemanticCache, ValueSet, normalize_query
from repro.serve.service import QueryService
from repro.sql import parse_query
from repro.ssb.queries import ALL_QUERIES

SCOPE = ("cs", "tICL", "max", "", "sh1")
OTHER_SCOPE = ("rs", "T", "", "sh1")


def _query(n: int):
    return parse_query(
        f"SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
        f"WHERE lo.quantity < {n}")


def _result(rows: int) -> ResultSet:
    return ResultSet(["r"], [(i,) for i in range(rows)])


def _assert_consistent(cache: SemanticCache) -> None:
    snap = cache.snapshot()
    assert cache.current_bytes >= 0
    assert cache.current_bytes == snap["bytes"]
    # ground truth: the entries themselves
    assert cache.current_bytes == \
        sum(e.nbytes for e in cache._entries.values())


# --------------------------------------------------------------------- #
# the hammer: every mutation path, gauge checked after each step
# --------------------------------------------------------------------- #
def test_accounting_survives_mixed_mutations():
    cache = SemanticCache(budget_bytes=16 << 10, admit_seconds=0.0)
    for round_ in range(3):
        for n in range(1, 30):
            # vary sizes; repeats of the same n are replacements
            cache.admit_result(SCOPE, _query(n), _result(n % 7 + 1),
                               seconds=1.0, tables=frozenset({"lineorder"}))
            _assert_consistent(cache)
        dropped = cache.invalidate("lineorder")
        assert dropped > 0
        _assert_consistent(cache)
    assert cache.current_bytes >= 0


def test_replacement_never_double_counts():
    cache = SemanticCache(budget_bytes=1 << 20, admit_seconds=0.0)
    big, small = _result(500), _result(1)
    for payload in (big, small, big, small):
        cache.admit_result(SCOPE, _query(5), payload, seconds=1.0,
                           tables=frozenset({"lineorder"}))
        _assert_consistent(cache)
        assert len(cache) == 1
    # the gauge tracks the *last* admitted payload, not the sum
    solo = SemanticCache(budget_bytes=1 << 20, admit_seconds=0.0)
    solo.admit_result(SCOPE, _query(5), small, seconds=1.0,
                      tables=frozenset({"lineorder"}))
    assert cache.current_bytes == solo.current_bytes


def test_eviction_keeps_gauge_within_budget():
    cache = SemanticCache(budget_bytes=4 << 10, admit_seconds=0.0)
    for n in range(1, 60):
        cache.admit_result(SCOPE, _query(n), _result(20), seconds=1.0,
                           tables=frozenset({"lineorder"}))
        _assert_consistent(cache)
    assert cache.counters.evictions > 0
    assert cache.current_bytes <= cache.budget_bytes


def test_discard_and_clear():
    cache = SemanticCache(budget_bytes=1 << 20, admit_seconds=0.0)
    cache.admit_result(SCOPE, _query(3), _result(3), seconds=1.0,
                       tables=frozenset({"lineorder"}))
    [key] = list(cache._entries)
    cache.discard(key)
    _assert_consistent(cache)
    assert cache.current_bytes == 0
    cache.discard(key)  # double discard is a no-op, not a drift
    _assert_consistent(cache)
    cache.admit_result(SCOPE, _query(4), _result(4), seconds=1.0,
                       tables=frozenset({"lineorder"}))
    assert cache.clear() == 1
    _assert_consistent(cache)
    assert cache.current_bytes == 0


def test_drift_is_caught_not_silent():
    """If the gauge ever disagrees with the entries, the very next
    mutation raises instead of silently mis-evicting."""
    cache = SemanticCache(budget_bytes=1 << 20, admit_seconds=0.0)
    cache.admit_result(SCOPE, _query(3), _result(3), seconds=1.0,
                       tables=frozenset({"lineorder"}))
    cache._bytes += 1  # simulated accounting bug
    with pytest.raises(AssertionError, match="drifted"):
        cache.invalidate("lineorder")


def test_empty_valueset_signature_admits_cleanly():
    # contradictory predicates fold to an empty constraint; the
    # degenerate key must not upset accounting
    query = parse_query(
        "SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
        "WHERE lo.quantity = 3 AND lo.quantity = 4")
    assert normalize_query(query).constraints == \
        (("lineorder", "quantity", ValueSet(())),)
    cache = SemanticCache(budget_bytes=1 << 20, admit_seconds=0.0)
    cache.admit_result(SCOPE, query, _result(0), seconds=1.0,
                       tables=frozenset({"lineorder"}))
    _assert_consistent(cache)
    assert cache.lookup_result(SCOPE, query).rows == []


class _CountingEntries(OrderedDict):
    """An entry map that counts full passes over itself."""

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


def test_plain_insert_makes_no_pass_over_the_entries():
    """Admission is O(1): the gauge is incremental, and its ground-truth
    audit runs only on paths that remove entries."""
    cache = SemanticCache(admit_seconds=0.0)
    for n in range(300):
        cache.admit_result(SCOPE, _query(n), _result(1), seconds=1.0,
                           tables=frozenset({"lineorder"}))
    cache._entries = entries = _CountingEntries(cache._entries)
    cache.admit_result(OTHER_SCOPE, _query(1), _result(1), seconds=1.0,
                       tables=frozenset({"lineorder", "date"}))
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
    cache.admit_result(OTHER_SCOPE, _query(2), _result(1), seconds=1.0,
                       tables=frozenset({"lineorder"}))
    assert cache.counters.evictions > 0 and entries.passes > before


# --------------------------------------------------------------------- #
# the inert shards field through the service
# --------------------------------------------------------------------- #
def test_inert_shards_field_shares_cache_entries(cstore):
    """Every read runs on the engine's one storage stack, so ``shards``
    is no part of the cache scope: a ``shards=4`` session is served
    ``cache-exact`` from the entry a ``shards=1`` session admitted."""
    q11 = next(q for q in ALL_QUERIES if q.name == "Q1.1")
    with QueryService(cstore=cstore) as service:
        plain = service.session(engine="cs")
        inert = service.session(
            engine="cs",
            config=replace(ExecutionConfig.baseline(), shards=4))
        first = plain.execute(q11)
        assert first.source == "engine"
        cross = inert.execute(q11)
        assert cross.source == "cache-exact"
        assert cross.result.rows == first.result.rows
        assert service.cache.snapshot()["entries"] == 1
