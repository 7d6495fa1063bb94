"""Tracer unit tests: span stacking, attribution, invariants, artifacts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceInvariantError
from repro.obs import (
    Span,
    TRACE_SCHEMA,
    Trace,
    Tracer,
    render_trace,
    span_context,
    trace_record,
)
from repro.simio.stats import PAPER_2008, QueryStats


def test_span_tree_sums_to_flat():
    stats = QueryStats()
    tracer = Tracer(stats)
    stats.iterator_calls += 5  # root self work, outside any span
    with tracer.span("a"):
        stats.hash_probes += 10
        with tracer.span("a.1"):
            stats.hash_probes += 7
    with tracer.span("b"):
        stats.agg_updates += 3
    trace = tracer.finish(stats)
    assert trace.span_names() == ["query", "a", "a.1", "b"]
    assert trace.root.stats.iterator_calls == 5
    assert trace.root.stats.hash_probes == 17
    a = trace.find("a")
    assert a.stats.hash_probes == 17  # inclusive of a.1
    assert a.self_stats().hash_probes == 10  # exclusive
    assert trace.find("a.1").stats.hash_probes == 7
    assert trace.find("b").stats.agg_updates == 3
    # self ledgers over the whole tree sum exactly to the flat ledger
    total = QueryStats()
    for span in trace.root.walk():
        total.merge(span.self_stats())
    assert total.snapshot() == stats.snapshot()


def test_finish_is_idempotent():
    stats = QueryStats()
    tracer = Tracer(stats)
    with tracer.span("a"):
        stats.seeks += 1
    assert tracer.finish(stats) is tracer.finish(stats)


def test_finish_with_open_span_raises():
    stats = QueryStats()
    tracer = Tracer(stats)
    context = tracer.span("left-open")
    context.__enter__()
    with pytest.raises(TraceInvariantError, match="left-open"):
        tracer.finish(stats)


def test_finish_rejects_foreign_flat_ledger():
    stats = QueryStats()
    tracer = Tracer(stats)
    stats.seeks += 1
    other = QueryStats()  # does not match what the tracer observed
    with pytest.raises(TraceInvariantError, match="seeks"):
        tracer.finish(other)


def test_verify_rejects_overattributed_children():
    # a child claiming work its parent never observed must not verify
    child_stats = QueryStats()
    child_stats.hash_probes = 5
    child = Span("child", child_stats, PAPER_2008.cost(child_stats))
    root_stats = QueryStats()
    root = Span("query", root_stats, PAPER_2008.cost(root_stats), [child])
    with pytest.raises(TraceInvariantError, match="over-attributed"):
        Trace(root).verify(QueryStats())


_small = st.integers(-1, 3)
_ledgers = st.builds(QueryStats, seeks=_small, hash_probes=_small,
                     bytes_read=_small)
_trees = st.recursive(
    st.builds(Span, st.just("leaf"), _ledgers, st.just(None)),
    lambda kids: st.builds(Span, st.just("node"), _ledgers, st.just(None),
                           st.lists(kids, max_size=3)),
    max_leaves=6)


@given(_trees, _ledgers)
def test_fast_verdict_is_the_slow_paths_verdict(root, flat):
    """``verify`` decides from counter tuples and only formats through
    the counter-by-counter path; the two must never disagree."""
    trace = Trace(root)
    try:
        trace._raise_violation(flat)
        violated = False
    except TraceInvariantError:
        violated = True
    assert trace._sums_exactly(flat) is not violated
    if violated:
        with pytest.raises(TraceInvariantError):
            trace.verify(flat)
    else:
        assert trace.verify(flat) is trace


def test_leaf_spans_record_in_order():
    stats = QueryStats()
    tracer = Tracer(stats)
    with tracer.span("scan"):
        for morsel_no in range(3):
            part = QueryStats()
            part.pages_read = morsel_no + 1
            stats.merge(part)
            tracer.leaf(f"morsel:{morsel_no}", part)
    trace = tracer.finish(stats)
    scan = trace.find("scan")
    assert [s.name for s in scan.children] == [
        "morsel:0", "morsel:1", "morsel:2"]
    assert scan.stats.pages_read == 6
    assert scan.self_stats().pages_read == 0


def test_span_context_none_is_noop():
    with span_context(None, "anything") as value:
        assert value is None


def test_exceptions_still_close_spans():
    stats = QueryStats()
    tracer = Tracer(stats)
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            stats.seeks += 2
            raise RuntimeError("mid-span failure")
    trace = tracer.finish(stats)
    assert trace.find("boom").stats.seeks == 2


def test_render_trace_lines():
    stats = QueryStats()
    tracer = Tracer(stats)
    with tracer.span("aggregate"):
        stats.agg_updates += 1000
    text = render_trace(tracer.finish(stats))
    assert "trace (simulated seconds)" in text
    assert "aggregate" in text
    assert "io " in text and "cpu " in text


def test_trace_record_schema_and_key_order():
    stats = QueryStats()
    tracer = Tracer(stats)
    with tracer.span("sort"):
        stats.sort_compares += 10
    trace = tracer.finish(stats)
    record = trace_record(trace, figure="figure7", series="tICL",
                          query="Q2.1", engine="colstore",
                          scale_factor=0.01, workers=4)
    assert list(record) == [
        "schema", "figure", "series", "query", "engine", "scale_factor",
        "workers", "total_seconds", "io_seconds", "cpu_seconds", "spans",
    ]
    assert record["schema"] == TRACE_SCHEMA
    spans = record["spans"]
    assert list(spans) == ["name", "total_seconds", "io_seconds",
                           "cpu_seconds", "counters", "children"]
    assert spans["children"][0]["name"] == "sort"
    assert spans["children"][0]["counters"] == {"sort_compares": 10}
    # nonzero-only counters, sorted by name
    assert list(spans["counters"]) == sorted(spans["counters"])
