"""Per-phase query tracing: spans, ledger attribution, run artifacts.

The paper's argument is an *attribution* argument — Figure 7 only means
something because each factor (compression, invisible join, block
iteration, late materialization) can be charged separately.  This module
extends that discipline from per-query to per-phase: a :class:`Tracer`
opens named spans around each phase of a plan (``phase1:dimension-filter``,
``phase2:fact-scan``, ``phase3:extraction``, ``aggregate``, ``sort``, and
their row-store analogues), and each span captures the
:class:`~repro.simio.stats.QueryStats` counters accrued while it was open
plus a priced :class:`~repro.simio.stats.CostBreakdown`.

The result is a tree of (span -> counters -> simulated seconds) that sums
**exactly** to the flat per-query ledger — enforced by
:meth:`Trace.verify`, which both engines call on every execution.  Work
not covered by any named span (plan setup, result assembly glue) appears
as the root span's *self* ledger, so nothing is ever lost or double
counted.

Tracing is passive: spans only *snapshot* the live ledger at open/close,
so a traced run charges byte-for-byte the same flat ledger as an
untraced one, and the morsel-parallel path keeps PR 1's bit-identical
guarantee (worker leaves are recorded at the barrier, in morsel order).

The serve layer adds its own span vocabulary on top of the engines':
``admission-wait``, ``breaker-check``, ``cache-lookup``,
``cache-admit``, plus zero-cost marker leaves
``shed`` (a brownout rejection) and ``degraded-hit`` (a cache answer
served while the scope's circuit breaker was open).
Failed submissions finish their tracer too — the partial trace, still
:meth:`Trace.verify`-clean, rides on the raised exception as
``error.trace``.

Span trees surface in three places:

* ``EXPLAIN`` output of both engines (:func:`render_trace`);
* the ``--trace-json`` bench flag, which writes one JSON-lines record
  per query execution (:func:`trace_record`, schema in
  ``docs/observability.md``);
* ``python -m repro.bench <figure> --check-baseline ARTIFACT``, which
  diffs a fresh run against a committed artifact (see
  :mod:`repro.bench.baseline`).
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .errors import TraceInvariantError
from .simio.stats import (COUNTER_NAMES, CostBreakdown, CostModel, PAPER_2008,
                          QueryStats)

#: Schema tag written into every ``--trace-json`` record.
TRACE_SCHEMA = "repro-trace-v1"

#: every ledger counter of a ``QueryStats`` as one tuple
_COUNTERS = operator.attrgetter(*COUNTER_NAMES)


@dataclass
class Span:
    """One named phase of a query: its inclusive ledger, priced.

    ``stats`` covers everything that happened while the span was open,
    including descendant spans; :meth:`self_stats` subtracts the
    children to give the span's own (exclusive) ledger.
    """

    name: str
    stats: QueryStats
    cost: CostBreakdown
    children: List["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.cost.total_seconds

    def self_stats(self) -> QueryStats:
        """This span's counters minus all children's (exclusive ledger)."""
        own = _COUNTERS(self.stats)
        for child in self.children:
            own = map(operator.sub, own, _COUNTERS(child.stats))
        return QueryStats(*own)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict:
        """JSON-ready dict with a stable, documented key order:
        ``name``, ``total_seconds``, ``io_seconds``, ``cpu_seconds``,
        ``counters`` (nonzero only, sorted by name), ``children``."""
        return {
            "name": self.name,
            "total_seconds": self.cost.total_seconds,
            "io_seconds": self.cost.io_seconds,
            "cpu_seconds": self.cost.cpu_seconds,
            "counters": self.stats.nonzero(),
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class Trace:
    """A finished span tree for one query execution."""

    root: Span

    def verify(self, flat: QueryStats) -> "Trace":
        """Enforce the attribution invariant against the flat ledger.

        Counter for counter: the root's inclusive ledger must equal
        ``flat`` exactly, and no span's children may sum to more than the
        span itself (every exclusive ledger must be non-negative).
        Equivalently, the self ledgers of all spans sum exactly to the
        flat per-query ledger.  Raises :class:`TraceInvariantError` on
        any violation.
        """
        if not self._sums_exactly(flat):
            self._raise_violation(flat)
        return self

    def _sums_exactly(self, flat: QueryStats) -> bool:
        """The two conditions of :meth:`verify`, decided from one
        counter tuple per span (this runs on every served request)."""
        if _COUNTERS(self.root.stats) != _COUNTERS(flat):
            return False
        for span in self.root.walk():
            own = _COUNTERS(span.stats)
            if span.children:
                charged = map(sum, zip(*[_COUNTERS(child.stats)
                                         for child in span.children]))
                if not all(map(operator.ge, own, charged)):
                    return False
            elif min(own) < 0:
                return False
        return True

    def _raise_violation(self, flat: QueryStats) -> None:
        """Name the first violated counter (the slow, exact path)."""
        root_snapshot = self.root.stats.snapshot()
        flat_snapshot = flat.snapshot()
        if root_snapshot != flat_snapshot:
            deltas = {
                name: (root_snapshot[name], flat_snapshot[name])
                for name in flat_snapshot
                if root_snapshot.get(name) != flat_snapshot[name]
            }
            raise TraceInvariantError(
                f"trace root does not sum to the flat ledger; "
                f"(root, flat) mismatches: {deltas}"
            )
        for span in self.root.walk():
            for name, value in span.self_stats().snapshot().items():
                if value < 0:
                    raise TraceInvariantError(
                        f"span {span.name!r} is over-attributed: children "
                        f"charge {name} {-value} more than the span itself"
                    )

    def span_names(self) -> List[str]:
        return [span.name for span in self.root.walk()]

    def find(self, name: str) -> Optional[Span]:
        """First span with ``name`` in depth-first order, if any."""
        for span in self.root.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict:
        return self.root.to_dict()


class Tracer:
    """Opens spans over a live :class:`QueryStats` ledger.

    The tracer never charges anything: entering a span snapshots the
    ledger, exiting diffs against the snapshot, so the flat ledger is
    byte-identical with or without a tracer attached.  Spans follow
    stack discipline and must be opened/closed on the coordinating
    thread only — morsel workers charge private ledgers that the
    barrier merges (in morsel order) while the enclosing span is open,
    then records as leaf spans via :meth:`leaf`.
    """

    def __init__(self, stats: QueryStats,
                 cost_model: CostModel = PAPER_2008,
                 root_name: str = "query") -> None:
        self._live = stats
        self._model = cost_model
        #: (name, entry counters, collected children) per open span;
        #: slot 0 is the implicit root, open for the tracer's lifetime
        self._stack: List[tuple] = [(root_name, _COUNTERS(stats), [])]
        self._finished: Optional[Trace] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a named span around a block of plan execution."""
        self._stack.append((name, _COUNTERS(self._live), []))
        try:
            yield
        finally:
            opened_name, entry, children = self._stack.pop()
            inclusive = QueryStats(*map(operator.sub, _COUNTERS(self._live),
                                        entry))
            self._attach(Span(opened_name, inclusive,
                              self._model.cost(inclusive), children))

    def leaf(self, name: str, stats: QueryStats) -> None:
        """Record a childless span from an already-computed ledger.

        Used by the morsel barrier: each worker's private ledger (plus
        its replayed I/O) becomes one leaf under the currently open
        span, appended in morsel order so traces are deterministic.
        """
        self._attach(Span(name, stats, self._model.cost(stats)))

    def _attach(self, span: Span) -> None:
        self._stack[-1][2].append(span)

    def attach_span(self, span: Span) -> None:
        """Adopt an already-finished span (tree) as a child of the
        currently open span.

        Used by the service layer: an engine execution builds and
        verifies its own trace against its own ledger; the service then
        merges that ledger into the session ledger and nests the
        engine's root span under the service span that was open around
        the call, so the combined tree still sums exactly to the
        combined flat ledger.
        """
        self._attach(span)

    def finish(self, flat: QueryStats) -> Trace:
        """Close the root span, verify against ``flat``, and return the
        trace.  Idempotent: later calls return the same trace."""
        if self._finished is not None:
            return self._finished
        if len(self._stack) != 1:
            open_names = [name for name, _s, _c in self._stack[1:]]
            raise TraceInvariantError(
                f"tracer finished with spans still open: {open_names}"
            )
        root_name, entry, children = self._stack[0]
        inclusive = QueryStats(*map(operator.sub, _COUNTERS(self._live),
                                    entry))
        root = Span(root_name, inclusive, self._model.cost(inclusive),
                    children)
        self._finished = Trace(root).verify(flat)
        return self._finished


def span_context(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when ``tracer`` is None
    — the single helper every instrumented operator goes through, so the
    untraced code paths stay exactly as they were."""
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name)


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


# ---------------------------------------------------------------------- #
# rendering and artifacts
# ---------------------------------------------------------------------- #
def render_trace(trace: Trace, indent: str = "  ") -> str:
    """The span tree as fixed-width EXPLAIN ANALYZE-style lines."""
    lines = [f"{indent}trace (simulated seconds):"]

    def emit(span: Span, depth: int) -> None:
        pad = indent + "  " * (depth + 1)
        label = f"{pad}{span.name}"
        lines.append(
            f"{label:<42} {span.cost.total_seconds:>10.5f}s "
            f"(io {span.cost.io_seconds:.5f}, "
            f"cpu {span.cost.cpu_seconds:.5f})"
        )
        for child in span.children:
            emit(child, depth + 1)

    emit(trace.root, 0)
    return "\n".join(lines)


def trace_record(trace: Trace, *, figure: str, series: str, query: str,
                 engine: str, scale_factor: float, workers: int) -> Dict:
    """One ``--trace-json`` JSON-lines record (stable key order; the
    schema is documented in ``docs/observability.md``)."""
    return {
        "schema": TRACE_SCHEMA,
        "figure": figure,
        "series": series,
        "query": query,
        "engine": engine,
        "scale_factor": scale_factor,
        "workers": workers,
        "total_seconds": trace.root.cost.total_seconds,
        "io_seconds": trace.root.cost.io_seconds,
        "cpu_seconds": trace.root.cost.cpu_seconds,
        "spans": trace.to_dict(),
    }


__all__ = ["Span", "Trace", "Tracer", "span_context", "render_trace",
           "trace_record", "TRACE_SCHEMA"]
