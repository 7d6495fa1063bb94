"""Wall-clock spans recorded from outside the program.

The engines' own ``repro.obs`` spans carry the *simulated* ledger only.
This module adds the other clock without touching ``src/``: timing
wrappers are installed around the public entry point of each layer
(class methods are patched on the class; functions bound by ``from x
import f`` are patched in every ``repro`` module that holds a reference)
and removed again when the traced phase ends.

A span is ``(id, parent, request, layer, name, t0_ns, t1_ns)``.  Spans
nest by a per-thread stack, so a span's *self time* is its duration
minus its direct children's; summed over all layers the self times equal
the root spans' durations.  A wrapper that runs on a thread with no open
request (a morsel worker, set-up code) records nothing, so work done by
worker threads shows up as self time of the span that waits for it.

Generator functions are timed per ``next()``: the span is open only
while the generator's own frame runs, which keeps nesting exact when one
operator pulls from another.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer of a request's root span: the benchmark's own loop plus any
#: program code that runs before the first traced entry point
CLIENT_LAYER = "client"

Span = Tuple[int, Optional[int], int, str, str, int, int]


def entry_points() -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every traced entry point.

    ``owner`` is a class (method patched on the class) or a module
    (function patched wherever it is bound).  Imported here, not at
    module import, so that listing the points is what pulls in ``repro``.
    """
    from repro.colstore import engine as cs_engine
    from repro.colstore import planner as cs_planner
    from repro.colstore.operators import (aggregate, fetch, materialize,
                                          scan)
    from repro.core import invisible_join
    from repro.rowstore import engine as rs_engine
    from repro.rowstore import operators as rs_operators
    from repro.rowstore import planner as rs_planner
    from repro.serve import adapters, semcache, service
    from repro.shard import executor as shard_executor
    from repro.simio import buffer_pool
    from repro.sql import binder, parser
    from repro.storage import colfile, heapfile, rowpage
    from repro.storage.encodings import codec
    from repro.write import journal, store

    return [
        ("storage.decode", codec, "decode_payload"),
        ("storage.decode", codec, "decode_payload_runs"),
        ("storage.read_block", colfile.ColumnFile, "read_block"),
        ("storage.read_block", colfile.ColumnFile, "iter_blocks"),
        ("storage.read_block", colfile.ColumnFile, "fetch"),
        ("storage.heap", heapfile.HeapFile, "scan_batches"),
        ("storage.heap", heapfile.HeapFile, "read_row"),
        # the row-store scans parse heap pages through the row format
        # directly, never through HeapFile.scan_batches
        ("storage.heap", rowpage.RowFormat, "parse_page"),
        ("simio.read_page", buffer_pool.BufferPool, "read_page"),
        ("colstore.execute", cs_engine.CStore, "execute"),
        ("colstore.plan", cs_planner.ColumnPlanner, "run"),
        ("colstore.scan", scan, "predicate_positions"),
        ("colstore.scan", scan, "probe_positions"),
        ("colstore.fetch", fetch, "fetch_values"),
        ("colstore.aggregate", aggregate, "grouped_aggregate"),
        ("colstore.aggregate", aggregate, "scalar_aggregate"),
        ("colstore.materialize", materialize, "construct_tuples"),
        ("colstore.materialize", materialize, "row_pipeline"),
        ("core.invisible_join", invisible_join.InvisibleJoin, "run"),
        ("core.invisible_join", invisible_join.LateMaterializedJoin, "run"),
        ("shard.scatter_gather", shard_executor, "scatter_gather"),
        ("rowstore.execute", rs_engine.SystemX, "execute"),
        ("rowstore.plan", rs_planner.RowPlanner, "run"),
        ("rowstore.operators", rs_operators, "seq_scan"),
        ("rowstore.operators", rs_operators, "hash_join"),
        ("rowstore.operators", rs_operators, "heap_fetch"),
        ("rowstore.operators", rs_operators.HashAggregator, "consume"),
        ("sql.parse", parser, "parse_statement"),
        ("sql.bind", binder, "bind"),
        ("sql.bind", binder, "bind_insert"),
        ("sql.bind", binder, "bind_delete"),
        ("serve.execute_sql", service.QueryService, "execute_sql"),
        ("serve.submit", service.QueryService, "submit"),
        ("serve.admission", service.AdmissionController, "acquire"),
        ("serve.cache_lookup", semcache.SemanticCache, "lookup_result"),
        ("serve.cache_lookup", semcache.SemanticCache, "find_subsuming"),
        ("serve.refilter", adapters.ColumnStoreAdapter, "refilter"),
        ("serve.refilter", adapters.RowStoreAdapter, "refilter"),
        ("serve.cache_admit", semcache.SemanticCache, "admit_result"),
        ("serve.cache_admit", semcache.SemanticCache, "admit_positions"),
        ("serve.dml", service.QueryService, "insert"),
        ("serve.dml", service.QueryService, "delete"),
        ("serve.move", service.QueryService, "move"),
        ("serve.recover", service.QueryService, "recover"),
        ("write.insert", store.WriteStore, "insert"),
        ("write.delete", store.WriteStore, "delete"),
        ("write.journal_append", journal.RedoJournal, "append"),
        ("write.move", cs_engine.CStore, "move"),
        ("write.move", rs_engine.SystemX, "move"),
        ("write.recover", cs_engine.CStore, "recover"),
        ("write.recover", rs_engine.SystemX, "recover"),
    ]


class Recorder:
    """Holds the spans of one traced phase and the installed patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute, original) for every patched binding
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # requests (root spans)
    # ------------------------------------------------------------------ #
    @contextmanager
    def request(self, name: str) -> Iterator[None]:
        """Open the root span of one client operation on this thread."""
        local = self._local
        span_id = next(self._ids)
        request_id = next(self._requests)
        local.stack = [span_id]
        local.request = request_id
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            local.stack = None
            self.spans.append((span_id, None, request_id, CLIENT_LAYER,
                               name, t0, t1))

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _wrap_call(self, func: Callable, layer: str, name: str) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return func(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, local.request, layer, name,
                              t0, t1))

        return traced

    def _wrap_generator(self, func: Callable, layer: str,
                        name: str) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                stack = getattr(local, "stack", None)
                if not stack:
                    yield from inner
                    return
                span_id = next(ids)
                parent = stack[-1]
                stack.append(span_id)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((span_id, parent, local.request, layer,
                                  name, t0, t1))
                yield item

        return traced

    def install(self) -> None:
        """Patch every entry point; :meth:`uninstall` restores them."""
        for layer, owner, attr in entry_points():
            original = getattr(owner, attr)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrap = self._wrap_generator \
                if inspect.isgeneratorfunction(original) else self._wrap_call
            wrapper = wrap(original, layer, name)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            # a module-level function: replace every binding of it, so
            # ``from x import f`` importers call the wrapper too
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound_name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write_jsonl(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as handle:
            for span_id, parent, request, layer, name, t0, t1 in self.spans:
                handle.write(
                    f'{{"id":{span_id},'
                    f'"parent":{"null" if parent is None else parent},'
                    f'"request":{request},"layer":"{layer}",'
                    f'"name":"{name}","t0_ns":{t0},"t1_ns":{t1}}}\n')


class Analysis:
    """Self times and per-layer views over one recorder's spans."""

    def __init__(self, spans: List[Span]) -> None:
        child_ns: Dict[int, int] = defaultdict(int)
        for _sid, parent, _req, _layer, _name, t0, t1 in spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        #: layer -> its spans, so a per-layer view reads only those
        self.by_layer: Dict[str, List[Span]] = defaultdict(list)
        #: layer -> summed self nanoseconds
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.root_ns = 0
        for span in spans:
            sid, parent, _req, layer, _name, t0, t1 = span
            self.by_layer[layer].append(span)
            self.self_ns[layer] += (t1 - t0) - child_ns.get(sid, 0)
            if parent is None:
                self.root_ns += t1 - t0

    def self_seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def calls(self, layer: str) -> int:
        return len(self.by_layer.get(layer, ()))

    def closure_error(self) -> float:
        """|sum of all self times - sum of root durations| / roots; the
        tracer is only trusted while this stays under 1 %."""
        if not self.root_ns:
            return 0.0
        return abs(sum(self.self_ns.values()) - self.root_ns) / self.root_ns

    def durations_ms(self, layer: str, name: Optional[str] = None
                     ) -> List[float]:
        """Inclusive duration of every span of ``layer`` (named
        ``name``, when given)."""
        return [(t1 - t0) / 1e6
                for _s, _p, _r, _l, span_name, t0, t1
                in self.by_layer.get(layer, ())
                if name is None or span_name == name]

    def per_request_ms(self, *layers: str, longest: bool = False
                       ) -> Dict[int, float]:
        """Per request, the summed inclusive duration of ``layers``'
        spans — or, with ``longest``, the longest one: the outermost
        where such spans nest (a merge read runs execute in execute)."""
        out: Dict[int, float] = defaultdict(float)
        for layer in layers:
            for _s, _p, request, _l, _n, t0, t1 in \
                    self.by_layer.get(layer, ()):
                ms = (t1 - t0) / 1e6
                out[request] = max(out[request], ms) if longest \
                    else out[request] + ms
        return out


__all__ = ["Recorder", "Analysis", "CLIENT_LAYER", "entry_points"]
