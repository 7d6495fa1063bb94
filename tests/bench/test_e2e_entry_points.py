"""Guard the end-to-end benchmark's patch points.

``benchmarks/e2e/`` may not change together with ``src/`` (the driver
runs the parent's and the change's checkout with the same benchmark), so
everything it reaches into the program for — the ``(layer, owner,
attribute)`` entry points its wall-clock tracer patches, the span names
``run.py`` reads back, one private attribute — is part of the program's
contract.  A refactor that moves or renames any of them must fail here,
in tier-1, not in the benchmark pipeline.
"""

import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService, ServiceConfig
from repro.ssb.generator import generate
from repro.ssb.queries import query_by_name
from repro.storage.colfile import CompressionLevel
from tests.write.dml import clone_rows

TRACING = Path(__file__).resolve().parents[2] / "benchmarks/e2e/tracing.py"
Q1_1 = query_by_name("Q1.1")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_data():
    return generate(0.002)


def _open(kind, data):
    """(engine, read) the way ``workloads.py`` builds and queries them."""
    if kind == "cs":
        engine = CStore(data, levels=(CompressionLevel.MAX,))
        config = replace(ExecutionConfig.from_label("tICL"), writes=True)
        return engine, lambda: engine.execute(Q1_1, config)
    engine = SystemX(data, designs=[DesignKind.TRADITIONAL], writes=True)
    return engine, lambda: engine.execute(Q1_1, DesignKind.TRADITIONAL)


def test_every_entry_point_resolves(tracing):
    points = tracing.entry_points()
    assert len({(owner, attr) for _layer, owner, attr in points}) \
        == len(points)
    for layer, owner, attr in points:
        assert callable(getattr(owner, attr, None)), (layer, owner, attr)


def test_recorder_installs_and_restores(tracing):
    points = tracing.entry_points()
    originals = [getattr(owner, attr) for _layer, owner, attr in points]
    recorder = tracing.Recorder()
    with recorder.installed():
        for (_layer, owner, attr), original in zip(points, originals):
            patched = getattr(owner, attr)
            assert patched is not original, (owner, attr)
            assert patched.__wrapped__ is original, (owner, attr)
            assert inspect.isgeneratorfunction(patched) \
                == inspect.isgeneratorfunction(original), (owner, attr)
    for (_layer, owner, attr), original in zip(points, originals):
        assert getattr(owner, attr) is original, (owner, attr)
    assert not recorder.spans  # nothing ran inside a request


@pytest.mark.parametrize("kind,prefix", [("cs", "CStore"),
                                         ("rs", "SystemX")])
def test_inherited_lifecycle_is_recorded_per_engine(tracing, tiny_data,
                                                    kind, prefix):
    """``run.py`` reads move / recover durations by span name; the
    methods are inherited from one base class, and each engine's calls
    must still be recorded under that engine's own name."""
    engine, read = _open(kind, tiny_data)
    recorder = tracing.Recorder()
    with recorder.installed():
        with recorder.request("cycle"):
            engine.insert("lineorder", clone_rows(tiny_data.lineorder, 5))
            read()  # a merge read
            assert engine.move() == 5
            read()
            engine.insert("lineorder", clone_rows(tiny_data.lineorder, 1))
            engine.recover()
    names = {name for _id, _parent, _req, _layer, name, _t0, _t1
             in recorder.spans}
    assert {f"{prefix}.execute", f"{prefix}.move",
            f"{prefix}.recover"} <= names
    other = "SystemX" if prefix == "CStore" else "CStore"
    assert not {n for n in names if n.startswith(other + ".")}
    by_layer = {layer for _id, _parent, _req, layer, _n, _t0, _t1
                in recorder.spans}
    assert {"write.insert", "write.journal_append", "write.move",
            "write.recover", f"{'col' if kind == 'cs' else 'row'}store"
            ".execute"} <= by_layer
    analysis = tracing.Analysis(recorder.spans)
    assert analysis.durations_ms("write.move", f"{prefix}.move")
    assert analysis.durations_ms("write.recover", f"{prefix}.recover")


@pytest.mark.parametrize("kind", ("cs", "rs"))
def test_journal_pages_private_read(tiny_data, kind):
    """``workloads.py`` sizes the redo journals through
    ``engine._writes.journal.num_pages`` (None until the first write)."""
    engine, _read = _open(kind, tiny_data)
    assert engine._writes is None
    engine.insert("lineorder", clone_rows(tiny_data.lineorder, 1))
    assert engine._writes.journal.num_pages > 0


def test_service_stats_keys_note_service_reads(tiny_data):
    """``workloads.py``'s ``note_service`` copies these ``serve_stats()``
    entries into every served workload's counts."""
    engine = CStore(tiny_data, levels=(CompressionLevel.MAX,))
    with QueryService(cstore=engine,
                      config=ServiceConfig(cache_admit_seconds=0.0)
                      ) as service:
        session = service.session("cs", engine="cs",
                                  config=ExecutionConfig.from_label("tICL"))
        session.execute(Q1_1)
        session.execute(Q1_1)
        snapshot = service.serve_stats()
    counts = {name: snapshot["service"][name]
              for name in ("completed", "engine_runs", "exact_hits",
                           "subsumption_hits")}
    assert counts == {"completed": 2, "engine_runs": 1, "exact_hits": 1,
                      "subsumption_hits": 0}
    for name in ("bytes", "evictions", "invalidations", "budget_bytes"):
        assert isinstance(snapshot["cache"][name], int), name
    assert snapshot["cache"]["bytes"] > 0
