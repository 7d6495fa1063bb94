"""Zone-map synopses: pruning must be invisible except to the I/O meter.

Three contracts:

* **Invisibility** — every SSB query, compression on and off, returns
  identical rows and an identical flat ledger modulo the two skip
  counters; zone maps never read *more* pages; the
  span tree still sums exactly to the flat ledger.
* **Fallback** — a corrupted sidecar produces a typed
  :class:`SynopsisWarning` and a full scan with unchanged results, never
  a wrongly skipped block.
* **Scrub** — a corrupt sidecar page is repaired byte-identically by
  rebuilding the synopsis from the (verified) data pages.
"""

import dataclasses
import warnings

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.scrub import scrub_store
from repro.simio.faults import FaultInjector, FaultPolicy
from repro.ssb.queries import ALL_QUERIES, query_by_name
from repro.storage.colfile import CompressionLevel
from repro.synopsis import (
    SynopsisWarning,
    load_column_synopsis,
    sidecar_name,
)

SKIP_COUNTERS = ("synopsis_probes", "blocks_skipped")


def _ledger_mod_skips(stats):
    flat = dataclasses.asdict(stats)
    for name in SKIP_COUNTERS:
        flat.pop(name)
    return flat


def _configs():
    for label in ("tICL", "tIcL"):
        base = ExecutionConfig.from_label(label)
        yield base, dataclasses.replace(base, zone_maps=True)


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_pruning_is_invisible(cstore, query):
    for off_config, on_config in _configs():
        off = cstore.execute(query, off_config)
        on = cstore.execute(query, on_config)
        assert on.result.same_rows(off.result), off_config.label
        assert on.stats.pages_read <= off.stats.pages_read
        if on.stats.blocks_skipped == 0:
            # pruning that skips nothing must be charge-free: the only
            # ledger drift allowed is the probe counter itself
            assert _ledger_mod_skips(on.stats) == \
                _ledger_mod_skips(off.stats)
        # off-mode must not even know the synopsis layer exists
        assert off.stats.synopsis_probes == 0
        assert off.stats.blocks_skipped == 0
        on.trace.verify(on.stats)


@pytest.mark.parametrize("design",
                         [DesignKind.TRADITIONAL,
                          DesignKind.VERTICAL_PARTITIONING],
                         ids=lambda d: d.value)
def test_rowstore_pruning_is_invisible(ssb_data, design):
    off_engine = SystemX(ssb_data, designs=[design])
    on_engine = SystemX(ssb_data, designs=[design], zone_maps=True)
    for name in ("Q1.1", "Q1.2", "Q2.1", "Q3.1", "Q4.1"):
        query = query_by_name(name)
        off = off_engine.execute(query, design)
        on = on_engine.execute(query, design)
        assert on.result.same_rows(off.result), name
        assert on.stats.pages_read <= off.stats.pages_read
        if on.stats.blocks_skipped == 0:
            assert _ledger_mod_skips(on.stats) == \
                _ledger_mod_skips(off.stats)
        assert off.stats.synopsis_probes == 0
        on.trace.verify(on.stats)


def test_colstore_skips_blocks_on_selective_scans(cstore):
    """Q1.x at compression off must win strictly, not vacuously."""
    config = dataclasses.replace(ExecutionConfig.from_label("tIcL"),
                                 zone_maps=True)
    for name in ("Q1.1", "Q1.2", "Q1.3"):
        query = query_by_name(name)
        off = cstore.execute(query, ExecutionConfig.from_label("tIcL"))
        on = cstore.execute(query, config)
        assert on.stats.blocks_skipped > 0, name
        assert on.stats.pages_read < off.stats.pages_read, name


def test_corrupt_sidecar_falls_back_to_full_scan(ssb_data):
    store = CStore(ssb_data)
    query = query_by_name("Q1.1")
    off_config = ExecutionConfig.from_label("tIcL")
    on_config = dataclasses.replace(off_config, zone_maps=True)
    baseline = store.execute(query, off_config)

    log = FaultInjector(5, [FaultPolicy(file_glob="*.zm",
                                        bitflip_rate=1.0)]) \
        .install(store.disk)
    assert log, "no sidecar pages were corrupted"
    with pytest.warns(SynopsisWarning):
        degraded = store.execute(query, on_config)
    # full-scan fallback: identical rows AND an identical ledger — no
    # probes are charged when the synopsis is unusable
    assert degraded.result.same_rows(baseline.result)
    assert dataclasses.asdict(degraded.stats) == \
        dataclasses.asdict(baseline.stats)


def test_corrupt_heap_sidecar_falls_back_to_full_scan(ssb_data):
    engine = SystemX(ssb_data, designs=[DesignKind.TRADITIONAL],
                     zone_maps=True)
    clean = SystemX(ssb_data, designs=[DesignKind.TRADITIONAL])
    query = query_by_name("Q1.1")
    baseline = clean.execute(query, DesignKind.TRADITIONAL)

    log = FaultInjector(6, [FaultPolicy(file_glob="*.zm",
                                        bitflip_rate=1.0)]) \
        .install(engine.disk)
    assert log, "no sidecar pages were corrupted"
    with pytest.warns(SynopsisWarning):
        degraded = engine.execute(query, DesignKind.TRADITIONAL)
    assert degraded.result.same_rows(baseline.result)
    assert dataclasses.asdict(degraded.stats) == \
        dataclasses.asdict(baseline.stats)


def test_scrub_repairs_corrupt_sidecar(ssb_data):
    store = CStore(ssb_data)
    log = FaultInjector(7, [FaultPolicy(file_glob="*.zm",
                                        bitflip_rate=0.5)]) \
        .install(store.disk)
    assert log, "no sidecar pages were corrupted"
    report = scrub_store(store)
    assert report.repaired_pages >= len(log)
    assert scrub_store(store, repair=False).clean

    # the repaired synopsis decodes and prunes again, without warnings
    query = query_by_name("Q1.1")
    config = dataclasses.replace(ExecutionConfig.from_label("tIcL"),
                                 zone_maps=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SynopsisWarning)
        run = store.execute(query, config)
    assert run.stats.blocks_skipped > 0


def test_sidecars_exist_for_fact_columns(cstore):
    disk = cstore.disk
    sidecars = [n for n in disk.files() if n.endswith(".zm")]
    assert sidecars, "no synopsis sidecars were written at load time"
    # every multi-block column file of the uncompressed lineorder
    # projection has a sidecar that decodes cleanly; single-block files
    # get none (the sidecar page would cost more than it can save)
    proj = cstore.projection("lineorder", CompressionLevel.NONE)
    for column in proj.column_names:
        colfile = proj.column_file(column)
        multi_block = len(disk.file(colfile.name).pages) >= 2
        assert disk.exists(sidecar_name(colfile.name)) == multi_block, \
            column
        if multi_block:
            assert load_column_synopsis(colfile) is not None, column
