"""Harness, figures, report, and paper-data tests (tiny scale factor)."""

import pytest

from repro.bench.harness import Harness, RunGrid, scale_factor_from_env
from repro.bench.figures import figure7, figure8, storage_report
from repro.bench.paper_data import (
    PAPER_FIGURE5,
    PAPER_FIGURE6,
    PAPER_FIGURE7,
    PAPER_FIGURE8,
    QUERY_ORDER,
    average,
)
from repro.bench.report import (
    normalized_averages,
    render_comparison,
    render_grid,
    render_storage,
)
from repro.core.config import CONFIG_LADDER
from repro.errors import BenchmarkError
from repro.rowstore.designs import DesignKind
from repro.ssb import query_by_name


@pytest.fixture(scope="module")
def harness():
    # large enough that fixed per-query costs (seeks, dimension scans)
    # do not swamp the shapes under test
    return Harness(scale_factor=0.02, verify_against_reference=True)


def test_scale_factor_env(monkeypatch):
    monkeypatch.delenv("REPRO_SF", raising=False)
    assert scale_factor_from_env() == 0.05
    monkeypatch.setenv("REPRO_SF", "0.2")
    assert scale_factor_from_env() == 0.2
    monkeypatch.setenv("REPRO_SF", "junk")
    with pytest.raises(BenchmarkError):
        scale_factor_from_env()
    monkeypatch.setenv("REPRO_SF", "-1")
    with pytest.raises(BenchmarkError):
        scale_factor_from_env()


def test_paper_data_complete():
    for figure in (PAPER_FIGURE5, PAPER_FIGURE6, PAPER_FIGURE7,
                   PAPER_FIGURE8):
        for series in figure.values():
            assert sorted(series) == sorted(QUERY_ORDER)
    # the averages printed in the paper are reproduced by `average`
    assert average(PAPER_FIGURE7["tICL"]) == pytest.approx(4.0, abs=0.06)
    assert average(PAPER_FIGURE6["AI"]) == pytest.approx(221.2, abs=0.5)
    assert average(PAPER_FIGURE5["CS (Row-MV)"]) == pytest.approx(
        25.9, abs=0.1)


def test_run_grid():
    grid = RunGrid("t")
    grid.add("a", "Q1.1", 1.0)
    grid.add("a", "Q1.2", 3.0)
    grid.add("b", "Q1.1", 2.0)
    grid.add("b", "Q1.2", 2.0)
    assert grid.averages() == {"a": 2.0, "b": 2.0}
    assert grid.query_names() == ["Q1.1", "Q1.2"]


def test_harness_runs_verified(harness):
    q = query_by_name("Q2.1")
    assert harness.run_row_design(q, DesignKind.TRADITIONAL) > 0
    assert harness.run_column_config(q, CONFIG_LADDER[0]) > 0
    assert harness.run_row_mv(q) > 0


def test_figure7_shape(harness):
    """The headline ablation claims hold at tiny scale too."""
    grid = figure7(harness)
    avgs = grid.averages()
    # compression: ~2x on average (allow a broad band)
    assert 1.3 < avgs["ticL"] / avgs["tiCL"] < 6
    # late materialization: ~3x
    assert 1.5 < avgs["Ticl"] / avgs["TicL"] < 6
    # invisible join helps
    assert avgs["tiCL"] > avgs["tICL"]
    # the fully-stripped configuration is the slowest
    assert avgs["Ticl"] == max(avgs.values())
    # the full column store is the fastest
    assert avgs["tICL"] == min(avgs.values())


def test_figure8_shape(harness):
    grid = figure8(harness)
    avgs = grid.averages()
    # uncompressed pre-join is worse than the invisible join (the full
    # ~5x gap of the paper emerges at the default bench SF of 0.05+,
    # where fixed per-query seek costs stop mattering)
    assert avgs["PJ, No C"] > 1.3 * avgs["Base"]
    # max compression makes denormalization competitive
    assert avgs["PJ, Max C"] < 1.5 * avgs["Base"]
    assert avgs["PJ, Int C"] < avgs["PJ, No C"]


def test_storage_report(harness):
    report = storage_report(harness)
    assert report["vertical partition: all 17 column-tables"] > \
        report["row-store fact heap (traditional)"]
    assert report["C-Store fact projection (compressed)"] < \
        report["C-Store fact projection (uncompressed)"]
    assert report["C-Store orderdate column (compressed, RLE)"] < 0.05
    text = render_storage(report)
    assert "fact heap" in text


def test_render_grid_and_comparison(harness):
    grid = RunGrid("demo")
    for label in ("tICL", "Ticl"):
        for q in QUERY_ORDER:
            grid.add(label, q, 1.0 if label == "tICL" else 10.0)
    table = render_grid(grid)
    assert "demo" in table and "AVG" in table
    comparison = render_comparison(grid, PAPER_FIGURE7)
    assert "measured" in comparison and "paper" in comparison
    norm = normalized_averages(grid.series)
    assert norm["tICL"] == 1.0
    assert norm["Ticl"] == 10.0


def test_render_cost_breakdown(harness):
    from repro.bench.report import render_cost_breakdown
    from repro.core.config import ExecutionConfig

    run = harness.cstore().execute(query_by_name("Q2.1"),
                                   ExecutionConfig.baseline())
    text = render_cost_breakdown(run.stats, harness.cstore().cost_model,
                                 "demo")
    assert "demo" in text
    assert "bytes_read (transfer)" in text
    assert "TOTAL" in text
    # shares add up to ~100%
    shares = [float(line.split()[-1].rstrip("%"))
              for line in text.splitlines()
              if line.strip().endswith("%")]
    assert sum(shares) == pytest.approx(100.0, abs=1.5)


def test_render_bars():
    from repro.bench.report import render_bars

    grid = RunGrid("demo")
    grid.add("fast", "Q1.1", 1.0)
    grid.add("slow", "Q1.1", 4.0)
    text = render_bars(grid, width=8)
    assert "averages" in text
    fast_line = next(l for l in text.splitlines() if "fast" in l)
    slow_line = next(l for l in text.splitlines() if "slow" in l)
    assert slow_line.count("#") == 4 * fast_line.count("#")


def test_baseline_record_stamps_writes(tmp_path):
    import json

    from repro.bench.baseline import (
        baseline_record,
        load_baseline,
        write_baseline,
    )

    grid = RunGrid("t")
    grid.add("a", "Q1.1", 1.0)
    record = baseline_record(grid, figure="f", scale_factor=0.004)
    assert record["writes"] is False  # read-only is the default stamp
    assert "workers" not in record
    path = tmp_path / "baseline.json"
    write_baseline(str(path), grid, figure="f", scale_factor=0.004,
                   writes=True)
    assert load_baseline(str(path))["writes"] is True
    # a pre-write-store artifact omits the key and loads fine: callers
    # read the absent stamp as writes-off
    stripped = json.loads(path.read_text())
    del stripped["writes"]
    path.write_text(json.dumps(stripped))
    loaded = load_baseline(str(path))
    assert "writes" not in loaded
    assert loaded.get("writes", False) is False


def test_harness_writes_knob_is_ledger_invisible():
    """A writes-enabled harness with no pending delta produces the same
    simulated seconds as a read-only one (the acceptance bar's
    byte-identical guarantee, at the harness level)."""
    from repro.rowstore.designs import DesignKind

    read_only = Harness(scale_factor=0.004)
    writable = Harness(scale_factor=0.004, writes=True)
    assert writable.system_x([DesignKind.TRADITIONAL]).writes is True
    query = query_by_name("Q1.1")
    cold_ro = read_only.system_x([DesignKind.TRADITIONAL]) \
        .execute(query, DesignKind.TRADITIONAL)
    cold_rw = writable.system_x([DesignKind.TRADITIONAL]) \
        .execute(query, DesignKind.TRADITIONAL)
    assert cold_ro.seconds == cold_rw.seconds
