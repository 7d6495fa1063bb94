"""The command-line entry points, driven in-process."""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.shell import main as shell_main
from repro.ssb.validate import main as validate_main


def test_bench_single_figure(capsys):
    assert bench_main(["figure7", "--sf", "0.004"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "tICL" in out and "Ticl" in out
    assert "shape comparison" in out
    assert "averages" in out  # bar chart


def test_bench_storage(capsys):
    assert bench_main(["storage", "--sf", "0.004"]) == 0
    assert "fact heap" in capsys.readouterr().out


def test_bench_breakdown(capsys):
    assert bench_main(["breakdown", "--sf", "0.004", "--query", "Q1.1",
                       "--config", "ticL", "--design", "MV"]) == 0
    out = capsys.readouterr().out
    assert "column store [ticL]" in out
    assert "row store [MV]" in out
    assert "TOTAL" in out


def test_bench_report_to_file(tmp_path, capsys):
    target = tmp_path / "results.md"
    assert bench_main(["report", "--sf", "0.004", "--out",
                       str(target)]) == 0
    text = target.read_text()
    assert "Figure 5" in text and "Storage report" in text


def test_bench_verify_flag(capsys):
    assert bench_main(["figure7", "--sf", "0.004", "--verify"]) == 0


def test_bench_rejects_unknown_target():
    with pytest.raises(SystemExit):
        bench_main(["figure9"])


def test_fault_profile_list_is_informational(capsys):
    """``--fault-profile list`` is an informational exit: stdout, code 0,
    no target required, no data generated."""
    assert bench_main(["--fault-profile", "list"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for name in ("transient", "bitflip", "torn", "mixed", "persistent"):
        assert name in captured.out


def test_fault_profile_list_ignores_target(capsys):
    # the listing wins even when a figure target is also present
    assert bench_main(["figure5", "--fault-profile", "list"]) == 0
    assert "transient" in capsys.readouterr().out


def test_bench_requires_target_without_check():
    with pytest.raises(SystemExit):
        bench_main(["--sf", "0.004"])


def test_bench_trace_json(tmp_path, capsys):
    import json

    path = tmp_path / "traces.jsonl"
    assert bench_main(["figure7", "--sf", "0.004",
                       "--trace-json", str(path)]) == 0
    from repro.core.config import CONFIG_LADDER
    from repro.ssb.queries import ALL_QUERIES

    lines = path.read_text().splitlines()
    # one record per ladder config per query
    assert len(lines) == len(CONFIG_LADDER) * len(ALL_QUERIES)
    for line in lines:
        record = json.loads(line)
        assert record["schema"] == "repro-trace-v1"
        assert record["figure"] == "figure7"
        assert record["engine"] == "colstore"
        assert record["spans"]["name"] == "query"
        child_total = sum(c["total_seconds"]
                          for c in record["spans"]["children"])
        assert child_total <= record["total_seconds"] + 1e-9


def test_bench_baseline_roundtrip(tmp_path, capsys):
    import json

    path = tmp_path / "baseline.json"
    assert bench_main(["figure5", "--sf", "0.004",
                       "--write-baseline", str(path)]) == 0
    record = json.loads(path.read_text())
    assert record["schema"] == "repro-baseline-v1"
    assert record["figure"] == "figure5"
    # a clean re-run is within tolerance (deterministic, so identical)
    assert bench_main(["--check-baseline", str(path)]) == 0
    assert "baseline check passed" in capsys.readouterr().out
    # shrink the committed numbers ~5%: the fresh run now regresses
    for series in record["series"].values():
        for query in series:
            series[query] *= 0.95
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(record))
    assert bench_main(["--check-baseline", str(tampered)]) == 1
    assert "BASELINE CHECK FAILED" in capsys.readouterr().out


def test_bench_check_baseline_conflicting_flags(tmp_path):
    import json

    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "schema": "repro-baseline-v1", "figure": "figure5",
        "scale_factor": 0.004, "workers": 1,
        "series": {"RS": {"Q1.1": 1.0}},
    }))
    with pytest.raises(SystemExit):
        bench_main(["figure7", "--check-baseline", str(path)])
    with pytest.raises(SystemExit):
        bench_main(["--sf", "0.05", "--check-baseline", str(path)])


def test_bench_check_baseline_refuses_retired_shards(tmp_path):
    """An artifact stamped ``shards: 2`` priced two storage stacks; no
    run can reproduce that, so the check refuses it typed."""
    import json

    from repro.errors import BenchmarkError

    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "schema": "repro-baseline-v1", "figure": "figure5",
        "scale_factor": 0.004, "zone_maps": False, "shards": 2,
        "writes": False, "series": {"RS": {"Q1.1": 1.0}},
    }))
    with pytest.raises(BenchmarkError, match="shards=2"):
        bench_main(["--check-baseline", str(path)])


def test_bench_check_baseline_accepts_one_shard_stamp(tmp_path, capsys):
    """``shards: 1`` was the one-stack run every engine makes now."""
    import json

    path = tmp_path / "baseline.json"
    assert bench_main(["figure5", "--sf", "0.004",
                       "--write-baseline", str(path)]) == 0
    record = json.loads(path.read_text())
    assert "shards" not in record
    record["shards"] = 1
    path.write_text(json.dumps(record))
    assert bench_main(["--check-baseline", str(path)]) == 0
    assert "baseline check passed" in capsys.readouterr().out


def test_bench_baseline_stamps_writes(tmp_path, capsys):
    import json

    path = tmp_path / "baseline.json"
    assert bench_main(["figure5", "--sf", "0.004", "--writes", "on",
                       "--write-baseline", str(path)]) == 0
    record = json.loads(path.read_text())
    assert record["writes"] is True
    # the check re-runs with the write path enabled and passes: a
    # writes-on engine with no pending delta is byte-identical
    assert bench_main(["--check-baseline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "writes on" in out
    assert "baseline check passed" in out
    with pytest.raises(SystemExit):
        bench_main(["--writes", "off", "--check-baseline", str(path)])


def test_bench_pre_write_artifact_reads_as_writes_off(tmp_path):
    import json

    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "schema": "repro-baseline-v1", "figure": "figure5",
        "scale_factor": 0.004, "workers": 1,
        "series": {"RS": {"Q1.1": 1.0}},
    }))
    # the artifact predates the write store, so it reads as writes-off
    # and a writes-on check against it is a conflict, not a silent
    # reinterpretation
    with pytest.raises(SystemExit):
        bench_main(["--writes", "on", "--check-baseline", str(path)])


def test_bench_check_baseline_bad_artifact(tmp_path):
    from repro.errors import BenchmarkError

    path = tmp_path / "bad.json"
    path.write_text("{\"schema\": \"something-else\"}")
    with pytest.raises(BenchmarkError):
        bench_main(["--check-baseline", str(path)])


def test_bench_write_baseline_needs_figure_target():
    with pytest.raises(SystemExit):
        bench_main(["storage", "--sf", "0.004",
                    "--write-baseline", "/tmp/x.json"])


def test_validate_cli(capsys):
    assert validate_main(["--sf", "0.004"]) == 0
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out


def test_shell_main_scripted(monkeypatch, capsys):
    lines = iter([
        "\\queries",
        "Q1.1",
        "SELECT count(*) AS n",          # multi-line SQL ...
        "FROM lineorder;",               # ... terminated by ';'
        "\\quit",
    ])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert shell_main(["--sf", "0.004"]) == 0
    out = capsys.readouterr().out
    assert "Q4.3" in out            # \queries listing
    assert "ms simulated" in out    # Q1.1 ran
    assert "n" in out               # the count query printed
    assert "bye" in out


def test_shell_main_eof(monkeypatch, capsys):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert shell_main(["--sf", "0.004"]) == 0
