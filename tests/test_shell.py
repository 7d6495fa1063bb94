"""Shell command dispatch tests (no terminal involved)."""

import pytest

from repro.shell import Shell


@pytest.fixture(scope="module")
def shell(ssb_data):
    # reuse the session-scoped dataset instead of generating a second
    # one per module — the shell only needs *a* database, not its own
    return Shell(data=ssb_data)


def test_empty_line(shell):
    assert shell.handle("") == ""


def test_help_and_queries(shell):
    assert "\\engine" in shell.handle("\\help")
    listing = shell.handle("\\queries")
    assert "Q1.1" in listing and "Q4.3" in listing


def test_sql_text_lookup(shell):
    assert "BETWEEN 1 AND 3" in shell.handle("\\sql Q1.1")
    assert "error" in shell.handle("\\sql Q9.9")


def test_run_ssb_query_by_name(shell):
    out = shell.handle("Q1.1")
    assert "column store [tICL]" in out
    assert "row store [T]" in out
    assert "ms simulated" in out


def test_run_adhoc_sql(shell):
    out = shell.handle(
        "SELECT sum(lo.revenue) AS revenue FROM lineorder AS lo "
        "WHERE lo.quantity < 10")
    assert "revenue" in out
    assert "ms simulated" in out


def test_engine_switching(shell):
    assert "engine set to cs" in shell.handle("\\engine cs")
    out = shell.handle("Q1.2")
    assert "row store" not in out
    shell.handle("\\engine both")
    assert "error" in shell.handle("\\engine turbo")


def test_config_switching(shell):
    assert "Ticl" in shell.handle("\\config Ticl")
    out = shell.handle("Q1.3")
    assert "column store [Ticl]" in out
    shell.handle("\\config tICL")
    assert "error" in shell.handle("\\config nope")


def test_design_switching(shell):
    assert "MV" in shell.handle("\\design MV")
    out = shell.handle("Q2.1")
    assert "row store [MV]" in out
    shell.handle("\\design T")
    assert "error" in shell.handle("\\design ZZ")


def test_explain(shell):
    out = shell.handle("\\explain Q3.1")
    assert "invisible join" in out
    assert "EXPLAIN" in out


def test_verify_toggle(shell):
    assert "off" in shell.handle("\\verify off")
    assert "on" in shell.handle("\\verify on")
    assert "error" in shell.handle("\\verify maybe")


def test_sql_error_is_reported(shell):
    out = shell.handle("SELECT FROM nothing")
    assert out.startswith("error:")


def test_unknown_command(shell):
    assert "unknown command" in shell.handle("\\frobnicate")


def test_quit(shell):
    assert shell.handle("\\quit") == "bye"
    assert shell.done


def test_error_line_is_structured(shell):
    out = shell.handle("SELECT FROM nothing")
    # one line: class name + message, no traceback
    assert "\n" not in out
    assert out.startswith("error: SqlParseError:") or \
        out.startswith("error: SqlBindError:")


def test_bad_limit_renders_on_one_line(shell):
    for sql in ("SELECT count(*) AS n FROM lineorder LIMIT 0",
                "SELECT count(*) AS n FROM lineorder LIMIT -2"):
        out = shell.handle(sql)
        assert "\n" not in out
        assert out.startswith("error: SqlParseError:")
        assert "LIMIT" in out


def test_dml_round_trip(ssb_data):
    # a fresh shell: DML mutates engine state; keep the module fixture
    # pristine for the read-only tests
    shell = Shell(data=ssb_data)
    total = ssb_data.lineorder.num_rows
    out = shell.handle("SELECT count(*) AS n FROM lineorder")
    assert str(total) in out and "INTERNAL ERROR" not in out
    out = shell.handle("DELETE FROM lineorder WHERE quantity < 3")
    assert "deleted" in out and "pending" in out
    deleted = int(out.split()[0])
    assert deleted > 0
    # the merge read sees the delta and still passes \verify's oracle
    out = shell.handle("SELECT count(*) AS n FROM lineorder")
    assert str(total - deleted) in out and "INTERNAL ERROR" not in out
    assert "drained" in shell.handle("\\move")
    out = shell.handle("SELECT count(*) AS n FROM lineorder")
    assert str(total - deleted) in out and "INTERNAL ERROR" not in out
    # a bad insert is one structured error line, store untouched
    out = shell.handle("INSERT INTO part (partkey) VALUES (900001)")
    assert out.startswith("error:") and "\n" not in out
    assert shell.handle("\\move") == "nothing pending; no-op"


def test_recover_command_replays_both_engines(ssb_data):
    shell = Shell(data=ssb_data)
    out = shell.handle("DELETE FROM lineorder WHERE quantity < 3")
    deleted = int(out.split()[0])
    assert deleted > 0
    out = shell.handle("\\recover")
    # one report line per engine, each rendering the replay tally
    assert "cs: recovery: 1 records scanned" in out
    assert "rs: recovery: 1 records scanned" in out
    assert "1 batches replayed" in out
    # the replayed delta still serves: reads pass the oracle check
    total = ssb_data.lineorder.num_rows
    post = shell.handle("SELECT count(*) AS n FROM lineorder")
    assert str(total - deleted) in post and "INTERNAL ERROR" not in post


def test_cache_toggle_and_stats(shell):
    assert "cache on" in shell.handle("\\cache on")
    first = shell.handle("Q1.2")
    second = shell.handle("Q1.2")
    assert "0.00 ms simulated" in second or "ms simulated" in second
    stats = shell.handle("\\serve stats")
    assert "exact_hits=" in stats and "session shell-cs" in stats
    assert "cache cleared" in shell.handle("\\cache clear")
    assert "cache off" in shell.handle("\\cache off")
    assert "error" in shell.handle("\\cache maybe")
    assert "error" in shell.handle("\\serve nonsense")
    assert first.splitlines()[:-2] == second.splitlines()[:-2]


def test_serve_stats_show_resilience(shell):
    shell.handle("\\engine cs")
    shell.handle("Q1.1")
    stats = shell.handle("\\serve stats")
    # the resilience section and per-scope breaker states round-trip
    assert "resilience:" in stats
    assert "shed=0" in stats
    assert "degraded_hits=0" in stats
    assert "breakers:" in stats
    # breaker scopes are (engine, fact table)
    assert "cs/lineorder=closed" in stats


def test_cache_off_by_default(ssb_data):
    fresh = Shell(data=ssb_data)
    fresh.handle("\\engine cs")
    fresh.handle("Q1.1")
    fresh.handle("Q1.1")
    stats = fresh.service.serve_stats()
    assert stats["service"]["exact_hits"] == 0
    assert stats["service"]["engine_runs"] == 2


def test_query_against_quarantined_page(shell):
    disk = shell.cstore.disk
    victims = [name for name in disk.files()
               if name.startswith("lineorder.") and
               name.endswith(".quantity")]
    assert victims
    try:
        for name in victims:
            disk.quarantine(name, 0)
        out = shell.handle("Q1.1")
        assert out.startswith("error: CorruptPageError:")
        assert "\n" not in out
        assert "quantity" in out
    finally:
        for name in victims:
            disk.unquarantine(name, 0)
