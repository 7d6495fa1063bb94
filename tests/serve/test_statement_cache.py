"""The service's statement cache: exact SQL text -> bound ``StarQuery``.

``QueryService.execute_sql`` parses and binds a SELECT text once and
keeps the frozen query; a repeat goes straight to ``submit``.  What must
hold: a repeat parses nothing, serves exactly what an uncached call
serves, still honours every per-call option; DML and failing texts are
never kept; the map is bounded; client threads can share it.
"""

import sys
import threading

import pytest

from repro.colstore.engine import CStore
from repro.errors import DeadlineError, SqlError
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService, service as service_module
from repro.ssb.generator import generate
from repro.ssb.sql_text import SQL_TEXT
from tests.write.dml import clone_rows

Q1_1 = SQL_TEXT["Q1.1"]


def _quantity_below(n: int) -> str:
    return (f"SELECT sum(lo.revenue) AS r FROM lineorder AS lo "
            f"WHERE lo.quantity < {n}")


@pytest.fixture
def parses(monkeypatch):
    """Texts handed to ``parse_statement`` by the service, in order."""
    seen = []
    parse = service_module.parse_statement

    def counting(sql):
        seen.append(sql)
        return parse(sql)

    monkeypatch.setattr(service_module, "parse_statement", counting)
    return seen


def test_a_repeated_text_is_parsed_once_and_served_the_same(
        cstore, system_x, parses):
    with QueryService(cstore=cstore, system_x=system_x) as service:
        for engine in ("cs", "rs"):
            session = service.session(engine=engine)
            # cold engine runs both: the second is bound from the cache
            parsed = session.execute_sql(Q1_1, cached=False)
            repeat = session.execute_sql(Q1_1, cached=False)
            assert parsed.source == repeat.source == "engine"
            assert repeat.query_name == "sql"
            assert repeat.result.rows == parsed.result.rows
            assert repeat.stats.snapshot() == parsed.stats.snapshot()
            assert repeat.trace.span_names() == parsed.trace.span_names()
            assert repeat.trace.to_dict() == parsed.trace.to_dict()
        assert parses == [Q1_1]
        # a different text — one space more — is a different statement
        service.execute_sql(Q1_1 + " ")
        assert parses == [Q1_1, Q1_1 + " "]


def test_per_call_options_reach_submit_on_a_cached_text(
        cstore, system_x, parses):
    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="cs")
        assert session.execute_sql(Q1_1).source == "engine"
        assert session.execute_sql(Q1_1).source == "cache-exact"
        assert session.execute_sql(Q1_1, cached=False).source == "engine"
        with pytest.raises(DeadlineError):
            session.execute_sql(Q1_1, deadline=0.0)
        # the session argument picks the engine per call, not per text
        other = service.session(engine="rs")
        assert other.execute_sql(Q1_1).engine == "rs"
        assert parses == [Q1_1]


def test_dml_and_failing_texts_are_never_kept(parses):
    data = generate(0.002)
    broken = "SELECT sum(lo.revenue) FROM lineorder AS lo WHERE"
    unbound = "SELECT sum(lo.nonesuch) AS r FROM lineorder AS lo"
    delete = "DELETE FROM lineorder WHERE quantity < 3"
    row = clone_rows(data.customer, 1, custkey=900002)[0]
    insert = "INSERT INTO customer ({}) VALUES ({})".format(
        ", ".join(row), ", ".join(
            str(v) if isinstance(v, int) else f"'{v}'"
            for v in row.values()))
    with QueryService(
            cstore=CStore(data),
            system_x=SystemX(data, designs=[DesignKind.TRADITIONAL],
                             writes=True)) as service:
        for _ in range(2):
            for text in (broken, unbound):
                with pytest.raises(SqlError):
                    service.execute_sql(text)
        assert service.execute_sql(delete) > 0
        assert service.execute_sql(delete) == 0
        assert service.execute_sql(insert) == 1
        assert not service._statements
        assert parses == [broken, unbound] * 2 + [delete] * 2 + [insert]


def test_the_map_is_bounded_and_least_recently_used_goes(
        cstore, monkeypatch):
    monkeypatch.setattr(service_module, "STATEMENT_CACHE_SIZE", 4)
    texts = [_quantity_below(n) for n in range(1, 11)]
    with QueryService(cstore=cstore) as service:
        for text in texts[:4]:
            service.execute_sql(text)
        service.execute_sql(texts[0])  # now the most recently used
        service.execute_sql(texts[4])
        assert list(service._statements) == texts[2:4] + [texts[0], texts[4]]
        for text in texts[5:]:
            service.execute_sql(text)
            assert len(service._statements) == 4
        assert list(service._statements) == texts[6:]


def test_client_threads_share_the_statement_cache(cstore, system_x,
                                                  monkeypatch):
    monkeypatch.setattr(service_module, "STATEMENT_CACHE_SIZE", 3)
    texts = [_quantity_below(n) for n in range(1, 7)]
    clients, rounds = 4, 5
    barrier = threading.Barrier(clients)
    failures = []
    with QueryService(cstore=cstore, system_x=system_x) as service:
        expected = {text: service.execute_sql(text).result.rows
                    for text in texts}

        def client(index):
            session = service.session(engine=("cs", "rs")[index % 2])
            barrier.wait()
            try:
                for turn in range(rounds * len(texts)):
                    text = texts[(turn + index) % len(texts)]
                    rows = session.execute_sql(text).result.rows
                    if rows != expected[text]:
                        failures.append((index, text, rows))
            except Exception as error:  # surfaced below, on the main thread
                failures.append((index, error))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside the LRU update
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert 0 < len(service._statements) <= 3
        completed = service.serve_stats()["service"]["completed"]
        assert completed == len(texts) + clients * rounds * len(texts)
