"""Acceptance: cache-enabled double replay is row-identical to cold runs.

All 13 SSB queries are replayed twice through the service at several
service concurrencies, on both engines (one column-store session also
sets the inert ``ExecutionConfig.workers`` field).
Every answer — engine run or exact hit — must be row-identical to an
uncached serial baseline, the second flight must contain at least one
exact hit, and its priced simulated seconds must be strictly lower than
the first flight's.  Both flights are fully concurrent, the second in a
seeded shuffle.
"""

import random
import threading
from dataclasses import replace

import pytest

from repro.core.config import ExecutionConfig
from repro.rowstore.designs import DesignKind
from repro.serve import QueryService, ServiceConfig
from repro.ssb.queries import ALL_QUERIES


@pytest.fixture(scope="module")
def baselines(cstore, system_x):
    """Uncached serial baselines, one per engine."""
    return {
        "cs": {q.name: cstore.execute(q).result for q in ALL_QUERIES},
        "rs": {q.name: system_x.execute(
            q, DesignKind.TRADITIONAL).result for q in ALL_QUERIES},
    }


def _run_wave(session, queries):
    """Submit ``queries`` concurrently (one thread each); the service's
    admission limit decides how many actually overlap."""
    runs = {}
    errors = []
    lock = threading.Lock()

    def submit(query):
        try:
            run = session.execute(query)
            with lock:
                runs[query.name] = run
        except BaseException as error:
            with lock:
                errors.append((query.name, error))

    threads = [threading.Thread(target=submit, args=(q,))
               for q in queries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return runs


@pytest.mark.parametrize("engine,workers,concurrency", [
    ("cs", 1, 1),
    ("cs", 4, 8),
    ("rs", 1, 1),
    ("rs", 1, 8),
])
def test_double_replay_row_identical_and_cheaper(
        engine, workers, concurrency, cstore, system_x, baselines):
    config = ServiceConfig(max_in_flight=concurrency,
                           cache_admit_seconds=0.0)
    with QueryService(cstore=cstore, system_x=system_x,
                      config=config) as service:
        session = service.session(
            engine=engine,
            config=replace(ExecutionConfig.baseline(), workers=workers)
            if engine == "cs" else None)

        flight1 = _run_wave(session, ALL_QUERIES)

        shuffled = list(ALL_QUERIES)
        random.Random(20080609).shuffle(shuffled)
        flight2 = _run_wave(session, shuffled)

        expected = baselines[engine]
        for name, run in list(flight1.items()) + list(flight2.items()):
            assert run.result.same_rows(expected[name]), (
                f"{engine} w={workers} c={concurrency}: {name} "
                f"({run.source}) deviates from the uncached baseline")

        sources2 = {name: run.source for name, run in flight2.items()}
        assert any(s == "cache-exact" for s in sources2.values()), sources2

        cost1 = sum(run.seconds for run in flight1.values())
        cost2 = sum(run.seconds for run in flight2.values())
        assert cost2 < cost1, (
            f"flight 2 ({cost2:.4f}s) not cheaper than "
            f"flight 1 ({cost1:.4f}s)")


def test_replay_with_cache_disabled_matches_baselines(
        cstore, system_x, baselines):
    """The escape hatch: a cache-off service replays both flights as
    pure engine runs, still row-identical."""
    config = ServiceConfig(max_in_flight=4, cache=False)
    with QueryService(cstore=cstore, system_x=system_x,
                      config=config) as service:
        session = service.session(engine="cs")
        for _ in range(2):
            runs = _run_wave(session, ALL_QUERIES)
            for name, run in runs.items():
                assert run.source == "engine"
                assert run.result.same_rows(baselines["cs"][name])
        assert service.serve_stats()["service"]["exact_hits"] == 0
