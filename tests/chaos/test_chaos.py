"""Chaos suite: all 13 SSBM queries under seeded fault schedules.

The contract under test is the robustness tentpole's acceptance bar:
every run either produces exactly the fault-free result or raises a
typed :class:`ReproError` — zero silently wrong answers.  The
``workers=4`` cases set the inert ``ExecutionConfig.workers`` field and
must behave exactly like ``workers=1``.

Scale factor 0.004 (24,000 fact rows) keeps the whole matrix fast while
every query still touches multiple pages per column.
"""

from dataclasses import replace

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import CorruptPageError, ReproError
from repro.simio.faults import FaultInjector, FaultPolicy
from repro.ssb.generator import generate
from repro.ssb.queries import ALL_QUERIES

pytestmark = pytest.mark.chaos

CHAOS_SF = 0.004
WORKER_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def chaos_data():
    return generate(CHAOS_SF)


@pytest.fixture(scope="module")
def fault_free_results(chaos_data):
    """Oracle: every query's result on an uncorrupted store."""
    store = CStore(chaos_data)
    config = ExecutionConfig.baseline()
    return {q.name: store.execute(q, config).result.rows
            for q in ALL_QUERIES}


def _config(workers: int) -> ExecutionConfig:
    return replace(ExecutionConfig.baseline(), workers=workers)


# --------------------------------------------------------------------- #
# transient schedules: every query completes correctly, retries visible
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_transient_schedule_all_queries(chaos_data, fault_free_results,
                                        workers):
    store = CStore(chaos_data)
    injector = FaultInjector(101, [FaultPolicy(transient_rate=0.2,
                                               max_transient_failures=2)])
    injector.install(store.disk)
    total_retries = 0
    for query in ALL_QUERIES:
        injector.reset_transients()  # fresh schedule per query
        run = store.execute(query, _config(workers))
        assert run.result.rows == fault_free_results[query.name], query.name
        total_retries += run.stats.io_retries
        assert run.stats.retry_backoff_us >= run.stats.io_retries * 100 \
            or run.stats.io_retries == 0
    assert total_retries > 0  # the schedule actually fired


# --------------------------------------------------------------------- #
# persistent corruption without redundancy: correct or typed, never wrong
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_persistent_corruption_all_queries(chaos_data, fault_free_results,
                                           workers):
    store = CStore(chaos_data)
    # both levels of the quantity column: no intact sibling remains, so
    # affected queries must fail typed while the rest stay correct
    injector = FaultInjector(202, [FaultPolicy(
        file_glob="lineorder.*.quantity", bitflip_rate=1.0)])
    log = injector.install(store.disk)
    assert log
    outcomes = {}
    for query in ALL_QUERIES:
        try:
            run = store.execute(query, _config(workers))
        except ReproError as error:
            assert isinstance(error, CorruptPageError), query.name
            assert "quantity" in error.file
            outcomes[query.name] = "typed-error"
        else:
            assert run.result.rows == fault_free_results[query.name], \
                query.name
            outcomes[query.name] = "correct"
    # flight 1 restricts quantity, so it must have hit the corruption
    assert outcomes["Q1.1"] == "typed-error"
    assert "correct" in outcomes.values()
    # outcomes are a pure function of the seed
    assert outcomes == {
        q.name: ("typed-error" if q.name.startswith("Q1") else "correct")
        for q in ALL_QUERIES
    }


# --------------------------------------------------------------------- #
# recovery: a redundant projection turns corruption into a failover
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_recovery_via_redundant_projection(chaos_data, fault_free_results,
                                           workers):
    store = CStore(chaos_data)
    store.add_projection("lineorder", ("partkey",))
    # corrupt the *default* fact projection only; the partkey-sorted
    # sibling remains intact and serves every query
    injector = FaultInjector(303, [FaultPolicy(
        file_glob="lineorder.*.orderdate_quantity_discount.*",
        bitflip_rate=1.0)])
    log = injector.install(store.disk)
    assert log
    recovered = 0
    for query in ALL_QUERIES:
        run = store.execute(query, _config(workers))
        assert run.result.rows == fault_free_results[query.name], query.name
        recovered += run.stats.recoveries
    assert recovered > 0


# --------------------------------------------------------------------- #
# fast smoke (fixed seeds, one flight) — the tier-1 fault-path gate
# --------------------------------------------------------------------- #
def test_chaos_smoke(chaos_data, fault_free_results):
    store = CStore(chaos_data)
    FaultInjector(7, [FaultPolicy(transient_rate=0.3,
                                  max_transient_failures=2)]).install(
        store.disk)
    for name in ("Q1.1", "Q2.1", "Q3.1", "Q4.1"):
        query = next(q for q in ALL_QUERIES if q.name == name)
        run = store.execute(query, ExecutionConfig.baseline())
        assert run.result.rows == fault_free_results[name]
