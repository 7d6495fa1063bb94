"""Service resilience: breakers, deadline propagation, shedding,
degraded serving.

The unit half drives the primitives (:class:`BreakerBoard`,
:class:`CancellationToken`, :class:`AdmissionController` shedding) on
fake clocks; the service half exercises the wired-up behavior against
the shared engines, healing every injected fault in ``finally`` so the
session-scoped fixtures stay clean for other tests.
"""

import dataclasses
import threading
import time

import pytest

from repro.core.config import ExecutionConfig
from repro.errors import (
    BreakerOpenError,
    CorruptPageError,
    QueryCancelledError,
    ShedError,
)
from repro.plan.logical import (
    AggExpr,
    ColumnRef,
    CompareOp,
    Comparison,
    StarQuery,
)
from repro.serve import QueryService, ServiceConfig
from repro.serve.resilience import (
    BreakerBoard,
    CancellationToken,
    CLOSED,
    HALF_OPEN,
    OPEN,
    ServiceClock,
)
from repro.serve.service import AdmissionController
from repro.simio.stats import PAPER_2008, QueryStats
from repro.ssb.queries import Q1_1, Q1_2, Q3_2

SCOPE = ("cs", "lineorder")
#: the scope the *service* keys breakers on — per shard set (sh1 here)
SERVICE_SCOPE = ("cs", "lineorder", 1)


def _quantity_files(cstore):
    return [name for name in cstore.disk.files()
            if name.startswith("lineorder.")
            and name.endswith(".quantity")]


# -------------------------------------------------------------------- #
# ServiceClock
# -------------------------------------------------------------------- #
def test_service_clock_advances_monotonically():
    clock = ServiceClock()
    assert clock.now() == 0.0
    assert clock.advance(0.25) == 0.25
    assert clock.advance(-1.0) == 0.25  # negative deltas are ignored
    assert clock.now() == 0.25


# -------------------------------------------------------------------- #
# CancellationToken
# -------------------------------------------------------------------- #
def test_token_explicit_cancel_is_typed():
    token = CancellationToken()
    token.check()  # nothing armed: a no-op
    token.cancel("operator said stop")
    with pytest.raises(QueryCancelledError) as info:
        token.check()
    assert info.value.reason == "operator said stop"


def test_token_wall_deadline():
    token = CancellationToken(deadline_at=time.monotonic() - 0.001)
    with pytest.raises(QueryCancelledError):
        token.check()


def test_token_sim_budget_prices_the_ledger():
    token = CancellationToken(sim_budget=1e-9, cost_model=PAPER_2008)
    token.check(QueryStats())  # nothing spent yet
    spent = QueryStats()
    spent.pages_read = 1000
    spent.bytes_read = 1000 * 32 * 1024
    with pytest.raises(QueryCancelledError):
        token.check(spent)


def test_token_sim_budget_requires_cost_model():
    with pytest.raises(ValueError):
        CancellationToken(sim_budget=1.0)


# -------------------------------------------------------------------- #
# BreakerBoard state machine (fake clock)
# -------------------------------------------------------------------- #
def test_breaker_opens_after_threshold_consecutive_failures():
    board = BreakerBoard(threshold=3, cooldown=1.0)
    assert board.admit(SCOPE, now=0.0) == CLOSED
    board.record_failure(SCOPE, now=0.0)
    board.record_failure(SCOPE, now=0.0)
    assert board.state_of(SCOPE) == CLOSED
    board.record_failure(SCOPE, now=0.0)
    assert board.state_of(SCOPE) == OPEN
    assert board.admit(SCOPE, now=0.5) == OPEN  # still cooling


def test_breaker_success_resets_the_failure_count():
    board = BreakerBoard(threshold=2, cooldown=1.0)
    board.record_failure(SCOPE, now=0.0)
    board.record_success(SCOPE)
    board.record_failure(SCOPE, now=0.0)
    assert board.state_of(SCOPE) == CLOSED  # never two in a row


def test_breaker_half_open_single_trial_and_close():
    board = BreakerBoard(threshold=1, cooldown=1.0)
    board.record_failure(SCOPE, now=0.0)
    assert board.admit(SCOPE, now=2.0) == HALF_OPEN  # holds the slot
    assert board.admit(SCOPE, now=2.0) == OPEN       # slot taken
    board.record_success(SCOPE)
    assert board.state_of(SCOPE) == CLOSED
    assert board.admit(SCOPE, now=2.0) == CLOSED


def test_breaker_failed_trial_reopens_with_fresh_cooldown():
    board = BreakerBoard(threshold=1, cooldown=1.0)
    board.record_failure(SCOPE, now=0.0)
    assert board.admit(SCOPE, now=1.5) == HALF_OPEN
    board.record_failure(SCOPE, now=1.5)
    assert board.state_of(SCOPE) == OPEN
    assert board.admit(SCOPE, now=2.0) == OPEN       # cooldown restarted
    assert board.admit(SCOPE, now=2.5) == HALF_OPEN


def test_breaker_abandoned_trial_frees_the_slot():
    board = BreakerBoard(threshold=1, cooldown=1.0)
    board.record_failure(SCOPE, now=0.0)
    assert board.admit(SCOPE, now=2.0) == HALF_OPEN
    board.abandon_trial(SCOPE)  # e.g. served from the result cache
    assert board.admit(SCOPE, now=2.0) == HALF_OPEN


def test_breaker_counters_and_states_rendering():
    counts = {}
    board = BreakerBoard(threshold=1, cooldown=1.0,
                         counter=lambda **kw: counts.update(
                             {k: counts.get(k, 0) + v
                              for k, v in kw.items()}))
    board.record_failure(SCOPE, now=0.0)
    board.admit(SCOPE, now=2.0)
    board.record_success(SCOPE)
    assert counts == {"breaker_opens": 1, "breaker_half_opens": 1,
                      "breaker_closes": 1}
    assert board.states() == {"cs/lineorder": CLOSED}
    assert board.open_scopes() == []


# -------------------------------------------------------------------- #
# load shedding (unit level — no engines involved)
# -------------------------------------------------------------------- #
def test_brownout_sheds_low_priority_but_admits_high():
    ctl = AdmissionController(max_in_flight=2, queue_limit=8,
                              queue_timeout=1.0, shed_threshold=0.5)
    ctl.note_latency(2.0)
    ctl.acquire(priority=0)  # idle service: nothing ahead, never shed
    # now estimated wait = 2.0 * 1 / 2 = 1.0 > 0.5
    with pytest.raises(ShedError):
        ctl.acquire(priority=0)
    ctl.acquire(priority=1)  # high priority rides out the brownout
    ctl.release()
    ctl.release()


def test_no_shedding_when_threshold_unset_or_idle():
    ctl = AdmissionController(max_in_flight=1, queue_limit=8,
                              queue_timeout=1.0, shed_threshold=None)
    ctl.note_latency(100.0)
    ctl.acquire(priority=0)  # threshold off: EWMA alone never sheds
    ctl.release()
    shedding = AdmissionController(max_in_flight=1, queue_limit=8,
                                   queue_timeout=1.0, shed_threshold=0.1)
    shedding.acquire(priority=0)  # no latency observed yet: estimate 0
    shedding.release()


def test_latency_ewma_smooths():
    ctl = AdmissionController(max_in_flight=1, queue_limit=8,
                              queue_timeout=1.0)
    ctl.note_latency(1.0)
    assert ctl.latency_ewma == 1.0
    ctl.note_latency(0.0)
    assert 0.0 < ctl.latency_ewma < 1.0


def test_full_queue_displaces_the_lowest_priority_waiter():
    ctl = AdmissionController(max_in_flight=1, queue_limit=1,
                              queue_timeout=5.0)
    ctl.acquire()
    results = {}

    def low_client():
        try:
            ctl.acquire(priority=0)
            results["low"] = "admitted"
            ctl.release()
        except ShedError:
            results["low"] = "shed"

    low = threading.Thread(target=low_client)
    low.start()
    deadline = time.monotonic() + 5.0
    while ctl.queued < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert ctl.queued == 1  # the queue is now full

    def high_client():
        ctl.acquire(priority=5)
        results["high"] = "admitted"
        ctl.release()

    high = threading.Thread(target=high_client)
    high.start()
    low.join(timeout=5.0)
    assert results.get("low") == "shed"
    ctl.release()
    high.join(timeout=5.0)
    assert results.get("high") == "admitted"


def test_full_queue_refuses_equal_priority_instead_of_shedding():
    ctl = AdmissionController(max_in_flight=1, queue_limit=1,
                              queue_timeout=5.0)
    ctl.acquire()
    waiter_error = []

    def waiter():
        try:
            ctl.acquire(priority=0)
            ctl.release()
        except Exception as error:  # pragma: no cover
            waiter_error.append(error)

    thread = threading.Thread(target=waiter)
    thread.start()
    deadline = time.monotonic() + 5.0
    while ctl.queued < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    from repro.errors import AdmissionError
    with pytest.raises(AdmissionError):
        ctl.acquire(priority=0)  # same priority: no displacement
    ctl.release()
    thread.join(timeout=5.0)
    assert not waiter_error


# -------------------------------------------------------------------- #
# deadline propagation into engine execution
# -------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", (1, 4))
def test_sim_deadline_cancels_mid_execution(cstore, system_x, workers):
    config = dataclasses.replace(ExecutionConfig.baseline(),
                                 workers=workers)
    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="cs", config=config)
        with pytest.raises(QueryCancelledError) as info:
            session.execute(Q1_1, cached=False, sim_deadline=1e-9)
        assert "budget" in info.value.reason
        snap = service.stats.snapshot()
        assert snap["cancelled"] == 1
        assert snap["failed"] == 1
        # the partial ledger still verifies against its trace
        error = info.value
        assert error.trace is not None
        error.trace.verify(error.stats)
        assert error.stats.pages_read > 0  # it really started
        # the engine slot is clean: the next query runs normally
        ok = session.execute(Q1_1, cached=False)
        assert ok.result.rows
        assert cstore.disk.cancellation is None


def test_sim_deadline_cancels_row_store_too(cstore, system_x):
    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="rs")
        with pytest.raises(QueryCancelledError):
            session.execute(Q1_1, cached=False, sim_deadline=1e-9)
        ok = session.execute(Q1_1, cached=False)
        assert ok.result.rows
        assert system_x.disk.cancellation is None


def test_generous_sim_deadline_changes_nothing(cstore, system_x):
    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="cs")
        run = session.execute(Q1_1, cached=False, sim_deadline=1e9)
        direct = cstore.execute(Q1_1)
        assert run.stats.snapshot() == direct.stats.snapshot()
        assert run.result.same_rows(direct.result)


# -------------------------------------------------------------------- #
# breakers + degraded serving through the service
# -------------------------------------------------------------------- #
def test_breaker_opens_and_serves_exact_hits_degraded(cstore, system_x):
    config = ServiceConfig(cache_admit_seconds=0.0, breaker_threshold=3)
    disk = cstore.disk
    victims = _quantity_files(cstore)
    assert victims
    with QueryService(cstore=cstore, system_x=system_x,
                      config=config) as service:
        session = service.session(engine="cs")
        healthy = session.execute(Q1_1)  # seeds the exact result entry
        try:
            for name in victims:
                disk.quarantine(name, 0)
            for _ in range(3):
                with pytest.raises(CorruptPageError):
                    session.execute(Q1_2, cached=False)
            assert service.breakers.state_of(SERVICE_SCOPE) == OPEN
            snap = service.stats.snapshot()
            assert snap["breaker_opens"] == 1

            # the cached result serves, stamped degraded, engine untouched
            run = session.execute(Q1_1)
            assert run.degraded
            assert run.source == "cache-exact"
            names = run.trace.span_names()
            assert "breaker-check" in names
            assert "degraded-hit" in names
            run.trace.verify(run.stats)
            assert run.result.same_rows(healthy.result)
            assert service.stats.snapshot()["degraded_hits"] == 1

            # no honest cache answer: a typed refusal, engine untouched
            with pytest.raises(BreakerOpenError) as info:
                session.execute(Q3_2)
            assert info.value.scope == SERVICE_SCOPE
            assert service.stats.snapshot()["breaker_rejections"] == 1
        finally:
            for name in victims:
                disk.unquarantine(name, 0)


def test_degraded_serving_answers_exact_repeats_only(cstore, system_x):
    """While the breaker is open, an exact repeat of a cached query is
    served degraded; a narrower variant of the same cached query is
    refused — the cache keeps results, not positions to re-filter."""
    def fact_query(name, predicates):
        return StarQuery(
            name=name, fact_table="lineorder", joins={},
            predicates=tuple(predicates), group_by=(),
            aggregates=(AggExpr("sum",
                                ColumnRef("lineorder", "extendedprice"),
                                "revenue"),))

    orderdate = ColumnRef("lineorder", "orderdate")
    discount = ColumnRef("lineorder", "discount")
    broad = fact_query("rsl-broad", [
        Comparison(orderdate, CompareOp.LE, 19980101)])
    narrow = fact_query("rsl-narrow", [
        Comparison(orderdate, CompareOp.LE, 19940101),
        Comparison(discount, CompareOp.GE, 5)])

    config = ServiceConfig(cache_admit_seconds=0.0, breaker_threshold=2)
    disk = cstore.disk
    victims = _quantity_files(cstore)
    with QueryService(cstore=cstore, system_x=system_x,
                      config=config) as service:
        session = service.session(engine="cs")
        healthy = session.execute(broad)  # seeds the result entry
        try:
            for name in victims:
                disk.quarantine(name, 0)
            for _ in range(2):
                with pytest.raises(CorruptPageError):
                    session.execute(Q1_2, cached=False)
            assert service.breakers.state_of(SERVICE_SCOPE) == OPEN
            run = session.execute(broad)
            assert run.degraded
            assert run.source == "cache-exact"
            assert run.result.same_rows(healthy.result)
            run.trace.verify(run.stats)
            with pytest.raises(BreakerOpenError) as info:
                session.execute(narrow)
            assert info.value.scope == SERVICE_SCOPE
            info.value.trace.verify(info.value.stats)
            snap = service.stats.snapshot()
            assert snap["degraded_hits"] == 1
            assert snap["breaker_rejections"] == 1
        finally:
            for name in victims:
                disk.unquarantine(name, 0)


def test_breaker_half_open_trial_recovers_after_heal(cstore, system_x):
    config = ServiceConfig(cache=False, breaker_threshold=2,
                           breaker_cooldown=0.05)
    disk = cstore.disk
    victims = _quantity_files(cstore)
    with QueryService(cstore=cstore, system_x=system_x,
                      config=config) as service:
        session = service.session(engine="cs")
        try:
            for name in victims:
                disk.quarantine(name, 0)
            for _ in range(2):
                with pytest.raises(CorruptPageError):
                    session.execute(Q1_1)
            assert service.breakers.state_of(SERVICE_SCOPE) == OPEN
            # cache off and still cooling: a typed refusal
            with pytest.raises(BreakerOpenError):
                session.execute(Q1_1)
        finally:
            for name in victims:
                disk.unquarantine(name, 0)
        # pages healed; once the (simulated) cooldown passes, the next
        # query becomes the half-open trial and closes the breaker
        service.clock.advance(1.0)
        run = session.execute(Q1_1)
        assert run.source == "engine"
        assert run.result.rows
        assert service.breakers.state_of(SERVICE_SCOPE) == CLOSED
        snap = service.stats.snapshot()
        assert snap["breaker_half_opens"] == 1
        assert snap["breaker_closes"] == 1


def test_resilience_counters_stay_zero_on_healthy_runs(cstore, system_x):
    with QueryService(cstore=cstore, system_x=system_x) as service:
        for engine in ("cs", "rs"):
            session = service.session(engine=engine)
            session.execute(Q1_1, cached=False)
        snap = service.stats.snapshot()
        for counter in ("shed", "cancelled", "degraded_hits",
                        "breaker_opens", "breaker_half_opens",
                        "breaker_closes", "breaker_rejections"):
            assert snap[counter] == 0, counter
        resilience = service.serve_stats()["resilience"]
        assert set(resilience["breakers"].values()) == {CLOSED}


def test_breakers_off_preserves_plain_failure_semantics(cstore, system_x):
    config = ServiceConfig(breakers=False)
    disk = cstore.disk
    victims = _quantity_files(cstore)
    with QueryService(cstore=cstore, system_x=system_x,
                      config=config) as service:
        assert service.breakers is None
        session = service.session(engine="cs")
        try:
            for name in victims:
                disk.quarantine(name, 0)
            for _ in range(4):  # would have tripped a breaker
                with pytest.raises(CorruptPageError):
                    session.execute(Q1_1, cached=False)
        finally:
            for name in victims:
                disk.unquarantine(name, 0)
        ok = session.execute(Q1_1, cached=False)
        assert ok.result.rows
        assert service.serve_stats()["resilience"]["breakers"] == {}
