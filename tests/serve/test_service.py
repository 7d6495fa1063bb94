"""Query service behavior: admission, honesty, traces, faults."""

import threading
import time

import pytest

from repro.core.config import ExecutionConfig
from repro.errors import (
    AdmissionError,
    CorruptPageError,
    DeadlineError,
    ServiceError,
)
from repro.rowstore.designs import DesignKind
from repro.serve import QueryService, ServiceConfig
from repro.serve.service import AdmissionController
from repro.ssb.queries import Q1_1, Q2_1, Q3_1, Q3_2, Q4_1, Q4_2


# -------------------------------------------------------------------- #
# admission control (unit level — no engines involved)
# -------------------------------------------------------------------- #
def test_admission_counts_and_release():
    ctl = AdmissionController(max_in_flight=2, queue_limit=4,
                              queue_timeout=1.0)
    ctl.acquire()
    ctl.acquire()
    assert ctl.in_flight == 2
    ctl.release()
    ctl.release()
    assert ctl.in_flight == 0


def test_admission_queue_overflow_is_typed_and_immediate():
    ctl = AdmissionController(max_in_flight=1, queue_limit=0,
                              queue_timeout=5.0)
    ctl.acquire()
    started = time.perf_counter()
    with pytest.raises(AdmissionError):
        ctl.acquire()
    assert time.perf_counter() - started < 1.0  # rejected, not queued
    ctl.release()


def test_admission_queue_timeout():
    ctl = AdmissionController(max_in_flight=1, queue_limit=4,
                              queue_timeout=0.05)
    ctl.acquire()
    with pytest.raises(AdmissionError):
        ctl.acquire()  # waits queue_timeout, then gives up
    ctl.release()


def test_admission_deadline_beats_queue_timeout():
    ctl = AdmissionController(max_in_flight=1, queue_limit=4,
                              queue_timeout=30.0)
    ctl.acquire()
    with pytest.raises(DeadlineError):
        ctl.acquire(deadline_at=time.monotonic() + 0.05)
    ctl.release()


def test_admission_is_fifo():
    ctl = AdmissionController(max_in_flight=1, queue_limit=8,
                              queue_timeout=5.0)
    ctl.acquire()
    order = []
    barrier = threading.Barrier(3)

    def waiter(tag, delay):
        barrier.wait()
        time.sleep(delay)  # stagger arrival order deterministically
        ctl.acquire()
        order.append(tag)
        ctl.release()

    threads = [threading.Thread(target=waiter, args=("first", 0.0)),
               threading.Thread(target=waiter, args=("second", 0.15))]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(0.4)  # both are queued now
    ctl.release()
    for thread in threads:
        thread.join()
    assert order == ["first", "second"]


def test_drain_rejects_new_and_waits_for_in_flight():
    ctl = AdmissionController(max_in_flight=2, queue_limit=4,
                              queue_timeout=1.0)
    ctl.acquire()
    done = []

    def finish_later():
        time.sleep(0.1)
        ctl.release()
        done.append(True)

    thread = threading.Thread(target=finish_later)
    thread.start()
    ctl.drain()  # returns only after the in-flight query released
    assert done == [True]
    with pytest.raises(AdmissionError):
        ctl.acquire()
    ctl.resume()
    ctl.acquire()
    ctl.release()
    thread.join()


def test_service_errors_are_repro_errors():
    assert issubclass(AdmissionError, ServiceError)
    assert issubclass(DeadlineError, ServiceError)


# -------------------------------------------------------------------- #
# honest accounting
# -------------------------------------------------------------------- #
def test_cache_disabled_ledger_is_byte_identical_to_direct(
        cstore, system_x):
    """With the cache off, a served query's ledger is the direct engine
    call's, byte for byte.  With it on, a miss costs exactly that one
    engine run: its ledger differs only by the lookup and the miss."""
    for cached in (False, True):
        # a fresh service per mode, so every cached submission misses
        with QueryService(cstore=cstore, system_x=system_x) as service:
            sessions = {"cs": service.session(engine="cs"),
                        "rs": service.session(engine="rs")}
            for query in (Q1_1, Q2_1, Q3_1, Q4_1):
                for engine, direct in (
                        ("cs", cstore.execute(query)),
                        ("rs", system_x.execute(query,
                                                DesignKind.TRADITIONAL))):
                    run = service.submit(query, session=sessions[engine],
                                         cached=cached)
                    assert run.source == "engine"
                    expected = direct.stats.snapshot()
                    if cached:
                        expected.update(cache_lookups=1, cache_misses=1)
                    assert run.stats.snapshot() == expected, \
                        (engine, query.name, cached)
                    assert run.result.same_rows(direct.result)


def test_cache_counters_are_zero_on_direct_engine_runs(cstore):
    snapshot = cstore.execute(Q1_1).stats.snapshot()
    for counter in ("cache_lookups", "cache_exact_hits", "cache_misses"):
        assert snapshot[counter] == 0


# -------------------------------------------------------------------- #
# traces
# -------------------------------------------------------------------- #
def test_served_traces_carry_service_spans_and_verify(cstore, system_x):
    with QueryService(cstore=cstore, system_x=system_x,
                      config=ServiceConfig(cache_admit_seconds=0.0)
                      ) as service:
        session = service.session(engine="cs")
        first = session.execute(Q2_1)
        assert first.source == "engine"
        names = first.trace.span_names()
        assert names[0] == "service"
        assert "admission-wait" in names and "cache-lookup" in names
        assert "cache-admit" in names
        first.trace.verify(first.stats)

        exact = session.execute(Q2_1)
        assert exact.source == "cache-exact"
        assert "cache-lookup" in exact.trace.span_names()
        exact.trace.verify(exact.stats)

        # a narrower variant of a cached query is a plain miss
        session.execute(Q4_1)
        narrower = session.execute(Q4_2)
        assert narrower.source == "engine"
        assert "cache-lookup" in narrower.trace.span_names()
        narrower.trace.verify(narrower.stats)


def test_exact_hit_is_strictly_cheaper(cstore, system_x):
    with QueryService(cstore=cstore, system_x=system_x,
                      config=ServiceConfig(cache_admit_seconds=0.0)
                      ) as service:
        session = service.session(engine="rs")
        first = session.execute(Q3_2)
        again = session.execute(Q3_2)
        assert again.source == "cache-exact"
        assert again.seconds < first.seconds
        assert again.stats.pages_read == 0


# -------------------------------------------------------------------- #
# deadlines / sessions at the service level
# -------------------------------------------------------------------- #
def test_expired_deadline_is_a_typed_service_error(cstore, system_x):
    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="cs")
        with pytest.raises(DeadlineError):
            session.execute(Q1_1, deadline=0.0)
        stats = service.serve_stats()
        assert stats["service"]["deadline_misses"] == 1
        assert stats["service"]["rejected"] == 1


def test_closed_service_refuses_work(cstore, system_x):
    service = QueryService(cstore=cstore, system_x=system_x)
    session = service.session(engine="cs")
    service.close()
    with pytest.raises(AdmissionError):
        session.execute(Q1_1)


def test_unattached_engine_is_an_error(cstore):
    service = QueryService(cstore=cstore)
    with pytest.raises(Exception):
        service.session(engine="rs")
    service.close()


# -------------------------------------------------------------------- #
# fault failover through the service
# -------------------------------------------------------------------- #
def test_corruption_surfaces_as_typed_error_through_service(
        cstore, system_x):
    disk = cstore.disk
    victims = [name for name in disk.files()
               if name.startswith("lineorder.")
               and name.endswith(".quantity")]
    assert victims
    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="cs")
        try:
            for name in victims:
                disk.quarantine(name, 0)
            with pytest.raises(CorruptPageError):
                session.execute(Q1_1)
            stats = service.serve_stats()
            assert stats["service"]["failed"] == 1
        finally:
            for name in victims:
                disk.unquarantine(name, 0)
        # the service recovers once the pages heal
        ok = session.execute(Q1_1)
        assert ok.result.rows


def test_transient_faults_retry_and_heal_through_service(
        cstore, system_x):
    from repro.simio.faults import FaultInjector, FaultPolicy

    with QueryService(cstore=cstore, system_x=system_x) as service:
        session = service.session(engine="cs")
        baseline = session.execute(Q1_1, cached=False)
        injector = FaultInjector(101, [FaultPolicy(
            transient_rate=0.2, max_transient_failures=2)])
        injector.install(cstore.disk)
        try:
            healed = session.execute(Q1_1, cached=False)
        finally:
            cstore.disk.fault_injector = None
        assert healed.result.same_rows(baseline.result)
        assert healed.stats.io_retries > 0  # the schedule actually fired
        healed.trace.verify(healed.stats)

