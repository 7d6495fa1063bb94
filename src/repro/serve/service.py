"""The query service: admission control, dispatch, result caching.

:class:`QueryService` fronts one :class:`~repro.colstore.engine.CStore`
and/or one :class:`~repro.rowstore.engine.SystemX`.  Clients hold
:class:`~repro.serve.session.Session` handles and submit
:class:`~repro.plan.logical.StarQuery` objects; the service

1. **admits** — a bounded number of queries run at once; the rest wait
   in a FIFO queue with an optional queue timeout and per-query
   deadline, failing fast with typed
   :class:`~repro.errors.AdmissionError` / ``DeadlineError``;
2. **looks up** — the semantic cache: an exact structural repeat of a
   cached query is answered with its cached result, anything else is a
   miss;
3. **protects** — a per-(engine, fact-table) circuit breaker opens
   after repeated persistent faults; while open, an exact repeat is
   still answered from the cache, stamped **degraded**, and every other
   query is refused with typed :class:`~repro.errors.BreakerOpenError`.
   Deadlines propagate into engine execution as cooperative
   cancellation tokens checked at page/morsel boundaries, and an
   optional brownout policy sheds low-priority queued work
   (:class:`~repro.errors.ShedError`) when estimated wait exceeds a
   threshold;
4. **executes** — on a miss, exactly one engine run under the target
   engine's lock;
5. **accounts** — every step runs under the requesting query's own
   :class:`~repro.simio.stats.QueryStats` ledger and span tracer
   (``admission-wait``, ``breaker-check``, ``cache-lookup``,
   ``cache-admit``, plus ``shed`` and ``degraded-hit`` markers), and
   the finished trace is verified to sum exactly to the flat ledger —
   on error paths too, where the partial trace rides on the raised
   exception as ``error.trace``.  With no faults, a service run that
   reaches the engine has the ledger of a direct engine call; a cache
   miss adds only its ``cache_lookups`` / ``cache_misses`` counts.

Writes go through :meth:`QueryService.insert` / ``delete`` / ``move``
(or ``execute_sql``): each mutation lands on every attached engine
under its lock, evicts cached entries touching the written table, and
while a delta is pending the cache is bypassed entirely, so no
merge-blind answer can serve stale rows.

All breaker/brownout timing runs on a :class:`ServiceClock` of
accumulated *simulated* seconds, so resilience behaviour is exactly
reproducible for a given submission order.  ``drain()`` stops admitting
and waits for in-flight queries to finish; the service is also a
context manager.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..errors import (
    AdmissionError,
    BreakerOpenError,
    ChecksumError,
    CorruptPageError,
    DeadlineError,
    PlanError,
    QueryCancelledError,
    ReproError,
    ShedError,
    TransientIOError,
)
from ..obs import Trace, Tracer
from ..plan.logical import StarQuery
from ..result import ResultSet
from ..simio.stats import CostBreakdown, CostModel, PAPER_2008, QueryStats
from ..sql import bind, bind_delete, bind_insert, parse_statement
from ..sql.ast import DeleteStatement, InsertStatement
from .adapters import ColumnStoreAdapter, RowStoreAdapter
from .resilience import (
    BreakerBoard,
    CancellationToken,
    HALF_OPEN,
    OPEN,
    ServiceClock,
)
from .semcache import SemanticCache
from .session import Session

#: bound SELECT texts one service remembers (least recently used out)
STATEMENT_CACHE_SIZE = 1024

#: engine failures that count toward a scope's circuit breaker: the
#: storage stack's persistent verdicts plus cooperative timeouts
BREAKER_FAULTS = (CorruptPageError, ChecksumError, TransientIOError,
                  QueryCancelledError)


@dataclass
class ServiceConfig:
    """Knobs of one :class:`QueryService`."""

    max_in_flight: int = 4          #: queries allowed past admission at once
    queue_limit: int = 64           #: waiters beyond which admission refuses
    queue_timeout: Optional[float] = 30.0  #: default max queue wait (wall s)
    cache: bool = True              #: result cache on/off
    cache_budget_bytes: int = 64 << 20
    cache_admit_seconds: float = 1e-3  #: cost-aware admission threshold
    breakers: bool = True           #: per-scope circuit breakers on/off
    breaker_threshold: int = 3      #: consecutive faults before opening
    breaker_cooldown: float = 0.05  #: simulated seconds open before half-open
    shed_threshold: Optional[float] = None  #: brownout: est. wait (sim s)
    deadline: Optional[float] = None        #: default wall deadline per query
    sim_deadline: Optional[float] = None    #: default simulated-seconds budget
    failure_clock_seconds: float = 1e-3     #: clock charge per failed query


@dataclass
class ServiceRun:
    """Outcome of one query served by the service.

    ``stats``/``cost``/``trace`` cover everything done on the query's
    behalf — admission bookkeeping, the cache lookup, and (on a miss)
    the engine execution itself."""

    query_name: str
    session_name: str
    engine: str
    source: str                     #: "engine" | "cache-exact"
    result: ResultSet
    stats: QueryStats
    cost: CostBreakdown
    trace: Trace
    wall_seconds: float
    degraded: bool = False          #: answered from cache under an open breaker

    @property
    def seconds(self) -> float:
        """Priced simulated seconds."""
        return self.cost.total_seconds


class _Waiter:
    """One queued admission request (priority + shed flag)."""

    __slots__ = ("priority", "shed")

    def __init__(self, priority: int) -> None:
        self.priority = priority
        self.shed = False


class AdmissionController:
    """Bounded FIFO admission with queue timeout, deadlines, and
    priority-aware load shedding.

    When ``shed_threshold`` is set (simulated seconds), a low-priority
    arrival (``priority <= 0``) is shed with :class:`ShedError` as soon
    as the *estimated* wait — latency EWMA times backlog over the
    in-flight limit — exceeds the threshold (a brownout: the service
    keeps serving high-priority work at full quality instead of
    degrading everyone).  Independently, when the queue is full, a
    higher-priority arrival displaces the lowest-priority waiter rather
    than being refused."""

    #: weight of the newest observation in the latency EWMA
    EWMA_ALPHA = 0.2

    def __init__(self, max_in_flight: int, queue_limit: int,
                 queue_timeout: Optional[float],
                 shed_threshold: Optional[float] = None) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = max_in_flight
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout
        self.shed_threshold = shed_threshold
        self._cond = threading.Condition()
        self._waiters: List[_Waiter] = []
        self._in_flight = 0
        self._draining = False
        self._latency_ewma: Optional[float] = None

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def queued(self) -> int:
        with self._cond:
            return len(self._waiters)

    @property
    def latency_ewma(self) -> float:
        """Smoothed simulated seconds per completed query."""
        with self._cond:
            return self._latency_ewma if self._latency_ewma is not None \
                else 0.0

    def note_latency(self, simulated_seconds: float) -> None:
        """Feed one completed query's simulated latency into the EWMA."""
        with self._cond:
            if self._latency_ewma is None:
                self._latency_ewma = simulated_seconds
            else:
                self._latency_ewma += self.EWMA_ALPHA * (
                    simulated_seconds - self._latency_ewma)

    def _estimated_wait(self) -> float:
        """Expected simulated seconds before a new arrival would start
        (lock held): backlog ahead of it, paced by the EWMA."""
        if self._latency_ewma is None:
            return 0.0
        backlog = len(self._waiters) + self._in_flight
        return self._latency_ewma * backlog / self.max_in_flight

    def _shed_candidate(self) -> Optional[_Waiter]:
        """The waiter a full queue would sacrifice: the latest-queued
        among the lowest-priority (lock held)."""
        best = None
        for waiter in self._waiters:
            if waiter.shed:
                continue
            if best is None or waiter.priority <= best.priority:
                best = waiter
        return best

    def acquire(self, timeout: Optional[float] = None,
                deadline_at: Optional[float] = None,
                priority: int = 0) -> None:
        """Block until admitted (FIFO).  Raises :class:`AdmissionError`
        when the queue is full, the wait exceeds ``timeout``, or the
        service is draining; :class:`DeadlineError` when ``deadline_at``
        (a ``time.monotonic`` instant) passes first; :class:`ShedError`
        when brownout policy or a higher-priority arrival sheds it."""
        if timeout is None:
            timeout = self.queue_timeout
        token = _Waiter(priority)
        with self._cond:
            if self._draining:
                raise AdmissionError(
                    "service is draining; not accepting new queries")
            if self.shed_threshold is not None and priority <= 0:
                estimated = self._estimated_wait()
                if estimated > self.shed_threshold:
                    raise ShedError(
                        f"brownout: estimated wait {estimated:.4f}s "
                        f"(simulated) exceeds shed threshold "
                        f"{self.shed_threshold:g}s for priority {priority}")
            # the limit bounds *waiting* requests; one that can start
            # immediately only passes through the list, it never queues
            would_wait = bool(self._waiters) \
                or self._in_flight >= self.max_in_flight
            if would_wait and len(self._waiters) >= self.queue_limit:
                victim = self._shed_candidate()
                if victim is not None and victim.priority < priority:
                    # displace the least important waiter instead of
                    # refusing the more important arrival
                    victim.shed = True
                    self._cond.notify_all()
                else:
                    raise AdmissionError(
                        f"admission queue is full "
                        f"({self.queue_limit} queries already waiting)")
            self._waiters.append(token)
            started = time.monotonic()
            try:
                while True:
                    if token.shed:
                        raise ShedError(
                            "shed from the admission queue by a "
                            "higher-priority arrival")
                    if self._draining:
                        raise AdmissionError(
                            "service is draining; not accepting new queries")
                    now = time.monotonic()
                    if deadline_at is not None and now >= deadline_at:
                        raise DeadlineError(
                            f"deadline expired after {now - started:.3f}s "
                            f"in the admission queue")
                    if self._waiters[0] is token \
                            and self._in_flight < self.max_in_flight:
                        self._in_flight += 1
                        return
                    waits = []
                    if timeout is not None:
                        remaining = started + timeout - now
                        if remaining <= 0:
                            raise AdmissionError(
                                f"queue timeout: not admitted within "
                                f"{timeout:g}s "
                                f"({len(self._waiters)} waiting, "
                                f"{self._in_flight} in flight)")
                        waits.append(remaining)
                    if deadline_at is not None:
                        waits.append(deadline_at - now)
                    self._cond.wait(min(waits) if waits else None)
            finally:
                self._waiters.remove(token)
                self._cond.notify_all()

    def release(self) -> None:
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def drain(self) -> None:
        """Refuse new queries and wait for in-flight ones to finish."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while self._in_flight > 0 or self._waiters:
                self._cond.wait()

    def resume(self) -> None:
        with self._cond:
            self._draining = False
            self._cond.notify_all()


@dataclass
class ServiceStats:
    """Service-wide tallies (thread-safe via :meth:`note`)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    deadline_misses: int = 0
    engine_runs: int = 0
    exact_hits: int = 0
    #: always 0 (the cache answers exact repeats only); read by the
    #: end-to-end benchmark's ``note_service`` until ROADMAP item 0(f)
    subsumption_hits: int = 0
    shed: int = 0                   #: brownout / displacement sheds
    cancelled: int = 0              #: cooperative mid-execution cancels
    writes: int = 0                 #: INSERT/DELETE statements applied
    moves: int = 0                  #: tuple-mover runs
    recoveries: int = 0             #: cold-start journal replays
    degraded_hits: int = 0          #: cache answers under an open breaker
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    breaker_rejections: int = 0     #: open-breaker refusals (no cache answer)
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def note(self, **deltas) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)
                    if not f.name.startswith("_")}


class _Request:
    """One in-flight submission's mutable state."""

    def __init__(self, query: StarQuery, session: Session, use_cache: bool,
                 stats: QueryStats, tracer: Tracer,
                 deadline_at: Optional[float],
                 token: Optional[CancellationToken] = None) -> None:
        self.query = query
        self.session = session
        self.use_cache = use_cache
        self.stats = stats
        self.tracer = tracer
        self.deadline_at = deadline_at
        self.token = token
        self.run: Optional[ServiceRun] = None
        self.started = time.perf_counter()


class QueryService:
    """A concurrent query service over one or both engines."""

    def __init__(
        self,
        cstore=None,
        system_x=None,
        config: Optional[ServiceConfig] = None,
        cost_model: CostModel = PAPER_2008,
    ) -> None:
        if cstore is None and system_x is None:
            raise ValueError("QueryService needs at least one engine")
        self.config = config if config is not None else ServiceConfig()
        self.cost_model = cost_model
        self._adapters: Dict[str, object] = {}
        self._engine_locks: Dict[str, threading.Lock] = {}
        if cstore is not None:
            self._adapters["cs"] = ColumnStoreAdapter(cstore)
            self._engine_locks["cs"] = threading.Lock()
        if system_x is not None:
            self._adapters["rs"] = RowStoreAdapter(system_x)
            self._engine_locks["rs"] = threading.Lock()
        self.cache = SemanticCache(
            budget_bytes=self.config.cache_budget_bytes,
            admit_seconds=self.config.cache_admit_seconds)
        self.admission = AdmissionController(
            self.config.max_in_flight, self.config.queue_limit,
            self.config.queue_timeout,
            shed_threshold=self.config.shed_threshold)
        self.stats = ServiceStats()
        #: deterministic resilience clock: accumulated simulated seconds
        self.clock = ServiceClock()
        self.breakers: Optional[BreakerBoard] = None
        if self.config.breakers:
            self.breakers = BreakerBoard(
                self.config.breaker_threshold, self.config.breaker_cooldown,
                counter=self.stats.note)
        self.sessions: Dict[str, Session] = {}
        self._session_seq = 0
        self._session_lock = threading.Lock()
        #: explicit DML serialization: one statement's multi-engine
        #: application completes before the next begins, so racing
        #: writers queue here instead of tripping the write store's
        #: WriteContentionError
        self._dml_lock = threading.Lock()
        #: exact SQL text -> bound StarQuery, in LRU order.  ``StarQuery``
        #: is frozen and binding reads only the static SSB schema, so an
        #: entry is never invalidated, only aged out.
        self._statements: "OrderedDict[str, StarQuery]" = OrderedDict()
        self._statements_lock = threading.Lock()
        self._closed = False

    # -------------------------------------------------------------- #
    # sessions
    # -------------------------------------------------------------- #
    def session(self, name: Optional[str] = None, engine: Optional[str] = None,
                **kwargs) -> Session:
        """Open a logical client session (see :class:`Session`)."""
        if engine is None:
            engine = "cs" if "cs" in self._adapters else "rs"
        if engine not in self._adapters:
            raise PlanError(
                f"engine {engine!r} is not attached to this service")
        with self._session_lock:
            if name is None:
                self._session_seq += 1
                name = f"s{self._session_seq}"
            session = Session(self, name, engine=engine, **kwargs)
            self.sessions[name] = session
            return session

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def drain(self) -> None:
        """Stop admitting and wait for in-flight queries to finish."""
        self.admission.drain()

    def close(self) -> None:
        self._closed = True
        self.drain()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def invalidate(self, table: Optional[str] = None) -> int:
        """Invalidate cached entries (all, or those touching ``table``)."""
        return self.cache.invalidate(table)

    # -------------------------------------------------------------- #
    # writes
    # -------------------------------------------------------------- #
    def insert(self, table: str, rows,
               stats: Optional[QueryStats] = None) -> int:
        """Buffer ``rows`` into every attached engine's delta store.

        Runs under each engine's lock so a write never interleaves with
        an executing query; the engines validate all-or-nothing, so a
        refused batch leaves both stores untouched.  Cached entries
        touching ``table`` are evicted (other tables' entries and all
        hit counters survive).  Returns rows accepted."""
        count = self._write(lambda engine, ledger:
                            engine.insert(table, rows, ledger), stats)
        self.cache.invalidate(table)
        self.stats.note(writes=1)
        return count

    def delete(self, table: str, predicates,
               stats: Optional[QueryStats] = None) -> int:
        """Mark matching rows deleted in every attached engine (dimension
        deletes are RESTRICTed while referenced).  Evicts cached entries
        touching ``table``; returns rows marked."""
        count = self._write(lambda engine, ledger:
                            engine.delete(table, predicates, ledger), stats)
        self.cache.invalidate(table)
        self.stats.note(writes=1)
        return count

    def move(self, stats: Optional[QueryStats] = None) -> int:
        """Run each attached engine's tuple mover (drains its WOS into
        fresh base pages).  Cached entries need no eviction here — every
        write already evicted its table's entries, and the cache is
        bypassed while a delta is pending — so surviving entries are for
        untouched tables, whose pages the mover rebuilds byte-identically.
        Returns rows merged."""
        count = self._write(lambda engine, ledger: engine.move(ledger),
                            stats)
        self.stats.note(moves=1)
        return count

    def recover(self) -> Dict[str, object]:
        """Cold-start crash recovery for every attached engine.

        Replays the tail of each engine's redo journal onto its last
        checkpoint — the base tables of the last durable move (see
        ``docs/writes.md``, "Crash recovery") — under the DML and
        engine locks, so recovery never interleaves with a write or an
        executing query.  Each engine's replay runs on its own ledger
        under a ``recovery`` root span; the verified trace rides on the
        returned report.  The cache is invalidated wholesale — recovered
        state supersedes anything admitted before the restart.  Returns
        ``{engine name: RecoveryReport}``.
        """
        if self._closed:
            raise AdmissionError("service is closed")
        reports: Dict[str, object] = {}
        with self._dml_lock:
            for name in sorted(self._adapters):
                engine = self._adapters[name].engine
                with self._engine_locks[name]:
                    ledger = QueryStats()
                    tracer = Tracer(ledger, self.cost_model,
                                    root_name="recovery")
                    report = engine.recover(stats=ledger, tracer=tracer)
                    report.trace = tracer.finish(ledger)
                    reports[name] = report
        self.cache.invalidate()
        self.stats.note(recoveries=1)
        return reports

    def _write(self, apply_fn, stats: Optional[QueryStats]) -> int:
        """Apply one mutation to every attached engine, under its lock.

        The attached engines front the same logical data, so a write
        must land on all of them or reads would diverge by engine; the
        per-engine counts are required to agree."""
        if self._closed:
            raise AdmissionError("service is closed")
        if stats is None:
            stats = QueryStats()
        counts = {}
        # the DML lock serializes whole statements: without it two
        # writers could interleave across the per-engine locks (engine A
        # sees X then Y, engine B sees Y then X) and the journals would
        # disagree on epoch order
        with self._dml_lock:
            for name in sorted(self._adapters):
                engine = self._adapters[name].engine
                with self._engine_locks[name]:
                    counts[name] = apply_fn(engine, stats)
        if len(set(counts.values())) > 1:
            raise ReproError(
                f"engines disagree on rows affected: {counts} — attached "
                f"stores have diverged (were they written directly?)")
        return next(iter(counts.values()))

    def execute_sql(self, sql: str, session: Optional[Session] = None,
                    **submit_kwargs):
        """Parse and serve one SQL statement.

        SELECT binds to a :class:`StarQuery` and goes through
        :meth:`submit` (returns its :class:`ServiceRun`); INSERT/DELETE
        go through the service write path (returns rows affected).  A
        SELECT text seen before skips the parser and binder: its bound
        query is kept by exact text (DML texts and texts that failed to
        parse or bind are never kept)."""
        with self._statements_lock:
            query = self._statements.get(sql)
            if query is not None:
                self._statements.move_to_end(sql)
        if query is None:
            statement = parse_statement(sql)
            if isinstance(statement, InsertStatement):
                table, rows = bind_insert(statement)
                return self.insert(table, rows)
            if isinstance(statement, DeleteStatement):
                table, predicates = bind_delete(statement)
                return self.delete(table, predicates)
            query = bind(statement, name="sql")
            with self._statements_lock:
                self._statements[sql] = query
                if len(self._statements) > STATEMENT_CACHE_SIZE:
                    self._statements.popitem(last=False)
        return self.submit(query, session=session, **submit_kwargs)

    def serve_stats(self) -> Dict:
        """One dict for dashboards: service, cache, admission,
        resilience, sessions."""
        snap = self.stats.snapshot()
        return {
            "service": snap,
            "cache": self.cache.snapshot(),
            "admission": {
                "max_in_flight": self.admission.max_in_flight,
                "queue_limit": self.admission.queue_limit,
                "in_flight": self.admission.in_flight,
                "queued": self.admission.queued,
                "latency_ewma": self.admission.latency_ewma,
            },
            "resilience": {
                "breakers": self.breakers.states()
                if self.breakers is not None else {},
                "clock_seconds": self.clock.now(),
                "shed": snap["shed"],
                "degraded_hits": snap["degraded_hits"],
                "cancelled": snap["cancelled"],
                "breaker_rejections": snap["breaker_rejections"],
            },
            "sessions": {
                name: vars(s.stats).copy()
                for name, s in sorted(self.sessions.items())
            },
        }

    # -------------------------------------------------------------- #
    # submission
    # -------------------------------------------------------------- #
    def submit(self, query: StarQuery, session: Optional[Session] = None,
               cached: Optional[bool] = None,
               timeout: Optional[float] = None,
               deadline: Optional[float] = None,
               sim_deadline: Optional[float] = None,
               priority: Optional[int] = None) -> ServiceRun:
        """Serve one query for ``session`` (blocking).

        ``cached=False`` bypasses the cache for this call (the honest-
        accounting escape hatch); ``timeout`` caps the admission-queue
        wait; ``deadline`` caps total wall time — in the queue *and*,
        via a cooperative cancellation token, inside engine execution;
        ``sim_deadline`` caps the query's priced *simulated* seconds the
        same cooperative way; ``priority`` overrides the session's
        brownout class (``<= 0`` is sheddable)."""
        if self._closed:
            raise AdmissionError("service is closed")
        if session is None:
            session = self.session()
        adapter = self._adapters.get(session.engine)
        if adapter is None:
            raise PlanError(
                f"engine {session.engine!r} is not attached to this service")
        use_cache = self.config.cache and session.cached \
            if cached is None else bool(cached) and self.config.cache
        # a cached result was computed from base pages only and is blind
        # to a pending delta; bypass the cache until the tuple mover
        # drains it
        if use_cache and adapter.engine.pending_writes():
            use_cache = False
        if deadline is None:
            deadline = self.config.deadline
        if sim_deadline is None:
            sim_deadline = self.config.sim_deadline
        if priority is None:
            priority = session.priority
        session.note_submitted()
        self.stats.note(submitted=1)

        stats = QueryStats()
        tracer = Tracer(stats, self.cost_model, root_name="service")
        deadline_at = None if deadline is None \
            else time.monotonic() + deadline
        token = None
        if deadline_at is not None or sim_deadline is not None:
            token = CancellationToken(deadline_at=deadline_at,
                                      sim_budget=sim_deadline,
                                      cost_model=self.cost_model)
        request = _Request(query, session, use_cache, stats, tracer,
                           deadline_at, token=token)
        try:
            with tracer.span("admission-wait"):
                self.admission.acquire(timeout=timeout,
                                       deadline_at=deadline_at,
                                       priority=priority)
        except DeadlineError as error:
            self.stats.note(rejected=1, deadline_misses=1)
            session.note_error()
            self._attach_trace(error, request)
            raise
        except ShedError as error:
            self.stats.note(rejected=1, shed=1)
            session.note_error()
            tracer.leaf("shed", QueryStats())
            self._attach_trace(error, request)
            raise
        except AdmissionError as error:
            self.stats.note(rejected=1)
            session.note_error()
            self._attach_trace(error, request)
            raise

        try:
            try:
                with self._engine_locks[session.engine]:
                    self._serve_one(adapter, request)
            finally:
                self.admission.release()
        except BaseException as error:
            # even a failed query moves the resilience clock: the work
            # it burned, plus a fixed charge so all-failing workloads
            # still make progress toward breaker cooldowns
            self.clock.advance(self.cost_model.cost(stats).total_seconds
                               + self.config.failure_clock_seconds)
            self.stats.note(
                failed=1,
                deadline_misses=int(isinstance(error, DeadlineError)),
                cancelled=int(isinstance(error, QueryCancelledError)),
                breaker_rejections=int(isinstance(error, BreakerOpenError)))
            session.note_error()
            self._attach_trace(error, request)
            raise
        run = request.run
        self.clock.advance(run.seconds)
        self.admission.note_latency(run.seconds)
        self.stats.note(completed=1, simulated_seconds=run.seconds,
                        wall_seconds=run.wall_seconds,
                        degraded_hits=int(run.degraded),
                        **{{"engine": "engine_runs",
                            "cache-exact": "exact_hits"}[run.source]: 1})
        session.note_result(run.source, run.seconds, run.wall_seconds)
        return run

    @staticmethod
    def _attach_trace(error: BaseException, request: _Request) -> None:
        """Close the request's partial trace and ride it (plus its flat
        ledger) on the raised exception — ``error.trace`` still passes
        :meth:`Trace.verify` against ``error.stats``, so even failed
        queries account for the work they burned."""
        try:
            error.trace = request.tracer.finish(request.stats)
            error.stats = request.stats
        except (ReproError, AttributeError):
            pass

    # -------------------------------------------------------------- #
    # the serving path (engine lock held)
    # -------------------------------------------------------------- #
    def _serve_one(self, adapter, request: _Request) -> None:
        """Gate one query through its scope's breaker, then serve it.

        The breaker records at most one verdict per serve: a qualifying
        fault (``BREAKER_FAULTS``) counts as a failure, a completed
        engine run as a success, and a cache hit as neither."""
        if request.deadline_at is not None \
                and time.monotonic() >= request.deadline_at:
            raise DeadlineError("deadline expired before execution started")
        session, engine = request.session, adapter.engine
        tracer = request.tracer
        # per shard set: a fault in one shard configuration must not trip
        # (or be masked by) the health of a differently-sharded stack
        breaker_scope = (session.engine, request.query.fact_table,
                         adapter.shard_count(session))
        trial = False
        if self.breakers is not None:
            with tracer.span("breaker-check"):
                verdict = self.breakers.admit(breaker_scope,
                                              self.clock.now())
            if verdict == OPEN:
                if request.use_cache and self._serve_cached(
                        adapter, request, degraded=True):
                    return
                raise BreakerOpenError(
                    breaker_scope,
                    detail="no cached result for this query while open")
            trial = verdict == HALF_OPEN

        saved_token = engine.disk.cancellation
        if request.token is not None:
            engine.disk.cancellation = request.token
        try:
            engine_touched = self._serve_body(adapter, request)
        except BREAKER_FAULTS:
            if self.breakers is not None:
                self.breakers.record_failure(breaker_scope,
                                             self.clock.now())
            raise
        except BaseException:
            # not an engine-health verdict: free a reserved trial slot
            if trial:
                self.breakers.abandon_trial(breaker_scope)
            raise
        finally:
            engine.disk.cancellation = saved_token
        if self.breakers is not None:
            if engine_touched:
                self.breakers.record_success(breaker_scope)
            elif trial:
                self.breakers.abandon_trial(breaker_scope)

    def _serve_cached(self, adapter, request: _Request,
                      degraded: bool = False) -> bool:
        """Answer from an exact result hit; False on a miss (nothing
        served).  ``degraded`` marks an answer given under an open
        breaker."""
        stats = request.stats
        with request.tracer.span("cache-lookup"):
            stats.cache_lookups += 1
            result = self.cache.lookup_result(adapter.scope(request.session),
                                              request.query)
            if result is None:
                stats.cache_misses += 1
                return False
            stats.cache_exact_hits += 1
        request.run = self._finish(request, result, "cache-exact", degraded)
        return True

    def _serve_body(self, adapter, request: _Request) -> bool:
        """Serve from the cache, else by exactly one engine run (whose
        result is admitted when it cost enough to be worth keeping);
        returns True if the engine ran."""
        if request.use_cache and self._serve_cached(adapter, request):
            return False
        query, session = request.query, request.session
        stats, tracer = request.stats, request.tracer
        engine = adapter.engine
        before = engine.disk.stats
        try:
            run = adapter.execute(query, session)
        except BaseException:
            # an aborted run still burned simulated work: the engine
            # installed a fresh ledger for this query (identity
            # changed), so fold its partial counts into the request
            # ledger before the exception carries the trace out —
            # failure-path clock advances and ``error.stats`` then
            # account for the pages actually touched
            partial = engine.disk.stats
            if partial is not before and partial is not stats:
                stats.merge(partial)
            raise
        stats.merge(run.stats)
        tracer.attach_span(run.trace.root)

        if request.use_cache and self.cache.worth_admitting(run.seconds):
            with tracer.span("cache-admit"):
                self.cache.admit_result(adapter.scope(session), query,
                                        run.result, run.seconds,
                                        _tables_of(query))
        request.run = self._finish(request, run.result, "engine")
        return True

    def _finish(self, request: _Request, result: ResultSet, source: str,
                degraded: bool = False) -> ServiceRun:
        if degraded:
            request.tracer.leaf("degraded-hit", QueryStats())
        trace = request.tracer.finish(request.stats)
        return ServiceRun(
            query_name=request.query.name,
            session_name=request.session.name,
            engine=request.session.engine,
            source=source,
            result=result,
            stats=request.stats,
            cost=self.cost_model.cost(request.stats),
            trace=trace,
            wall_seconds=time.perf_counter() - request.started,
            degraded=degraded,
        )


def _tables_of(query: StarQuery) -> frozenset:
    return frozenset({query.fact_table} | set(query.joins.values()))


__all__ = ["QueryService", "ServiceConfig", "ServiceRun", "ServiceStats",
           "AdmissionController", "BREAKER_FAULTS"]
