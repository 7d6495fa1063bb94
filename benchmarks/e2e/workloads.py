"""The five closed-loop workloads.

Each workload is set up from a seed (``repro.ssb.generate`` plus engine
construction plus one unmeasured warm-up round), then asked for whole
*rounds* until the measured time is used up.  A round is a fixed list of
operations — a flight, a set of flights, a client stream, a write cycle —
so per-round numbers are comparable however many rounds a run completes.

The engines only ever see generated tables and statements; everything
measured here is measured from outside, by timing calls into public
functions and by reading the ``stats``/``cost``/``trace`` objects the
engines return.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import ReproError
from repro.reference import execute as reference_execute
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.serve import QueryService, ServiceConfig
from repro.simio.disk import PAGE_SIZE
from repro.simio.stats import QueryStats
from repro.sql import bind_delete, bind_insert, parse_query, parse_statement
from repro.ssb.generator import generate
from repro.ssb.queries import all_queries
from repro.ssb.sql_text import SQL_TEXT
from repro.storage.colfile import CompressionLevel
from repro.write.store import WriteStore

import streams
from tracing import Recorder

TICL = ExecutionConfig.from_label("tICL")
TICL_WRITES = dataclasses.replace(TICL, writes=True)
_UNCOMPRESSED = ExecutionConfig.from_label("tIcL")

#: cs_variants: six ways to run the uncompressed projection
VARIANTS: Dict[str, ExecutionConfig] = {
    "tIcL": _UNCOMPRESSED,
    "tIcL.zm": dataclasses.replace(_UNCOMPRESSED, zone_maps=True),
    "tIcL.sh4": dataclasses.replace(_UNCOMPRESSED, shards=4),
    "tIcL.w2": dataclasses.replace(_UNCOMPRESSED, workers=2),
    "ticL": ExecutionConfig.from_label("ticL"),
    "Ticl": ExecutionConfig.from_label("Ticl"),
}

#: rs_flights: AI is left out — one AI flight costs more than the other
#: four designs' flights together and would drown them
DESIGNS: Dict[str, DesignKind] = {
    "T": DesignKind.TRADITIONAL,
    "TB": DesignKind.TRADITIONAL_BITMAP,
    "MV": DesignKind.MATERIALIZED_VIEWS,
    "VP": DesignKind.VERTICAL_PARTITIONING,
}

#: statements per round: over the 2 048-statement Zipf(1.1) space the
#: fixed rank sequence repeats an earlier statement 62.8 % of the time
SERVE_STREAM_LENGTH = 600

INSERTS_PER_CYCLE = 20
ROWS_PER_INSERT = 100
TAIL_INSERTS = 5

#: simulated seconds of these engine spans are reported per layer
_SIM_SPANS = {
    "phase1:dimension-filter": "core.sim_phase1_s",
    "phase2:fact-scan": "core.sim_phase2_s",
    "phase3:extraction": "core.sim_phase3_s",
    "aggregate": "core.sim_aggregate_s",
}


def insert_sql(fact, rng: random.Random,
               rows: int = ROWS_PER_INSERT) -> str:
    """One multi-row INSERT of cloned fact rows (a seeded sample of the
    generated lineorder, so every foreign key resolves)."""
    picks = [rng.randrange(fact.num_rows) for _ in range(rows)]
    columns = fact.columns()
    decoded = []
    for column in columns:
        values = column.data[picks]
        if column.dictionary is not None:
            decoded.append([f"'{text}'"
                            for text in column.dictionary.decode(values)])
        else:
            decoded.append([str(value) for value in values.tolist()])
    tuples = ", ".join("(" + ", ".join(cells) + ")"
                       for cells in zip(*decoded))
    names = ", ".join(column.name for column in columns)
    return f"INSERT INTO lineorder ({names}) VALUES {tuples};"


#: stands in for a trace request while no tracer is installed
_NO_REQUEST = nullcontext()


class Phase:
    """What one phase (untraced or traced) of a workload observed."""

    def __init__(self) -> None:
        self.read_ms: List[float] = []
        #: per round: mean simulated seconds of its read queries
        self.round_sim_s: List[float] = []
        #: per round: summed wall seconds of its timed operations
        self.round_s: List[float] = []
        self.reads_per_round = 0
        self.attempted = 0
        self.errors = 0
        #: (key, query or sql, rows, oracle rows or None) awaiting the check
        self.observed: List[Tuple] = []
        #: per series: wall / simulated seconds of each 13-query flight
        self.flight_s: Dict[str, List[float]] = defaultdict(list)
        self.sim_flight_s: Dict[str, List[float]] = defaultdict(list)
        #: named wall-clock samples of non-read operations (seconds)
        self.op_s: Dict[str, List[float]] = defaultdict(list)
        #: first round only, so the counts repeat exactly run to run
        self.ledger = QueryStats()
        self.io_sim_s = 0.0
        self.cpu_sim_s = 0.0
        self.span_sim_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    @property
    def rounds(self) -> int:
        return len(self.round_s)


class Workload:
    """Base: set-up bookkeeping, the timed call, the oracle check."""

    name = ""
    why = ""
    #: default scale factor: 120 000 fact rows, a 13-query flight of the
    #: compressed column store in ~0.13 s on the 2-core seed host
    scale_factor = 0.02

    def __init__(self, seed: int, scale_factor: Optional[float] = None
                 ) -> None:
        self.seed = seed
        if scale_factor is not None:
            self.scale_factor = scale_factor
        self.tracer: Optional[Recorder] = None
        #: wall seconds of the set-up steps, by per-layer metric name
        self.setup_parts: Dict[str, float] = {}
        #: engines this workload built, and their shard children
        self.engines: List = []
        self.shard_engines: List = []
        self._order = random.Random(seed)
        #: reference answers over the generated tables, by statement
        self._oracle: Dict[str, List] = {}

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #
    def timed_step(self, metric: str, build: Callable):
        t0 = time.perf_counter()
        out = build()
        self.setup_parts[metric] = time.perf_counter() - t0
        return out

    def generate(self):
        self.data = self.timed_step(
            "ssb.generate_s",
            lambda: generate(scale_factor=self.scale_factor, seed=self.seed))
        return self.data

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, phase: Phase, first: bool) -> None:
        raise NotImplementedError

    def run_rounds(self, seconds: float) -> Phase:
        """Whole rounds until ``seconds`` of wall time are used (at
        least one).  Ledger counts come from the first round only."""
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while True:
            self.round(phase, first=phase.rounds == 0)
            if time.perf_counter() >= deadline:
                return phase

    def finish(self, phase: Phase) -> None:
        """Work done once after the last round (write_mix only)."""

    def probe_texts(self) -> Sequence[str]:
        """The SELECT texts this workload's SQL probe should parse."""
        return [SQL_TEXT[name] for name in sorted(SQL_TEXT)]

    def warm_up(self) -> None:
        self.round(Phase(), first=True)

    # ------------------------------------------------------------------ #
    # sizes on record
    # ------------------------------------------------------------------ #
    def stored_bytes(self) -> Dict[str, int]:
        """Simulated-disk bytes of the engines built, by engine kind."""
        out = {"cs": 0, "rs": 0}
        for engine in self.engines + self.shard_engines:
            out["cs" if isinstance(engine, CStore) else "rs"] += \
                engine.storage_bytes()
        return out

    def user_bytes(self) -> int:
        return sum(t.uncompressed_bytes() for t in self.data.tables.values())

    def pool_bytes(self) -> int:
        return sum(e.pool.capacity_pages * PAGE_SIZE for e in self.engines)

    # ------------------------------------------------------------------ #
    # the timed call
    # ------------------------------------------------------------------ #
    def call(self, phase: Phase, label: str, fn: Callable, *args):
        """Run one client operation; returns ``(result, seconds)`` with
        ``result`` None when the program refused it with a typed error."""
        phase.attempted += 1
        clock = time.perf_counter
        request = _NO_REQUEST if self.tracer is None \
            else self.tracer.request(label)
        try:
            with request:
                t0 = clock()
                out = fn(*args)
                return out, clock() - t0
        except ReproError as error:
            phase.errors += 1
            phase.counts[f"error:{type(error).__name__}"] += 1
            return None, 0.0

    def record_read(self, phase: Phase, first: bool, key: Tuple, query,
                    run, seconds: float, sims: List[float],
                    expected: Optional[List] = None) -> None:
        phase.read_ms.append(seconds * 1e3)
        sims.append(run.seconds)
        phase.observed.append((key, query, run.result.rows, expected))
        if first:
            phase.ledger.merge(run.stats)
            phase.io_sim_s += run.cost.io_seconds
            phase.cpu_sim_s += run.cost.cpu_seconds
            for span in run.trace.root.walk():
                metric = _SIM_SPANS.get(span.name)
                if metric is not None:
                    phase.span_sim_s[metric] += span.seconds
            report = getattr(run, "shard_report", None)
            if report is not None:
                phase.counts["shards_eliminated"] += len(report.eliminated)

    def flight(self, phase: Phase, first: bool, series: str,
               execute: Callable, sims: List[float]) -> float:
        """One 13-query flight in a seeded shuffle; returns wall seconds."""
        order = all_queries()
        self._order.shuffle(order)
        wall = 0.0
        flight_sims: List[float] = []
        for query in order:
            run, seconds = self.call(phase, f"{series}:{query.name}",
                                     execute, query)
            if run is None:
                continue
            wall += seconds
            self.record_read(phase, first, (series, query.name), query, run,
                             seconds, flight_sims)
        phase.flight_s[series].append(wall)
        # fsum: the same 13 numbers give the same sum in any shuffle
        phase.sim_flight_s[series].append(math.fsum(flight_sims))
        sims.extend(flight_sims)
        return wall

    @staticmethod
    def close_round(phase: Phase, wall: float, sims: List[float]) -> None:
        phase.round_s.append(wall)
        phase.reads_per_round = len(sims)
        phase.round_sim_s.append(math.fsum(sims) / len(sims))

    # ------------------------------------------------------------------ #
    # the oracle
    # ------------------------------------------------------------------ #
    def verify(self, phase: Phase) -> int:
        """Compare every distinct observed result with the reference
        engine once, and every repeat with the first; returns the number
        of wrong results."""
        wrong = 0
        first_rows: Dict[Tuple, List] = {}
        oracle = self._oracle
        for key, query, rows, expected in phase.observed:
            seen = first_rows.get(key)
            if seen is not None:
                wrong += rows != seen
                continue
            first_rows[key] = rows
            if expected is None:
                # over the generated tables the oracle's answer depends
                # on the statement, not on the engine or series asked
                expected = oracle.get(key[-1])
            if expected is None:
                star = parse_query(query) if isinstance(query, str) else query
                expected = reference_execute(self.data.tables, star).rows
                oracle[key[-1]] = expected
            if rows != expected and sorted(rows, key=repr) != \
                    sorted(expected, key=repr):
                wrong += 1
        phase.counts["distinct_results_checked"] = len(first_rows)
        return wrong


# ---------------------------------------------------------------------- #
class CsFlights(Workload):
    name = "cs_flights"
    why = ("compressed column store, full tICL: codec decode, column "
           "files, invisible join and scan/fetch operators do the work")

    def setup(self) -> None:
        data = self.generate()
        self.cs = self.timed_step(
            "storage.load_cs_s",
            lambda: CStore(data, levels=(CompressionLevel.MAX,)))
        self.engines = [self.cs]
        self.warm_up()

    def round(self, phase: Phase, first: bool) -> None:
        sims: List[float] = []
        wall = self.flight(phase, first, "tICL",
                           lambda q: self.cs.execute(q, TICL), sims)
        self.close_round(phase, wall, sims)


class CsVariants(Workload):
    name = "cs_variants"
    why = ("same column-store layer on the uncompressed projection, six "
           "ways: the no-change control for codec work, the target for "
           "operator, shard, morsel and zone-map work")

    def setup(self) -> None:
        data = self.generate()
        # only the uncompressed projection is ever read here, so only it
        # is loaded: codec work must not move this workload's set-up
        self.cs = self.timed_step(
            "storage.load_cs_s",
            lambda: CStore(data, levels=(CompressionLevel.NONE,)))
        self.engines = [self.cs]
        children = self.timed_step(
            "shard.build_s",
            lambda: self.cs.shard_children(VARIANTS["tIcL.sh4"].shards))
        self.shard_engines = [child for _shard, child in children]
        self.warm_up()

    def round(self, phase: Phase, first: bool) -> None:
        sims: List[float] = []
        wall = 0.0
        for series, config in VARIANTS.items():
            wall += self.flight(
                phase, first, series,
                lambda q, config=config: self.cs.execute(q, config), sims)
        self.close_round(phase, wall, sims)


class RsFlights(Workload):
    name = "rs_flights"
    why = ("row store over four physical designs: row operators, planner "
           "and heap pages, no column codec or position list — the "
           "control for column-store work")

    def setup(self) -> None:
        data = self.generate()
        self.rs = self.timed_step(
            "storage.load_rs_s",
            lambda: SystemX(data, designs=list(DESIGNS.values())))
        self.engines = [self.rs]
        self.warm_up()

    def round(self, phase: Phase, first: bool) -> None:
        sims: List[float] = []
        wall = 0.0
        for series, design in DESIGNS.items():
            wall += self.flight(
                phase, first, series,
                lambda q, design=design: self.rs.execute(q, design), sims)
        self.close_round(phase, wall, sims)


# ---------------------------------------------------------------------- #
class _Served(Workload):
    """Both engines behind one QueryService.

    Half the default scale factor: a serving round is 600 requests and a
    write cycle rebuilds both stores, and at least three of either must
    fit the measured time for their medians to mean anything."""

    scale_factor = 0.01
    cs_config = TICL
    rs_writes = False

    def build_engines(self) -> None:
        data = self.generate()
        self.cs = self.timed_step(
            "storage.load_cs_s",
            lambda: CStore(data, levels=(CompressionLevel.MAX,)))
        self.rs = self.timed_step(
            "storage.load_rs_s",
            lambda: SystemX(data, designs=[DesignKind.TRADITIONAL],
                            writes=self.rs_writes))
        self.engines = [self.cs, self.rs]

    def open_service(self) -> QueryService:
        return QueryService(cstore=self.cs, system_x=self.rs,
                            config=ServiceConfig())

    def sessions(self, service: QueryService) -> Dict:
        return {
            "cs": service.session("cs", engine="cs", config=self.cs_config),
            "rs": service.session("rs", engine="rs",
                                  design=DesignKind.TRADITIONAL),
        }

    @staticmethod
    def note_service(phase: Phase, service: QueryService) -> None:
        """The service's own tallies and its cache's gauges, as they
        stand now."""
        snapshot = service.serve_stats()
        for name in ("completed", "engine_runs", "exact_hits",
                     "subsumption_hits"):
            phase.counts[name] = snapshot["service"][name]
        for name in ("bytes", "evictions", "invalidations",
                     "budget_bytes"):
            phase.counts[f"cache_{name}"] = snapshot["cache"][name]


class ServeSql(_Served):
    name = "serve_sql"
    why = ("one client sends a Zipf stream of parametrised SQL texts "
           "through QueryService: parse/bind, admission and the semantic "
           "cache do most of the work, engines only the misses")

    def setup(self) -> None:
        self.build_engines()
        space = streams.StatementSpace(self.data, self.seed)
        self.stream = space.stream(SERVE_STREAM_LENGTH, client=0)
        self.stream_summary = streams.describe(self.stream)
        streams.check_repeat_share(self.stream_summary)
        self.warm_up()

    def probe_texts(self) -> Sequence[str]:
        return [request.sql for request in self.stream]

    def warm_up(self) -> None:
        # a full round would fill the caches the measured rounds start
        # without; one fixed flight per engine touches every code path
        with self.open_service() as service:
            sessions = self.sessions(service)
            for engine in ("cs", "rs"):
                for name in sorted(SQL_TEXT):
                    sessions[engine].execute_sql(SQL_TEXT[name])

    def round(self, phase: Phase, first: bool) -> None:
        """The whole stream against a fresh service (an empty cache), so
        every round sees the same inputs in the same state."""
        sims: List[float] = []
        wall = 0.0
        with self.open_service() as service:
            sessions = self.sessions(service)
            for request in self.stream:
                run, seconds = self.call(
                    phase, request.template,
                    sessions[request.engine].execute_sql, request.sql)
                if run is None:
                    continue
                wall += seconds
                self.record_read(phase, first, (request.engine, request.sql),
                                 request.sql, run, seconds, sims)
            if first:
                self.note_service(phase, service)
        self.close_round(phase, wall, sims)


# ---------------------------------------------------------------------- #
class WriteMix(_Served):
    name = "write_mix"
    why = ("SQL INSERT/DELETE, merge reads over the pending delta, the "
           "tuple mover and recovery beside reads on both engines: a "
           "read-path gain that taxes writes, moves or recovery shows")

    cs_config = TICL_WRITES
    rs_writes = True

    def setup(self) -> None:
        self.build_engines()
        self.service = self.open_service()
        self._sessions = self.sessions(self.service)
        self._rows = random.Random(self.seed + 1)
        self.cycle = 0
        #: acknowledged statements in order, for the independent replay
        self.acked: List[Tuple] = []
        self.inserted_rows = 0
        self.warm_up()

    def warm_up(self) -> None:
        for engine in ("cs", "rs"):
            for name in sorted(SQL_TEXT):
                self._sessions[engine].execute_sql(SQL_TEXT[name])

    def _insert(self, phase: Phase, count: int) -> float:
        wall = 0.0
        for _ in range(count):
            sql = insert_sql(self.data.lineorder, self._rows)
            rows, seconds = self.call(phase, "insert",
                                      self.service.execute_sql, sql)
            if rows is None:
                continue
            wall += seconds
            phase.op_s["insert"].append(seconds)
            self.inserted_rows += rows
            self.acked.append(("insert", sql))
        return wall

    def _flights(self, phase: Phase, first: bool, stage: str,
                 sims: List[float], answers: Dict[str, List]) -> float:
        """One SQL flight per engine; ``stage`` is pre- or post-move."""
        wall = 0.0
        for engine, session in self._sessions.items():
            order = sorted(SQL_TEXT)
            self._order.shuffle(order)
            flight = 0.0
            for name in order:
                run, seconds = self.call(
                    phase, f"{engine}:{stage}:{name}", session.execute_sql,
                    SQL_TEXT[name])
                if run is None:
                    continue
                flight += seconds
                phase.op_s[f"read:{stage}"].append(seconds)
                self.record_read(
                    phase, first, (engine, stage, self.cycle, name),
                    SQL_TEXT[name], run, seconds, sims,
                    expected=answers[name])
            wall += flight
        return wall

    def journal_pages(self) -> int:
        """Pages both redo journals hold.  The SQL write path takes no
        caller ledger, so this is the one private attribute read here."""
        return sum(engine._writes.journal.num_pages
                   for engine in self.engines if engine._writes is not None)

    # -- one cycle ------------------------------------------------------ #
    def round(self, phase: Phase, first: bool) -> None:
        sims: List[float] = []
        pages_before = self.journal_pages()
        rows_before = self.inserted_rows
        wall = self._insert(phase, INSERTS_PER_CYCLE)

        delete_sql = (f"DELETE FROM lineorder "
                      f"WHERE quantity < {self.cycle + 2};")
        deleted, seconds = self.call(phase, "delete",
                                     self.service.execute_sql, delete_sql)
        if deleted is not None:
            wall += seconds
            phase.op_s["delete"].append(seconds)
            self.acked.append(("delete", delete_sql))

        # both engines hold the same logical rows; the oracle reads them
        # at this epoch, before the mover changes where they live
        tables = self.cs.snapshot_tables()
        answers = {query.name: reference_execute(tables, query).rows
                   for query in all_queries()}
        wall += self._flights(phase, first, "pre", sims, answers)

        dml_pages = self.journal_pages() - pages_before
        move_ledger = QueryStats()
        moved, seconds = self.call(phase, "move", self.service.move,
                                   move_ledger)
        if moved is not None:
            wall += seconds
            phase.op_s["move"].append(seconds)
            self.acked.append(("move", None))
        wall += self._flights(phase, first, "post", sims, answers)
        if first:
            phase.counts["journal_pages"] = \
                dml_pages + move_ledger.journal_pages
            # the mover's ledger already holds its own journal record
            phase.counts["bytes_written"] = \
                dml_pages * PAGE_SIZE + move_ledger.bytes_written
            phase.counts["inserted_rows"] = self.inserted_rows - rows_before
        self.cycle += 1
        self.close_round(phase, wall, sims)

    # -- after the last cycle ------------------------------------------- #
    def finish(self, phase: Phase) -> None:
        """Un-moved inserts, cold-start recovery, durability check."""
        self._insert(phase, TAIL_INSERTS)
        reports, seconds = self.call(phase, "recover", self.service.recover)
        if reports is not None:
            phase.op_s["recover"].append(seconds)
            phase.counts["journal_replay_pages"] = sum(
                report.replay_pages for report in reports.values())
        phase.counts["lost_acked_writes"] = self.lost_acked_writes()
        self.note_service(phase, self.service)
        self.service.close()

    def lost_acked_writes(self) -> int:
        """Rows on which a recovered engine differs from an independent
        replay of exactly the acknowledged statements."""
        replay = WriteStore(dict(self.data.tables))
        scratch = QueryStats()
        for op, sql in self.acked:
            if op == "insert":
                replay.insert(*bind_insert(parse_statement(sql)), scratch)
            elif op == "delete":
                replay.delete(*bind_delete(parse_statement(sql)), scratch)
            else:
                replay.complete_move(replay.effective_tables())
        expected = replay.effective_tables()
        lost = 0
        for engine in self.engines:
            recovered = engine.snapshot_tables()
            for name, table in expected.items():
                got = recovered[name]
                rows = min(table.num_rows, got.num_rows)
                differs = np.zeros(rows, dtype=bool)
                for column in table.columns():
                    theirs = got.column(column.name)
                    if column.dictionary != theirs.dictionary:
                        differs[:] = True
                        break
                    differs |= column.data[:rows] != theirs.data[:rows]
                lost += int(differs.sum()) \
                    + abs(table.num_rows - got.num_rows)
        return lost


WORKLOADS = {cls.name: cls for cls in
             (CsFlights, CsVariants, RsFlights, ServeSql, WriteMix)}

__all__ = ["WORKLOADS", "Workload", "Phase", "VARIANTS", "DESIGNS",
           "ROWS_PER_INSERT", "insert_sql"]
