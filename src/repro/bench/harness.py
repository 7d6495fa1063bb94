"""The benchmark harness: engines built once, queries run on demand.

The scale factor defaults to 0.05 (300 k fact rows) and can be overridden
with the ``REPRO_SF`` environment variable or the ``--sf`` CLI flag.
Engines are constructed lazily so that, e.g., a Figure 7 run never builds
the row store's index-only design.

All reported numbers are **simulated seconds on the paper's 2008
hardware**, computed by the shared cost model from the work each query
actually performed (see DESIGN.md).  Wall-clock time of the Python
execution is measured separately by the pytest-benchmark suites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..core.config import ExecutionConfig
from ..colstore.engine import CStore
from ..plan.logical import StarQuery
from ..reference import execute as reference_execute
from ..result import ResultSet
from ..rowstore.designs import DesignKind
from ..rowstore.engine import SystemX
from ..ssb.denormalize import denormalize, rewrite_query
from ..ssb.cache import load_or_generate
from ..ssb.generator import DEFAULT_SEED, SsbData
from ..ssb.queries import ALL_QUERIES
from ..ssb.schema import FACT_SORT_KEYS
from ..storage.colfile import CompressionLevel
from ..errors import BenchmarkError

DEFAULT_SCALE_FACTOR = 0.05


def scale_factor_from_env() -> float:
    """The benchmark scale factor (``REPRO_SF`` env var or default)."""
    raw = os.environ.get("REPRO_SF")
    if raw is None:
        return DEFAULT_SCALE_FACTOR
    try:
        value = float(raw)
    except ValueError:
        raise BenchmarkError(f"REPRO_SF must be a number, got {raw!r}")
    if value <= 0:
        raise BenchmarkError(f"REPRO_SF must be positive, got {value}")
    return value


@dataclass
class RunGrid:
    """A figure's worth of measurements: series label -> query -> seconds."""

    title: str
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def add(self, label: str, query: str, seconds: float) -> None:
        self.series.setdefault(label, {})[query] = seconds

    def validate_aligned(self) -> None:
        """Every series must cover the same query set — averaging ragged
        series silently skews a figure, so mismatches are a typed error."""
        labels = list(self.series)
        if not labels:
            return
        reference = set(self.series[labels[0]])
        for label in labels[1:]:
            got = set(self.series[label])
            if got == reference:
                continue
            missing = sorted(reference - got)
            extra = sorted(got - reference)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"extra {extra}")
            raise BenchmarkError(
                f"grid {self.title!r}: series {label!r} does not cover "
                f"the same queries as {labels[0]!r} ({'; '.join(detail)})")

    def averages(self) -> Dict[str, float]:
        self.validate_aligned()
        for label, values in self.series.items():
            if not values:
                raise BenchmarkError(
                    f"grid {self.title!r}: series {label!r} has no "
                    f"measurements to average")
        return {
            label: sum(values.values()) / len(values)
            for label, values in self.series.items()
        }

    def query_names(self) -> List[str]:
        if not self.series:
            raise BenchmarkError(
                f"grid {self.title!r} has no series; nothing was measured")
        first = next(iter(self.series.values()))
        return list(first)


class Harness:
    """Builds engines lazily and runs the paper's experiment grids."""

    def __init__(self, scale_factor: Optional[float] = None,
                 seed: int = DEFAULT_SEED,
                 verify_against_reference: bool = False,
                 fault_profile: Optional[str] = None,
                 fault_seed: int = 0,
                 zone_maps: bool = False,
                 writes: bool = False) -> None:
        self.scale_factor = (scale_factor if scale_factor is not None
                             else scale_factor_from_env())
        self.seed = seed
        self.verify = verify_against_reference
        #: consult zone-map synopses on both engines' scan paths (results
        #: are invariant; only pages touched and the skip counters move)
        self.zone_maps = zone_maps
        #: build write-capable engines and run column-store queries with
        #: MVCC snapshot reads opted in (see docs/writes.md).  With no
        #: pending delta, on/off ledgers are byte-identical.
        self.writes = writes
        #: optional seeded fault schedule installed on each engine's disk
        #: right after it is built (see :mod:`repro.simio.faults`);
        #: tables loaded later (e.g. denormalized ones) are not corrupted
        self.fault_profile = fault_profile
        self.fault_seed = fault_seed
        #: when set, every measured run emits one trace record (a span
        #: tree rendered to a plain dict, see :mod:`repro.obs`) to this
        #: callable — the CLI points it at a JSON-lines file
        self.trace_sink: Optional[Callable[[Dict], None]] = None
        #: stamped into trace records; drivers set it per figure
        self.trace_figure: str = ""
        self._data: Optional[SsbData] = None
        self._system_x: Optional[SystemX] = None
        self._built_designs: set = set()
        self._cstore: Optional[CStore] = None
        self._cstore_row_mv = False
        self._denorm_loaded = False

    # ------------------------------------------------------------------ #
    # lazy construction
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> SsbData:
        if self._data is None:
            # honours REPRO_CACHE_DIR for instant reloads at large scales
            self._data = load_or_generate(self.scale_factor, self.seed)
        return self._data

    def _install_faults(self, disk) -> None:
        if self.fault_profile is None:
            return
        from ..simio.faults import injector_from_profile

        injector_from_profile(self.fault_profile, self.fault_seed) \
            .install(disk)

    def system_x(self, designs: Sequence[DesignKind]) -> SystemX:
        if self._system_x is None:
            self._system_x = SystemX(self.data, designs=list(designs),
                                     zone_maps=self.zone_maps,
                                     writes=self.writes)
            self._built_designs = set(designs)
            self._install_faults(self._system_x.disk)
        else:
            for design in designs:
                if design not in self._built_designs:
                    self._system_x.add_design(design)
                    self._built_designs.add(design)
        return self._system_x

    def cstore(self, row_mv: bool = False) -> CStore:
        if self._cstore is None:
            self._cstore = CStore(self.data, row_mv=row_mv)
            self._cstore_row_mv = row_mv
            self._install_faults(self._cstore.disk)
        elif row_mv and not self._cstore_row_mv:
            for flight in (1, 2, 3, 4):
                self._cstore.load_row_mv(flight)
            self._cstore_row_mv = True
        return self._cstore

    def cstore_with_denorm(self) -> CStore:
        store = self.cstore()
        if not self._denorm_loaded:
            wide = denormalize(self.data)
            for level in CompressionLevel:
                store.load_table(wide, FACT_SORT_KEYS, level)
            self._denorm_loaded = True
        return store

    # ------------------------------------------------------------------ #
    # measured runs
    # ------------------------------------------------------------------ #
    def _check(self, query: StarQuery, result: ResultSet,
               tables: Optional[Dict] = None) -> None:
        if not self.verify:
            return
        oracle = reference_execute(tables or self.data.tables, query)
        if not result.same_rows(oracle):
            raise BenchmarkError(
                f"engine result for {query.name} deviates from the oracle"
            )

    def _emit_trace(self, run, engine: str, series: str,
                    query: str) -> None:
        if self.trace_sink is None or run.trace is None:
            return
        from ..obs import trace_record

        self.trace_sink(trace_record(
            run.trace, figure=self.trace_figure, series=series,
            query=query, engine=engine, scale_factor=self.scale_factor))

    def run_row_design(self, query: StarQuery, design: DesignKind,
                       prune_partitions: bool = True) -> float:
        engine = self.system_x([design])
        run = engine.execute(query, design, prune_partitions=prune_partitions)
        self._check(query, run.result)
        self._emit_trace(run, "rowstore", design.value, query.name)
        return run.seconds

    def run_column_config(self, query: StarQuery,
                          config: ExecutionConfig) -> float:
        if self.zone_maps and not config.zone_maps:
            config = replace(config, zone_maps=True)
        if self.writes and not config.writes:
            config = replace(config, writes=True)
        run = self.cstore().execute(query, config)
        self._check(query, run.result)
        self._emit_trace(run, "colstore", config.label, query.name)
        return run.seconds

    def run_row_mv(self, query: StarQuery) -> float:
        run = self.cstore(row_mv=True).execute_row_mv(query)
        self._check(query, run.result)
        self._emit_trace(run, "colstore", "row-mv", query.name)
        return run.seconds

    def run_denormalized(self, query: StarQuery,
                         level: CompressionLevel) -> float:
        store = self.cstore_with_denorm()
        rewritten = rewrite_query(query)
        config = ExecutionConfig.baseline()
        if self.zone_maps:
            config = replace(config, zone_maps=True)
        run = store.execute(rewritten, config, level=level)
        if self.verify:
            wide_tables = dict(self.data.tables)
            wide_tables[rewritten.fact_table] = denormalize(self.data)
            self._check(rewritten, run.result, tables=wide_tables)
        self._emit_trace(run, "colstore", f"denorm:{level.value}",
                         query.name)
        return run.seconds

    def queries(self) -> List[StarQuery]:
        return list(ALL_QUERIES)


__all__ = ["Harness", "RunGrid", "DEFAULT_SCALE_FACTOR",
           "scale_factor_from_env"]
