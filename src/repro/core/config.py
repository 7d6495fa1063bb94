"""The C-Store ablation configuration (Figure 7's four-letter codes).

The paper encodes each configuration as four letters:

* ``t`` block iteration on / ``T`` tuple-at-a-time processing;
* ``I`` invisible join on / ``i`` off (falls back to the late
  materialized hash join);
* ``C`` compression on / ``c`` off (columns stored plain, strings at
  full CHAR width);
* ``L`` late materialization on / ``l`` off (tuples constructed at the
  start of the plan; forces row-style execution, which precludes the
  invisible join and direct operation on compressed data).

``CONFIG_LADDER`` lists the seven configurations measured in Figure 7 in
the paper's order: tICL, TICL, tiCL, TiCL, ticL, TicL, Ticl.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import PlanError


@dataclass(frozen=True)
class ExecutionConfig:
    """Which column-store optimizations are active."""

    block_iteration: bool = True
    invisible_join: bool = True
    compression: bool = True
    late_materialization: bool = True
    #: ablation-only switch: keep the invisible join but forbid its
    #: between-predicate rewriting (Section 5.4.2), forcing hash lookups
    between_rewriting: bool = True
    #: extension (off by default — the paper's C-Store scans): resolve
    #: range predicates on the projection's primary sort column by
    #: binary-searching block boundaries instead of scanning the column
    sorted_binary_search: bool = False
    #: Section 5.4 describes two predicate-application strategies: apply
    #: "in parallel and merge with fast bitmap operations", or pipeline
    #: one result into the next "to reduce the number of times the
    #: second predicate must be applied".  True (default) pipelines;
    #: False applies every predicate over the full column and ANDs.
    pipelined_predicates: bool = True
    #: inert: nothing reads it, and every value runs the one serial
    #: plan.  It stays settable (still checked ``>= 1``) only because
    #: the end-to-end benchmark's ``tIcL.w2`` series sets it; ROADMAP
    #: item 0(f) deletes the field together with that series.
    workers: int = 1
    #: extension (off by default — the paper's C-Store scans): consult
    #: per-block min/max synopses (zone maps) before reading, skipping
    #: blocks that cannot satisfy the predicate.  Not part of the
    #: four-letter label: it never changes results, only which pages a
    #: scan touches (see ``docs/synopses.md``).
    zone_maps: bool = False
    #: inert: nothing reads it, and every value runs on the engine's
    #: one storage stack.  It stays settable (still checked ``>= 1``)
    #: only because the end-to-end benchmark's ``tIcL.sh4`` series sets
    #: it; ROADMAP item 0(f) deletes the field together with that series.
    shards: int = 1
    #: MVCC snapshot reads over the write store's delta (see
    #: ``docs/writes.md``).  False (default) takes the unchanged
    #: read-only code path; a store with *pending* writes refuses the
    #: read-only path with a typed error rather than silently dropping
    #: the delta.  Not part of the four-letter label: with no pending
    #: writes, on/off are byte-identical.
    writes: bool = False
    #: automatic tuple-mover policy (requires ``writes``): run the
    #: engine's tuple mover before a query when the write store's net
    #: pending rows exceed this.  None (default) keeps moves manual —
    #: the unchanged code path.  Not part of the four-letter label: a
    #: move never changes results, only where rows live.
    move_threshold_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.invisible_join and not self.late_materialization:
            raise PlanError(
                "the invisible join requires late materialization "
                "(early materialization means row-style execution)"
            )
        if self.workers < 1:
            raise PlanError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise PlanError(f"shards must be >= 1, got {self.shards}")
        check_move_threshold(self.move_threshold_rows, self.writes)

    @property
    def label(self) -> str:
        """The paper's four-letter code, e.g. ``"tICL"``."""
        return "".join([
            "t" if self.block_iteration else "T",
            "I" if self.invisible_join else "i",
            "C" if self.compression else "c",
            "L" if self.late_materialization else "l",
        ])

    @classmethod
    def from_label(cls, label: str) -> "ExecutionConfig":
        """Parse a four-letter code like ``"TicL"``."""
        if len(label) != 4 or label[0] not in "tT" or label[1] not in "iI" \
                or label[2] not in "cC" or label[3] not in "lL":
            raise PlanError(f"bad configuration label {label!r}")
        return cls(
            block_iteration=label[0] == "t",
            invisible_join=label[1] == "I",
            compression=label[2] == "C",
            late_materialization=label[3] == "L",
        )

    @classmethod
    def baseline(cls) -> "ExecutionConfig":
        """Full C-Store: tICL."""
        return cls()

    @classmethod
    def row_store_like(cls) -> "ExecutionConfig":
        """Everything off: Ticl — "the column-store acts like a
        row-store" (Section 6.3.2)."""
        return cls(block_iteration=False, invisible_join=False,
                   compression=False, late_materialization=False)


def check_move_threshold(move_threshold_rows: Optional[int],
                         writes: bool) -> None:
    """Reject an automatic tuple-mover policy that could never run:
    a threshold below one row, or one set without ``writes`` (reads
    that refuse pending writes never consult it)."""
    if move_threshold_rows is None:
        return
    if move_threshold_rows < 1:
        raise PlanError(
            f"move_threshold_rows must be >= 1, got {move_threshold_rows}")
    if not writes:
        raise PlanError("move_threshold_rows requires writes=True")


#: Figure 7's seven configurations, most to least optimized.
CONFIG_LADDER: Tuple[ExecutionConfig, ...] = tuple(
    ExecutionConfig.from_label(code)
    for code in ("tICL", "TICL", "tiCL", "TiCL", "ticL", "TicL", "Ticl")
)


__all__ = ["ExecutionConfig", "CONFIG_LADDER"]
