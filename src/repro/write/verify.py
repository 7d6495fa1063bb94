"""The durability verifier: ``python -m repro.write.verify``.

Drives both engines through a deterministic DML workload with one seeded
kill point armed, crashes, cold-starts, replays the redo journal, and
asserts the exactly-once contract:

* every **acknowledged** write is present after recovery;
* every **unacknowledged** write is absent;
* never a partial batch;
* :meth:`snapshot_tables` of the recovered engine is row-identical to an
  independent replay of exactly the acknowledged operations;
* all 13 SSB queries return rows identical to a never-crashed reference
  engine built at the same epoch.

Exit status 0 when every (engine × crash point) cycle holds, 1 with a
listing of violations otherwise.  ``--crash-profile`` picks a named
group of kill points (``journal``, ``move``, ``all``; see
``repro.simio.faults.CRASH_PROFILES``), ``--crash-point`` pins a single
one.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import ExecutionConfig
from ..plan.logical import ColumnRef, CompareOp, Comparison
from ..simio.faults import (CRASH_POINTS, CRASH_PROFILE_NOTES,
                            CRASH_PROFILES, CrashPolicy)
from ..simio.stats import QueryStats
from ..ssb.generator import SsbData, generate
from ..ssb.queries import all_queries
from .recovery import CrashHarness, RecoveryReport

#: Queries run row-identical against the never-crashed reference.
VERIFY_SF = 0.004


def _clone_rows(table, count: int) -> List[Dict]:
    """The first ``count`` rows of ``table`` as insert dicts (decoded
    strings), so every clone validates and every foreign key resolves."""
    rows = []
    for i in range(count):
        row = {}
        for col in table.columns():
            value = col.data[i]
            if col.dictionary is not None:
                row[col.name] = col.dictionary.decode(np.array([value]))[0]
            else:
                row[col.name] = int(value)
        rows.append(row)
    return rows


def _delete_predicates():
    return [Comparison(ColumnRef("lineorder", "quantity"),
                       CompareOp.LT, 3)]


def _drive_workload(harness: CrashHarness, rows: Sequence[Dict]) -> None:
    """Insert / delete / move / insert until done or the crash fires."""
    half = len(rows) // 2
    steps = [
        lambda: harness.insert("lineorder", rows[:half]),
        lambda: harness.insert("lineorder", rows[half:]),
        lambda: harness.delete("lineorder", _delete_predicates()),
        lambda: harness.move(),
        lambda: harness.insert("lineorder", rows[:2]),
    ]
    for step in steps:
        if step() is None and harness.crashed is not None:
            return


def _reference_engine(kind: str, data: SsbData, harness: CrashHarness):
    """A never-crashed engine at the recovered epoch: genesis data plus
    exactly the acknowledged operations, built fresh."""
    ref = harness.reference_store()
    eff = ref.effective_tables()
    ref_data = SsbData(
        scale_factor=data.scale_factor, seed=data.seed,
        lineorder=eff["lineorder"], customer=eff["customer"],
        supplier=eff["supplier"], part=eff["part"], date=eff["date"])
    if kind == "cs":
        from ..colstore.engine import CStore
        from ..storage.colfile import CompressionLevel

        return ref, CStore(ref_data, levels=(CompressionLevel.MAX,))
    from ..rowstore.designs import DesignKind
    from ..rowstore.engine import SystemX

    return ref, SystemX(ref_data, designs=(DesignKind.TRADITIONAL,))


def _execute(kind: str, engine, query):
    if kind == "cs":
        config = ExecutionConfig(writes=True)
        return engine.execute(query, config)
    from ..rowstore.designs import DesignKind

    return engine.execute(query, DesignKind.TRADITIONAL)


def verify_crash_point(kind: str, point: str, data: SsbData,
                       seed: int = 0) -> List[str]:
    """One crash → recover → verify cycle.  Returns violations (empty =
    the exactly-once contract held)."""
    problems: List[str] = []
    tag = f"[{kind} {point}]"
    # the workload passes each journal point several times (seed-drawn
    # arrival) but runs exactly one move, so move points pin arrival 1
    max_at = 1 if point in CRASH_PROFILES["move"] else 2
    harness = CrashHarness(
        data, kind=kind, seed=seed,
        crashes=[CrashPolicy(point, at=None, max_at=max_at)])
    rows = _clone_rows(data.lineorder, 8)
    _drive_workload(harness, rows)
    if harness.crashed is None:
        problems.append(f"{tag} kill point never fired (workload too "
                        f"short for its arrival draw)")
        return problems
    report = harness.crash_and_recover()
    ref, ref_engine = _reference_engine(kind, data, harness)

    # acked present / unacked absent / never partial: the recovered
    # snapshot must equal the acked-only replay, column for column
    recovered = harness.engine.snapshot_tables()
    expected = ref.effective_tables()
    for name in sorted(expected):
        for col in expected[name].columns():
            got = recovered[name].column(col.name).data
            if not np.array_equal(col.data, got):
                problems.append(
                    f"{tag} table {name}.{col.name} diverges from the "
                    f"acked-only replay ({len(col.data)} vs "
                    f"{len(got)} rows)")
                break
    if harness.engine._writes.epoch != ref.epoch:
        problems.append(
            f"{tag} recovered epoch {harness.engine._writes.epoch} != "
            f"reference epoch {ref.epoch}")

    # all 13 queries row-identical to the never-crashed reference
    for query in all_queries():
        run = _execute(kind, harness.engine, query)
        ref_run = _execute(kind, ref_engine, query)
        if run.result.rows != ref_run.result.rows:
            problems.append(f"{tag} query {query.name} diverges after "
                            f"recovery")
    if (not problems and harness.acked and report.records_scanned == 0
            and report.horizon == 0):
        problems.append(f"{tag} acked writes exist but recovery neither "
                        f"replayed a record nor started from a checkpoint")
    return problems


def verify_clean_start(kind: str, data: SsbData) -> List[str]:
    """A never-written engine must recover as a no-op with every new
    counter zero (the byte-identity guarantee for clean ledgers)."""
    problems: List[str] = []
    harness = CrashHarness(data, kind=kind)
    stats = QueryStats()
    report = harness.engine.recover(stats=stats)
    if not report.clean:
        problems.append(f"[{kind} clean] recovery was not a no-op: "
                        f"{report.render()}")
    for counter in ("journal_replay_pages", "recovered_batches",
                    "torn_tail_records"):
        if getattr(stats, counter):
            problems.append(f"[{kind} clean] {counter} nonzero on a "
                            f"clean start")
    run = _execute(kind, harness.engine, all_queries()[0])
    for counter in ("journal_replay_pages", "recovered_batches",
                    "torn_tail_records"):
        if getattr(run.stats, counter):
            problems.append(f"[{kind} clean] query ledger carries "
                            f"{counter} on a clean start")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.write.verify",
        description="Durability verifier: crash, cold-start, replay, "
                    "and assert exactly-once effects on both engines.")
    parser.add_argument("--sf", type=float, default=VERIFY_SF,
                        help=f"scale factor (default {VERIFY_SF})")
    parser.add_argument("--seed", type=int, default=0,
                        help="crash-schedule seed (default 0)")
    parser.add_argument("--engine", choices=("cs", "rs", "both"),
                        default="both")
    parser.add_argument("--crash-point", choices=CRASH_POINTS,
                        help="verify a single kill point")
    parser.add_argument("--crash-profile", default="all",
                        help="named kill-point group (journal|move|all), "
                             "or 'list' to enumerate")
    args = parser.parse_args(argv)

    if args.crash_profile == "list":
        for name in sorted(CRASH_PROFILES):
            print(f"{name:>8}: {CRASH_PROFILE_NOTES[name]}")
        return 0
    if args.crash_point:
        points = (args.crash_point,)
    else:
        if args.crash_profile not in CRASH_PROFILES:
            print(f"unknown crash profile {args.crash_profile!r}; "
                  f"choices are {sorted(CRASH_PROFILES)}", file=sys.stderr)
            return 2
        points = CRASH_PROFILES[args.crash_profile]
    kinds = ("cs", "rs") if args.engine == "both" else (args.engine,)

    data = generate(scale_factor=args.sf, seed=7)
    problems: List[str] = []
    for kind in kinds:
        clean = verify_clean_start(kind, data)
        problems.extend(clean)
        print(f"{kind}: clean start {'OK' if not clean else 'VIOLATED'}")
        for point in points:
            found = verify_crash_point(kind, point, data, seed=args.seed)
            problems.extend(found)
            print(f"{kind}: {point} "
                  f"{'OK' if not found else 'VIOLATED'}")
    if problems:
        print(f"\n{len(problems)} durability violations:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"\ndurability verified: {len(kinds)} engine(s) x "
          f"{len(points)} kill point(s), acked present / unacked absent "
          f"/ 13 queries row-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
