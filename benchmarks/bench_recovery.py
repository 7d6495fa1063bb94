"""Crash-recovery soak: every kill point, both engines, one artifact.

One experiment, one artifact (``BENCH_recovery.json``): for each engine
and each seeded kill point the soak drives the deterministic DML
workload until the crash fires, discards all in-memory state, cold
starts from the simulated disk, replays the redo journal, and audits
the exactly-once contract:

* **zero lost acked writes** — the recovered snapshot is column-
  identical to an independent replay of exactly the acknowledged
  operations, at the same epoch (acked present / unacked absent / never
  partial);
* **clean starts are free** — a never-written engine recovers as a
  no-op with ``journal_replay_pages``, ``recovered_batches``, and
  ``torn_tail_records`` all zero (the byte-identity guarantee for every
  pre-existing ledger);
* **replay is bounded by one cycle** — every cell crashes once after a
  single write cycle and once after four (three history cycles that
  insert, delete and move rows first), and recovery reads the same
  number of journal pages both times: each durable move checkpoints the
  journal and drops the prefix it covers.

Replay cost is priced through the cost model (2008 hardware) from the
recovery ledger; the artifact records pages scanned, batches replayed,
torn-tail truncations, moves rolled forward, and simulated replay
seconds per (engine × kill point) cell, plus the pages replayed after
four cycles.

``--check`` runs the same soak at a tiny scale factor and exits nonzero
if any contract fails.  CI calls this via ``benchmarks/smoke_baseline.sh``
and the chaos lane.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py [--sf 0.05] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_recovery.py --check [--sf 0.01]
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.plan.logical import ColumnRef, CompareOp, Comparison
from repro.simio.faults import CRASH_POINTS, CRASH_PROFILES, CrashPolicy
from repro.simio.stats import QueryStats
from repro.ssb.cache import load_or_generate
from repro.write.recovery import CrashHarness
from repro.write.verify import _clone_rows, _drive_workload

#: seeds soaked per (engine × kill point) cell
SOAK_SEEDS = (0, 1, 2)

NEW_COUNTERS = ("journal_replay_pages", "recovered_batches",
                "torn_tail_records")

#: write cycles before the crash in the long run of each cell
LONG_CYCLES = 4

#: ``orderkey`` of the rows history cycles insert (no generated row has
#: it), so each cycle's delete removes exactly its own rows
HISTORY_KEY = 2 ** 31 - 1


def _snapshot_matches(harness: CrashHarness) -> bool:
    """Acked present / unacked absent / never partial: the recovered
    snapshot must equal the acked-only reference replay, column for
    column."""
    recovered = harness.engine.snapshot_tables()
    expected = harness.reference_store().effective_tables()
    for name in sorted(expected):
        for col in expected[name].columns():
            if not np.array_equal(col.data,
                                  recovered[name].column(col.name).data):
                return False
    return True


def _history(harness: CrashHarness, rows, cycles: int) -> None:
    """``cycles`` crash-free write cycles that leave the data as it was:
    insert tagged clones of ``rows``, delete them, move."""
    tagged = [dict(row, orderkey=HISTORY_KEY) for row in rows]
    tag = [Comparison(ColumnRef("lineorder", "orderkey"), CompareOp.EQ,
                      HISTORY_KEY)]
    for _ in range(cycles):
        harness.insert("lineorder", tagged)
        harness.delete("lineorder", tag)
        harness.move()


def crash_cycle(kind: str, point: str, data, seed: int, cycles: int,
                tag: str, problems: list):
    """``cycles - 1`` history cycles, then the workload with ``point``
    armed, a crash, a cold start and the audit.  Returns the harness,
    the recovery report and its ledger, or None if the point never
    fired."""
    # the workload passes each journal point several times (seed-drawn
    # arrival) but runs exactly one move, so move points pin arrival 1
    max_at = 1 if point in CRASH_PROFILES["move"] else 2
    harness = CrashHarness(data, kind=kind, seed=seed)
    rows = _clone_rows(data.lineorder, 8)
    _history(harness, rows, cycles - 1)
    harness.injector.crashes = (CrashPolicy(point, at=None, max_at=max_at),)
    _drive_workload(harness, rows)
    if harness.crashed is None:
        problems.append(f"{tag}: kill point never fired")
        return None
    stats = QueryStats()
    report = harness.crash_and_recover(stats=stats)
    if not _snapshot_matches(harness):
        problems.append(f"{tag}: recovered snapshot diverges from the "
                        f"acked-only replay (lost or phantom write)")
    ref_epoch = harness.reference_store().epoch
    if harness.engine._writes.epoch != ref_epoch:
        problems.append(f"{tag}: recovered epoch "
                        f"{harness.engine._writes.epoch} != reference "
                        f"epoch {ref_epoch}")
    return harness, report, stats


def soak_cell(kind: str, point: str, data, seed: int,
              problems: list) -> dict:
    """One crash → cold start → replay → audit cycle after one write
    cycle, and again after :data:`LONG_CYCLES`."""
    tag = f"{kind}/{point}/seed{seed}"
    first = crash_cycle(kind, point, data, seed, 1, tag, problems)
    long = crash_cycle(kind, point, data, seed, LONG_CYCLES,
                       f"{tag}/{LONG_CYCLES} cycles", problems)
    if first is None or long is None:
        return {"seed": seed, "fired": False}
    harness, report, stats = first
    long_pages = long[2].journal_replay_pages
    if long_pages != stats.journal_replay_pages:
        problems.append(f"{tag}: replay read {long_pages} journal pages "
                        f"after {LONG_CYCLES} cycles but "
                        f"{stats.journal_replay_pages} after one")
    return {
        "seed": seed,
        "fired": True,
        "acked_ops": len(harness.acked),
        "unacked_ops": len(harness.unacked),
        "records_scanned": report.records_scanned,
        "recovered_batches": report.recovered_batches,
        "moves_rolled_forward": report.moves_rolled_forward,
        "torn_tail_records": report.torn_tail_records,
        "journal_replay_pages": stats.journal_replay_pages,
        f"journal_replay_pages_{LONG_CYCLES}_cycles": long_pages,
        "io_retries": stats.io_retries,
        "replay_seconds": harness.engine.cost_model.seconds(stats),
    }


def clean_start_cell(kind: str, data, problems: list) -> dict:
    """A never-written engine must recover for free."""
    harness = CrashHarness(data, kind=kind)
    stats = QueryStats()
    report = harness.engine.recover(stats=stats)
    if not report.clean:
        problems.append(f"{kind}/clean: recovery was not a no-op: "
                        f"{report.render()}")
    for counter in NEW_COUNTERS:
        if getattr(stats, counter):
            problems.append(f"{kind}/clean: {counter} nonzero on a "
                            f"clean start")
    return {counter: getattr(stats, counter) for counter in NEW_COUNTERS}


def run_engine(kind: str, data, seeds, problems: list) -> dict:
    record = {"engine": kind,
              "clean_start": clean_start_cell(kind, data, problems),
              "crash_points": {}}
    for point in CRASH_POINTS:
        cells = [soak_cell(kind, point, data, seed, problems)
                 for seed in seeds]
        record["crash_points"][point] = cells
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=0.05,
                        help="scale factor (default 0.05)")
    parser.add_argument("--out", default="BENCH_recovery.json",
                        help="output path (default BENCH_recovery.json)")
    parser.add_argument("--check", action="store_true",
                        help="assert the durability contracts and exit "
                             "(no artifact written); meant for CI at a "
                             "small --sf")
    args = parser.parse_args(argv)

    print(f"generating SSB data at SF {args.sf} ...")
    data = load_or_generate(args.sf, seed=7)
    seeds = SOAK_SEEDS[:1] if args.check else SOAK_SEEDS
    problems: list = []
    engines = [run_engine("cs", data, seeds, problems),
               run_engine("rs", data, seeds, problems)]

    if args.check:
        if problems:
            print(f"RECOVERY CHECK FAILED — {len(problems)} problem(s):")
            for message in problems:
                print(f"  {message}")
            return 1
        cells = sum(len(c) for e in engines
                    for c in e["crash_points"].values())
        print(f"recovery check passed: {cells} crash cell(s) across "
              f"{len(CRASH_POINTS)} kill points x 2 engines; zero lost "
              f"acked writes, clean-start counters all zero, replay "
              f"pages equal after 1 and {LONG_CYCLES} cycles")
        return 0

    report = {
        "scale_factor": args.sf,
        "soak_seeds": list(seeds),
        "crash_points": list(CRASH_POINTS),
        "engines": engines,
        "guarantees_hold": not problems,
        "problems": problems,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"\n{'engine':7s} {'kill point':30s} {'scan':>5s} {'replay':>7s} "
          f"{'torn':>5s} {'moves':>6s} {'pages':>6s} "
          f"{f'@{LONG_CYCLES}':>5s} {'replay ms':>10s}")
    for cell in engines:
        for point, runs in cell["crash_points"].items():
            fired = [r for r in runs if r.get("fired")]
            if not fired:
                continue
            mean = lambda key: sum(r[key] for r in fired) / len(fired)
            print(f"{cell['engine']:7s} {point:30s} "
                  f"{mean('records_scanned'):5.1f} "
                  f"{mean('recovered_batches'):7.1f} "
                  f"{mean('torn_tail_records'):5.1f} "
                  f"{mean('moves_rolled_forward'):6.1f} "
                  f"{mean('journal_replay_pages'):6.1f} "
                  f"{mean(f'journal_replay_pages_{LONG_CYCLES}_cycles'):5.1f} "
                  f"{mean('replay_seconds') * 1000:10.2f}")
    if problems:
        print(f"\nWARNING — {len(problems)} guarantee violation(s):")
        for message in problems:
            print(f"  {message}")
    print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
