"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.bench all
    python -m repro.bench figure7 --sf 0.1
    python -m repro.bench storage
    python -m repro.bench figure7 --trace-json traces.jsonl
    python -m repro.bench figure7 --write-baseline baseline.json
    python -m repro.bench --check-baseline baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

from . import figures
from .harness import Harness
from .paper_data import (
    PAPER_FIGURE5,
    PAPER_FIGURE6,
    PAPER_FIGURE7,
    PAPER_FIGURE8,
)
from .report import (
    render_bars,
    render_comparison,
    render_cost_breakdown,
    render_grid,
    render_storage,
)

_FIGURES: Dict[str, tuple] = {
    "figure5": (figures.figure5, PAPER_FIGURE5),
    "figure6": (figures.figure6, PAPER_FIGURE6),
    "figure7": (figures.figure7, PAPER_FIGURE7),
    "figure8": (figures.figure8, PAPER_FIGURE8),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables/figures of Abadi et al., "
                    "SIGMOD 2008.",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        choices=sorted(_FIGURES) + ["storage", "all", "report",
                                    "breakdown"],
        help="which experiment to run ('report' writes markdown; "
             "'breakdown' prices one query's ledger); optional with "
             "--check-baseline, which reads the figure from the artifact",
    )
    parser.add_argument("--query", default="Q2.1",
                        help="query for 'breakdown' (default Q2.1)")
    parser.add_argument("--config", default="tICL",
                        help="column-store config for 'breakdown'")
    parser.add_argument("--design", default="T",
                        help="row-store design for 'breakdown'")
    parser.add_argument("--sf", type=float, default=None,
                        help="scale factor (default: REPRO_SF env or 0.05)")
    parser.add_argument("--verify", action="store_true",
                        help="check every result against the oracle")
    parser.add_argument("--zone-maps", default=None, choices=["on", "off"],
                        help="consult per-block min/max synopses before "
                             "scans on both engines (default off; results "
                             "never change, only pages read — see "
                             "docs/synopses.md)")
    parser.add_argument("--writes", default=None, choices=["on", "off"],
                        help="build write-capable engines with MVCC "
                             "snapshot reads opted in (default off; with "
                             "no pending delta the ledgers are "
                             "byte-identical — see docs/writes.md)")
    parser.add_argument("--out", default=None,
                        help="output path for the 'report' target "
                             "(default: stdout)")
    parser.add_argument("--fault-profile", default=None,
                        help="inject faults from this seeded profile "
                             "(transient|bitflip|torn|mixed|persistent, "
                             "or 'list' to print them all); queries "
                             "retry, recover, or fail with typed errors")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for --fault-profile (default 0)")
    parser.add_argument("--trace-json", default=None, metavar="PATH",
                        help="write one JSON-lines trace record (per-phase "
                             "span tree, simulated seconds) per measured "
                             "query; schema in docs/observability.md")
    parser.add_argument("--serve", action="store_true",
                        help="run the closed-loop serving benchmark "
                             "instead of a figure: N clients replay "
                             "shuffled SSBM flights through the query "
                             "service and its semantic cache")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop clients for --serve (default 8)")
    parser.add_argument("--serve-engine", default="cs",
                        choices=["cs", "rs", "both"],
                        help="engine(s) the serving clients target "
                             "(default cs; 'both' alternates per client)")
    parser.add_argument("--serve-flights", type=int, default=2,
                        help="SSBM replays per client for --serve "
                             "(default 2 — the second flight exercises "
                             "the cache)")
    parser.add_argument("--serve-concurrency", type=int, default=8,
                        help="service admission limit for --serve "
                             "(default 8)")
    parser.add_argument("--no-serve-cache", action="store_true",
                        help="disable the semantic cache for --serve")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="after a single-figure run, freeze the grid "
                             "as a repro-baseline-v1 artifact")
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="re-run the artifact's figure at its scale "
                             "factor and exit 1 if any query "
                             "regresses by more than 2%% simulated seconds")
    args = parser.parse_args(argv)

    # informational exits: print to stdout, return 0 — scripts pipe these
    if args.fault_profile == "list":
        return _print_fault_profiles()

    if args.check_baseline:
        return _run_check_baseline(parser, args)
    if args.serve:
        return _run_serve(parser, args)
    if args.target is None:
        parser.error("a target is required unless --check-baseline "
                     "or --serve is given")
    if args.write_baseline and args.target not in _FIGURES:
        parser.error("--write-baseline needs a single figure target, "
                     f"got {args.target!r}")

    harness = Harness(scale_factor=args.sf,
                      verify_against_reference=args.verify,
                      fault_profile=args.fault_profile,
                      fault_seed=args.fault_seed,
                      zone_maps=args.zone_maps == "on",
                      writes=args.writes == "on")
    print(f"scale factor {harness.scale_factor} "
          f"({int(6_000_000 * harness.scale_factor)} fact rows), "
          f"seed {harness.seed}"
          + (", zone maps on" if harness.zone_maps else "")
          + (", writes on" if harness.writes else ""))

    if args.target == "breakdown":
        from ..core.config import ExecutionConfig
        from ..rowstore.designs import DesignKind
        from ..ssb import query_by_name

        query = query_by_name(args.query)
        config = ExecutionConfig.from_label(args.config)
        if harness.zone_maps:
            from dataclasses import replace

            config = replace(config, zone_maps=True)
        design = next(d for d in DesignKind if d.value == args.design)
        col_run = harness.cstore().execute(query, config)
        row_run = harness.system_x([design]).execute(query, design)
        print()
        print(render_cost_breakdown(
            col_run.stats, harness.cstore().cost_model,
            f"{args.query} on the column store [{config.label}]"))
        print()
        print(render_cost_breakdown(
            row_run.stats, harness.cstore().cost_model,
            f"{args.query} on the row store [{design.value}]"))
        return 0

    if args.target == "report":
        from .markdown import write_report

        document = write_report(harness)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(document)
            print(f"wrote {args.out}")
        else:
            print(document)
        return 0

    targets = sorted(_FIGURES) + ["storage"] if args.target == "all" \
        else [args.target]
    trace_file = open(args.trace_json, "w") if args.trace_json else None
    try:
        if trace_file is not None:
            harness.trace_sink = lambda record: trace_file.write(
                json.dumps(record) + "\n")
        for target in targets:
            started = time.time()
            if target == "storage":
                print()
                print(render_storage(figures.storage_report(harness)))
            else:
                driver, paper = _FIGURES[target]
                harness.trace_figure = target
                grid = driver(harness)
                print()
                print(render_grid(grid))
                print()
                print(render_bars(grid))
                print()
                print(render_comparison(grid, paper))
                if args.write_baseline and target == args.target:
                    from .baseline import write_baseline

                    write_baseline(args.write_baseline, grid,
                                   figure=target,
                                   scale_factor=harness.scale_factor,
                                   zone_maps=harness.zone_maps,
                                   writes=harness.writes)
                    print(f"\nwrote baseline {args.write_baseline}")
            print(f"\n[{target} regenerated in "
                  f"{time.time() - started:.1f}s wall clock]")
    finally:
        if trace_file is not None:
            trace_file.close()
            print(f"wrote traces to {args.trace_json}")
    return 0


def _print_fault_profiles() -> int:
    """``--fault-profile list``: an informational exit — stdout, code 0."""
    from ..simio.faults import PROFILES, PROFILE_NOTES

    for name in sorted(PROFILES):
        print(f"{name:12s} {PROFILE_NOTES.get(name, '')}")
    return 0


def _run_serve(parser: argparse.ArgumentParser, args) -> int:
    from .serve_bench import render_serve, run_serve_bench, \
        write_serve_artifact

    if args.target is not None:
        parser.error(f"--serve takes no figure target, got {args.target!r}")
    harness = Harness(scale_factor=args.sf,
                      fault_profile=args.fault_profile,
                      fault_seed=args.fault_seed,
                      zone_maps=args.zone_maps == "on",
                      writes=args.writes == "on")
    print(f"scale factor {harness.scale_factor} "
          f"({int(6_000_000 * harness.scale_factor)} fact rows), "
          f"seed {harness.seed}")
    started = time.time()
    record = run_serve_bench(
        harness, clients=args.clients, flights=args.serve_flights,
        engine=args.serve_engine, concurrency=args.serve_concurrency,
        cache=not args.no_serve_cache)
    print()
    print(render_serve(record))
    if args.out:
        write_serve_artifact(args.out, record)
        print(f"\nwrote {args.out}")
    print(f"\n[serve benchmark in {time.time() - started:.1f}s wall clock]")
    return 0


def _run_check_baseline(parser: argparse.ArgumentParser, args) -> int:
    from .baseline import check_against_baseline, load_baseline

    baseline = load_baseline(args.check_baseline)
    figure = baseline["figure"]
    if figure not in _FIGURES:
        parser.error(f"baseline names unknown figure {figure!r}")
    if args.target is not None and args.target != figure:
        parser.error(f"target {args.target!r} conflicts with the "
                     f"baseline's figure {figure!r}")
    if args.sf is not None and args.sf != baseline["scale_factor"]:
        parser.error(f"--sf {args.sf} conflicts with the baseline's "
                     f"scale factor {baseline['scale_factor']}")
    if args.zone_maps is not None and \
            (args.zone_maps == "on") != baseline.get("zone_maps", False):
        parser.error(f"--zone-maps {args.zone_maps} conflicts with the "
                     f"baseline's setting "
                     f"{baseline.get('zone_maps', False)}")
    # pre-write-store artifacts read as writes-off (same rule)
    baseline_writes = baseline.get("writes", False)
    if args.writes is not None and \
            (args.writes == "on") != baseline_writes:
        parser.error(f"--writes {args.writes} conflicts with the "
                     f"baseline's setting {baseline_writes}")
    harness = Harness(scale_factor=baseline["scale_factor"],
                      verify_against_reference=args.verify,
                      fault_profile=args.fault_profile,
                      fault_seed=args.fault_seed,
                      zone_maps=baseline.get("zone_maps", False),
                      writes=baseline_writes)
    print(f"checking {figure} against {args.check_baseline} "
          f"(sf {harness.scale_factor}"
          + (", zone maps on" if harness.zone_maps else "")
          + (", writes on" if harness.writes else "")
          + ")")
    grid = _FIGURES[figure][0](harness)
    regressions = check_against_baseline(grid, baseline)
    if regressions:
        print(f"\nBASELINE CHECK FAILED — {len(regressions)} "
              f"regressed cell(s):")
        for message in regressions:
            print(f"  {message}")
        return 1
    cells = sum(len(v) for v in grid.series.values())
    print(f"baseline check passed: {cells} cell(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
