"""Chaos soak for the service resilience layer: breakers, shedding,
degraded serving.

Grid mode crosses named fault profiles with client counts and the
resilience layer on/off, runs a discount-heavy workload through a
:class:`QueryService` per cell, and writes ``BENCH_resilience.json``
with availability, p99 latency, shed rate, degraded-hit and breaker
counts and the simulated seconds failed queries burned, per cell.

``--check`` runs the deterministic single-client scenario under the
``persistent`` profile (a dead region in every discount column) and
exits nonzero unless, versus the resilience-off run, the breaker opens,
serves at least one exact repeat degraded with the healthy engine's
rows, keeps availability at least as high, and *strictly* cuts the
simulated seconds burned by failed queries (an open breaker refuses
before any page is read); the off run must show no resilience
activity, and a fault-free service run must stay byte-identical to a
direct engine call with every resilience counter at zero.  Both cells
serve exact repeats from the result cache, so a breaker cannot raise
availability above breakers-off; what it buys is not re-running work
that is bound to fail.

``--fault-profile list`` prints the named profiles and exits.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--sf 0.004] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_resilience.py --check [--sf 0.004]
    PYTHONPATH=src python benchmarks/bench_resilience.py --fault-profile list
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import threading

import numpy as np

from repro.bench.harness import Harness
from repro.core.config import ExecutionConfig
from repro.errors import ReproError
from repro.plan.logical import AggExpr, ColumnRef, Comparison, CompareOp, \
    StarQuery
from repro.serve.service import QueryService, ServiceConfig
from repro.simio.faults import PROFILES, PROFILE_NOTES, \
    injector_from_profile

#: fault profiles exercised by the soak grid (``--check`` uses only the
#: persistent one, the scenario breakers exist for)
SOAK_PROFILES = ("transient", "persistent")
SOAK_CLIENTS = (1, 4)

#: orderdate cut points chosen against the SF 0.004 projection geometry
#: (8186 values per uncompressed 32 KB page): ``V_MID``/``V_A`` keep
#: surviving positions spanning into discount page 1 (the dead region),
#: ``V_B`` keeps them inside clean page 0
V_MID = 19950510
V_A = 19941005
V_B = 19930825


def _lo(column: str) -> ColumnRef:
    return ColumnRef("lineorder", column)


def _query(name: str, predicates) -> StarQuery:
    return StarQuery(
        name=name, fact_table="lineorder", joins={},
        predicates=tuple(predicates), group_by=(),
        aggregates=(AggExpr("sum", _lo("extendedprice"), "revenue"),))


def build_workload() -> list:
    """The deterministic scenario: one healthy broad query, three probes
    that trip the breaker, one variant that was never cached and whose
    run needs the dead region, and six variants cached before the fault
    (see :func:`warm_set`)."""
    broad = _query("broad", [
        Comparison(_lo("orderdate"), CompareOp.LE, V_MID)])
    probes = [_query(f"probe{k}", [
        Comparison(_lo("discount"), CompareOp.GE, k)]) for k in (1, 2, 3)]
    var_a = _query("varA", [
        Comparison(_lo("orderdate"), CompareOp.LE, V_A),
        Comparison(_lo("discount"), CompareOp.GE, 4)])
    var_b = [_query(f"varB{k}", [
        Comparison(_lo("orderdate"), CompareOp.LE, V_B),
        Comparison(_lo("discount"), CompareOp.GE, k)])
        for k in (1, 2, 3, 4, 5, 6)]
    return [broad] + probes + [var_a] + var_b


def warm_set(workload: list) -> list:
    """The queries answered pre-fault, so their results are cached: the
    broad query and the six ``varB`` variants."""
    return [q for q in workload
            if q.name == "broad" or q.name.startswith("varB")]


def session_config() -> ExecutionConfig:
    """Compression off (one value per 4 bytes, so the dead region is a
    fixed position range) and parallel-AND predicates (every predicate
    column is scanned in full, Section 5.4 ablation) — every engine run
    of a discount query touches the dead region."""
    return dataclasses.replace(ExecutionConfig.baseline(),
                               compression=False,
                               pipelined_predicates=False)


def service_config(resilience: bool, clients: int = 1) -> ServiceConfig:
    return ServiceConfig(
        max_in_flight=2 if clients > 1 else 4,
        cache_admit_seconds=0.0,
        breakers=resilience,
        # far beyond the workload's simulated seconds: the breaker must
        # stay open for the whole scenario, no half-open trials
        breaker_cooldown=1000.0,
        shed_threshold=0.5 if (resilience and clients > 1) else None,
    )


def run_cell(scale_factor: float, profile: str, clients: int,
             resilience: bool, seed: int, rounds: int = 1) -> dict:
    """One soak cell: ``clients`` threads replaying the workload against
    a freshly corrupted store, resilience layer on or off."""
    harness = Harness(scale_factor=scale_factor)
    store = harness.cstore()
    service = QueryService(cstore=store,
                           config=service_config(resilience, clients))
    config = session_config()
    sessions = [
        service.session(f"client{i}", engine="cs", config=config,
                        priority=1 if i == 0 else 0)
        for i in range(clients)
    ]
    workload = build_workload()

    # the warm set is cached pre-fault, so degraded serving has exact
    # repeats to answer
    for query in warm_set(workload):
        sessions[0].execute(query)
    injector_from_profile(profile, seed=seed).install(store.disk)

    lock = threading.Lock()
    outcomes: list = []

    def client(session) -> None:
        for _ in range(rounds):
            for query in workload[1:]:
                try:
                    run = session.execute(query)
                    record = ("ok", query.name, run.source, run.degraded,
                              run.wall_seconds, 0.0)
                except ReproError as error:
                    burned = service.cost_model.cost(
                        error.stats).total_seconds
                    record = ("err", query.name, type(error).__name__,
                              False, 0.0, burned)
                with lock:
                    outcomes.append(record)

    threads = [threading.Thread(target=client, args=(s,))
               for s in sessions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    snap = service.stats.snapshot()
    walls = [o[4] for o in outcomes if o[0] == "ok"] or [0.0]
    total = len(outcomes)
    ok = sum(1 for o in outcomes if o[0] == "ok")
    return {
        "profile": profile,
        "clients": clients,
        "resilience": resilience,
        "queries": total,
        "ok": ok,
        "errors": total - ok,
        "availability": ok / total if total else 1.0,
        "error_rate": (total - ok) / total if total else 0.0,
        "p99_wall_seconds": float(np.percentile(walls, 99)),
        "failed_sim_seconds": sum(o[5] for o in outcomes),
        "shed": snap["shed"],
        "shed_rate": snap["shed"] / total if total else 0.0,
        "degraded_hits": snap["degraded_hits"],
        "breaker_opens": snap["breaker_opens"],
        "breaker_rejections": snap["breaker_rejections"],
        "breaker_states": service.serve_stats()["resilience"]["breakers"],
        "outcomes": [
            {"status": o[0], "query": o[1], "detail": o[2],
             "degraded": bool(o[3])}
            for o in outcomes
        ],
    }


# ---------------------------------------------------------------------- #
# --check: the resilience contract
# ---------------------------------------------------------------------- #
def check(scale_factor: float, seed: int) -> list:
    """Violated guarantees (empty list = pass)."""
    problems = []

    # healthy reference rows for every workload query
    healthy = Harness(scale_factor=scale_factor)
    store = healthy.cstore()
    config = session_config()
    expected = {q.name: store.execute(q, config).result
                for q in build_workload()}

    cells = {
        resilience: run_cell(scale_factor, "persistent", clients=1,
                             resilience=resilience, seed=seed)
        for resilience in (False, True)
    }
    off, on = cells[False], cells[True]

    if on["availability"] < off["availability"]:
        problems.append(
            f"resilience lowered availability: "
            f"{on['availability']:.3f} (on) vs "
            f"{off['availability']:.3f} (off)")
    if on["failed_sim_seconds"] >= off["failed_sim_seconds"]:
        problems.append(
            f"resilience did not strictly cut the simulated seconds "
            f"failed queries burned: {on['failed_sim_seconds']:.6f} (on) "
            f"vs {off['failed_sim_seconds']:.6f} (off)")
    if on["breaker_opens"] < 1:
        problems.append("the persistent profile never opened a breaker")
    if on["degraded_hits"] < 1:
        problems.append("no query was served degraded from the cache")
    if off["degraded_hits"] or off["breaker_opens"] or off["shed"]:
        problems.append(
            "the resilience-off cell shows breaker/degraded/shed activity")

    # degraded answers must be honest: same rows the healthy engine gives
    harness = Harness(scale_factor=scale_factor)
    store = harness.cstore()
    service = QueryService(cstore=store,
                           config=service_config(resilience=True))
    session = service.session("client", engine="cs", config=config)
    workload = build_workload()
    for query in warm_set(workload):
        session.execute(query)
    injector_from_profile("persistent", seed=seed).install(store.disk)
    for query in workload[1:]:
        try:
            run = session.execute(query)
        except ReproError:
            continue
        if not run.degraded:
            continue
        if not run.result.same_rows(expected[query.name]):
            problems.append(
                f"degraded answer for {query.name} differs from the "
                f"healthy engine's rows — degraded serving is dishonest")

    # fault-free honesty: with the cache off, a service ledger must stay
    # byte-identical to a direct engine call, resilience layer and all
    harness = Harness(scale_factor=scale_factor)
    store = harness.cstore()
    query = build_workload()[0]
    direct = store.execute(query, config)
    service = QueryService(
        cstore=store,
        config=dataclasses.replace(service_config(resilience=True),
                                   cache=False))
    session = service.session("client", engine="cs", config=config)
    run = session.execute(query)
    if run.stats.snapshot() != direct.stats.snapshot():
        problems.append(
            "fault-free service ledger is not byte-identical to a "
            "direct engine call")
    snap = service.stats.snapshot()
    for counter in ("shed", "cancelled", "degraded_hits", "breaker_opens",
                    "breaker_half_opens", "breaker_closes",
                    "breaker_rejections"):
        if snap[counter]:
            problems.append(
                f"fault-free run left resilience counter "
                f"{counter}={snap[counter]} (expected 0)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=0.004,
                        help="scale factor (default 0.004; the scenario's "
                             "page geometry is tuned for it)")
    parser.add_argument("--out", default="BENCH_resilience.json",
                        help="output path (default BENCH_resilience.json)")
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-injection seed (default 7)")
    parser.add_argument("--fault-profile", default=None,
                        help="soak only this profile, or 'list' to print "
                             "the named profiles and exit")
    parser.add_argument("--check", action="store_true",
                        help="assert the resilience contract and exit "
                             "(no artifact written); meant for CI")
    args = parser.parse_args(argv)

    if args.fault_profile == "list":
        for name in sorted(PROFILES):
            print(f"{name:12s} {PROFILE_NOTES.get(name, '')}")
        return 0
    if args.fault_profile is not None and args.fault_profile not in PROFILES:
        raise SystemExit(
            f"unknown fault profile {args.fault_profile!r}; choices are "
            f"{sorted(PROFILES)} (or 'list')")

    if args.check:
        problems = check(args.sf, args.seed)
        if problems:
            print(f"RESILIENCE CHECK FAILED — {len(problems)} problem(s):")
            for message in problems:
                print(f"  {message}")
            return 1
        print("resilience check passed: under persistent corruption the "
              "breaker opened, kept availability, strictly cut the "
              "simulated seconds failed queries burned, and served exact "
              "repeats degraded with the healthy rows; the fault-free "
              "ledger stayed byte-identical")
        return 0

    profiles = (args.fault_profile,) if args.fault_profile \
        else SOAK_PROFILES
    cells = []
    for profile in profiles:
        for clients in SOAK_CLIENTS:
            for resilience in (False, True):
                print(f"soak: profile={profile} clients={clients} "
                      f"resilience={'on' if resilience else 'off'} ...")
                cells.append(run_cell(args.sf, profile, clients,
                                      resilience, args.seed))
    report = {
        "schema": "repro-resilience-v1",
        "scale_factor": args.sf,
        "seed": args.seed,
        "cells": [
            {k: v for k, v in cell.items() if k != "outcomes"}
            for cell in cells
        ],
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"\n{'profile':11s} {'cl':>2s} {'resil':5s} {'avail':>6s} "
          f"{'errors':>6s} {'shed':>4s} {'degr':>4s} {'p99':>9s} "
          f"{'failed sim':>11s}")
    for cell in report["cells"]:
        print(f"{cell['profile']:11s} {cell['clients']:2d} "
              f"{'on' if cell['resilience'] else 'off':5s} "
              f"{cell['availability']:6.3f} {cell['errors']:6d} "
              f"{cell['shed']:4d} {cell['degraded_hits']:4d} "
              f"{cell['p99_wall_seconds']:8.4f}s "
              f"{cell['failed_sim_seconds']:10.5f}s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
