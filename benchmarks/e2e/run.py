#!/usr/bin/env python3
"""Two-clock, five-workload end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload cs_flights --seed 7 \\
        --seconds 10 --trace 0

runs one workload in this process: set-up (three times, median
reported), whole rounds for ``--seconds`` of wall time, every answer
checked against ``repro.reference.execute``, every metric printed by
name with its unit, and one JSON object on the last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the time between an
untraced and a traced phase and reports the per-layer metrics.

Without ``--workload`` it runs every workload in a process of its own,
both ways.  ``--agree N`` repeats each workload N times and prints the
spread of every end-to-end metric against its bound; ``--smoke`` is a
one-round pass over all five at a tiny scale factor.

The metric and workload catalogue is ``BENCHMARK.json`` at the root of
the repository; see ``README.md`` beside this file for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import os

#: one compute thread per process, set before numpy loads its BLAS
THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

DEFAULT_SEED = 20080609
SMOKE_SCALE_FACTOR = 0.004
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = 3
#: calibration drift beyond which a run is marked noisy
NOISE_LIMIT = 0.10


def load_manifest() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(values: List[float], q: float) -> float:
    """``q``-th percentile (0..100), linear interpolation."""
    data = sorted(values)
    rank = q / 100.0 * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    """Median of any iterable; 0.0 when it is empty (a layer the
    workload never entered)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------- #
# one workload, in this process
# ---------------------------------------------------------------------- #
def end_to_end(workload, phase, setup_s: List[float]) -> Dict[str, float]:
    stored = sum(workload.stored_bytes().values())
    return {
        "setup_s": median(setup_s),
        "query_ms_p50": median(phase.read_ms),
        "query_ms_p95": percentile(phase.read_ms, 95),
        # a round is a fixed list of operations, so the median round is
        # the steady rate; one stalled round does not move it
        "queries_per_s": phase.reads_per_round / median(phase.round_s),
        "sim_s_per_query": median(phase.round_sim_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stored_bytes_per_user_byte": stored / workload.user_bytes(),
    }


def per_layer(workload, plain, traced, analysis, probed: Dict[str, float],
              calib_ms: float) -> Dict[str, float]:
    """Every per-layer metric.  ``plain`` is the untraced phase (ledger
    counts, flight times), ``traced`` the traced one, ``analysis`` its
    spans.  Self times are per traced round."""
    from workloads import DESIGNS, ROWS_PER_INSERT, VARIANTS

    rounds = traced.rounds
    ledger, counts = plain.ledger, plain.counts
    stored = workload.stored_bytes()

    def self_s(layer: str) -> float:
        return analysis.self_seconds(layer) / rounds

    out = {name: workload.setup_parts.get(name, 0.0) for name in (
        "ssb.generate_s", "storage.load_cs_s", "storage.load_rs_s",
        "shard.build_s")}
    out.update(probed)
    root_s = analysis.root_ns / 1e9
    page_requests = ledger.buffer_hits + ledger.pages_read
    out.update({
        "storage.decode_self_s": self_s("storage.decode"),
        "storage.decode_share":
            analysis.self_seconds("storage.decode") / root_s,
        "storage.blocks_decoded": analysis.calls("storage.decode") / rounds,
        "storage.read_block_self_s": self_s("storage.read_block"),
        "storage.heap_self_s": self_s("storage.heap"),
        "storage.cs_stored_bytes": stored["cs"],
        "storage.rs_stored_bytes": stored["rs"],
        "simio.read_page_self_s": self_s("simio.read_page"),
        "simio.pages_read": ledger.pages_read,
        "simio.bytes_read": ledger.bytes_read,
        "simio.seeks": ledger.seeks,
        "simio.buffer_hits": ledger.buffer_hits,
        "simio.pool_hit_rate":
            ledger.buffer_hits / page_requests if page_requests else 0.0,
        "simio.io_sim_s": plain.io_sim_s,
        "simio.cpu_sim_s": plain.cpu_sim_s,
        "simio.pool_bytes": workload.pool_bytes(),
        "colstore.execute_self_s": self_s("colstore.execute"),
        "colstore.plan_self_s": self_s("colstore.plan"),
        "colstore.scan_self_s": self_s("colstore.scan"),
        "colstore.fetch_self_s": self_s("colstore.fetch"),
        "colstore.aggregate_self_s": self_s("colstore.aggregate"),
        "colstore.materialize_self_s": self_s("colstore.materialize"),
        "colstore.values_decompressed": ledger.values_decompressed,
        "colstore.runs_processed": ledger.runs_processed,
        "colstore.position_ops": ledger.position_ops,
        "colstore.tuples_constructed": ledger.tuples_constructed,
        "core.invisible_join_self_s": self_s("core.invisible_join"),
        "shard.scatter_gather_self_s": self_s("shard.scatter_gather"),
        "shard.shards_eliminated": counts["shards_eliminated"],
        "synopsis.blocks_skipped": ledger.blocks_skipped,
        "synopsis.probes": ledger.synopsis_probes,
        "rowstore.execute_self_s": self_s("rowstore.execute"),
        "rowstore.plan_self_s": self_s("rowstore.plan"),
        "rowstore.operators_self_s": self_s("rowstore.operators"),
        "rowstore.iterator_calls": ledger.iterator_calls,
        "rowstore.hash_probes": ledger.hash_probes,
        "rowstore.tuple_bytes_scanned": ledger.tuple_bytes_scanned,
    })
    for metric in ("core.sim_phase1_s", "core.sim_phase2_s",
                   "core.sim_phase3_s", "core.sim_aggregate_s"):
        out[metric] = plain.span_sim_s[metric]
    for series in VARIANTS:
        out[f"variant.{series}.flight_s"] = median(plain.flight_s[series])
        out[f"variant.{series}.sim_flight_s"] = \
            median(plain.sim_flight_s[series])
    serial, two_workers = (out[f"variant.{s}.flight_s"]
                           for s in ("tIcL", "tIcL.w2"))
    out["parallel.speedup_w2"] = serial / two_workers if two_workers else 0.0
    for series in DESIGNS:
        out[f"design.{series}.flight_s"] = median(plain.flight_s[series])

    # serving: wall time a request spends outside the engine
    submits = analysis.per_request_ms("serve.submit")
    engine_ms = analysis.per_request_ms("colstore.execute",
                                        "rowstore.execute", longest=True)
    completed = counts["completed"]
    out.update({
        "serve.overhead_ms_p50": median(submits[r] - ms
                                        for r, ms in engine_ms.items()
                                        if r in submits),
        "serve.admission_wait_ms_p95":
            percentile(analysis.durations_ms("serve.admission"), 95)
            if analysis.calls("serve.admission") else 0.0,
        "serve.cache_lookup_us_p50": median(
            analysis.per_request_ms("serve.cache_lookup").values()) * 1e3,
        "serve.refilter_ms_p50":
            median(analysis.durations_ms("serve.refilter")),
        "serve.cache_admit_us_p50": median(
            analysis.per_request_ms("serve.cache_admit").values()) * 1e3,
        "serve.exact_hit_rate":
            counts["exact_hits"] / completed if completed else 0.0,
        "serve.subsumption_hit_rate":
            counts["subsumption_hits"] / completed if completed else 0.0,
    })
    # gauges as they stand when the last phase ends (serve_sql: after
    # its first round; write_mix: after recovery)
    out["serve.cache_bytes"] = traced.counts["cache_bytes"]
    out["serve.cache_evictions"] = traced.counts["cache_evictions"]
    out["serve.invalidations"] = traced.counts["cache_invalidations"]

    # writes
    post = median(plain.op_s["read:post"])
    inserted_bytes = counts["inserted_rows"] \
        * workload.data.lineorder.uncompressed_bytes() \
        / workload.data.lineorder.num_rows
    insert_s = sum(plain.op_s["insert"])
    out.update({
        "write.insert_self_s": self_s("write.insert"),
        "write.journal_append_us":
            median(analysis.durations_ms("write.journal_append")) * 1e3,
        "write.journal_pages": counts["journal_pages"],
        "write.bytes_written_per_user_byte":
            counts["bytes_written"] / inserted_bytes
            if inserted_bytes else 0.0,
        "write.merge_read_overhead_pct":
            (median(plain.op_s["read:pre"]) / post - 1.0) * 100.0
            if post else 0.0,
        "write.delta_rows_merged": ledger.delta_rows_merged,
        "write.move_cs_s": median(
            analysis.durations_ms("write.move", "CStore.move")) / 1e3,
        "write.move_rs_s": median(
            analysis.durations_ms("write.move", "SystemX.move")) / 1e3,
        "write.recover_cs_s": median(
            analysis.durations_ms("write.recover", "CStore.recover")) / 1e3,
        "write.recover_rs_s": median(
            analysis.durations_ms("write.recover", "SystemX.recover")) / 1e3,
        "write.journal_replay_pages": traced.counts["journal_replay_pages"],
        "insert_rows_per_s":
            len(plain.op_s["insert"]) * ROWS_PER_INSERT / insert_s
            if insert_s else 0.0,
        "move_s": median(plain.op_s["move"]),
        "recover_s": median(traced.op_s["recover"]),
        "calib_ms": calib_ms,
        "trace.overhead_pct":
            (median(traced.read_ms) / median(plain.read_ms) - 1.0) * 100.0,
    })
    return out


def run_workload(args) -> int:
    import numpy
    import probes
    from tracing import Analysis, Recorder
    from workloads import WORKLOADS, insert_sql

    manifest = load_manifest()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[group]}

    calib_before = probes.calibrate()
    setups = args.setups if args.setups else (1 if args.trace else SETUPS)
    setup_s: List[float] = []
    workload = None
    for _ in range(setups):
        # drop the previous set-up first: peak memory is one set-up's
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, args.sf)
        workload.setup()
        setup_s.append(time.perf_counter() - t0)

    probed: Dict[str, float] = {}
    if args.trace:
        probed.update(probes.codec_probe(workload.data.lineorder))
        probed.update(probes.sql_probe(
            workload.probe_texts(),
            insert_sql(workload.data.lineorder, random.Random(args.seed))))

    gc.collect()
    gc.freeze()
    share = args.seconds / 2 if args.trace else args.seconds
    phases = [workload.run_rounds(share)]
    analysis = None
    OUT.mkdir(exist_ok=True)
    if args.trace:
        recorder = Recorder()
        workload.tracer = recorder
        with recorder.installed():
            phases.append(workload.run_rounds(share))
            workload.finish(phases[-1])
        workload.tracer = None
        analysis = Analysis(recorder.spans)
        recorder.write_jsonl(OUT / f"{args.workload}.trace.jsonl")
    else:
        workload.finish(phases[-1])
    plain, last = phases[0], phases[-1]

    wrong = sum(workload.verify(phase) for phase in phases)
    attempted = sum(phase.attempted for phase in phases)
    errors = sum(phase.errors for phase in phases)
    lost = last.counts["lost_acked_writes"]
    failed = errors + wrong + lost
    problems = []
    if analysis is not None and analysis.closure_error() > 0.01:
        problems.append(
            f"trace self times miss the root spans by "
            f"{analysis.closure_error():.2%}")

    calib_after = probes.calibrate()
    if args.trace:
        values = per_layer(workload, plain, last, analysis, probed,
                           calib_before)
        values["error_rate"] = (errors + wrong) / attempted
        values["lost_acked_writes"] = lost
    else:
        values = end_to_end(workload, plain, setup_s)
    if set(values) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json {group}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}")

    drift = abs(calib_after / calib_before - 1.0)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_rev": git_rev(),
            "thread_pins": THREAD_PINS,
        },
        "scale_factor": workload.scale_factor,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setups_s": setup_s,
        "setup_parts_s": workload.setup_parts,
        "calib_ms": {"before": calib_before, "after": calib_after},
        "noisy": drift > NOISE_LIMIT,
        "rounds": [phase.rounds for phase in phases],
        "read_samples": [len(phase.read_ms) for phase in phases],
        "counts": {k: v for phase in phases for k, v in phase.counts.items()},
        "stream": getattr(workload, "stream_summary", None),
        "attempted": attempted,
        "errors": errors,
        "wrong_results": wrong,
        "lost_acked_writes": lost,
        "problems": problems,
        "metrics": {name: {"value": float(value), "unit": units.get(name, "")}
                    for name, value in values.items()},
    }
    suffix = "trace" if args.trace else "e2e"
    with open(OUT / f"{args.workload}.{suffix}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"# {args.workload}: sf {workload.scale_factor} seed {args.seed} "
          f"rounds {record['rounds']} read samples {record['read_samples']} "
          f"calib {calib_before:.2f}->{calib_after:.2f} ms"
          f"{' NOISY' if record['noisy'] else ''}")
    if record["stream"]:
        print(f"# stream: {record['stream']}")
    for name, metric in record["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------- #
# many workloads, one process each
# ---------------------------------------------------------------------- #
def child(workload: str, args, trace: int, echo: bool = True
          ) -> Optional[Dict]:
    """Run one workload in its own process (peak memory and caches are
    per workload); returns its result object plus a ``noisy`` flag, or
    None when it printed no result."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.sf is not None:
        command += ["--sf", str(args.sf)]
    if args.setups:
        command += ["--setups", str(args.setups)]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"FAILED: {workload} (exit {done.returncode}, no result)")
        return None
    if echo:
        print("\n".join(lines[:-1]))
    result["noisy"] = lines[0].endswith("NOISY")
    return result


def run_all(args) -> int:
    names = [w["name"] for w in load_manifest()["workloads"]]
    ok = True
    # the traced run has an untraced phase too, so a smoke pass needs
    # only that one to drive every code path of the benchmark
    for name in names:
        for trace in ((1,) if args.smoke else (0, 1)):
            result = child(name, args, trace)
            ok &= result is not None and result["correct"]
    print("all workloads correct" if ok else "FAILED")
    return 0 if ok else 1


def run_agree(args) -> int:
    """Repeat each workload; per end-to-end metric print the median, the
    quartiles and whether their distance stays inside the bound."""
    manifest = load_manifest()
    ok = True
    for spec in manifest["workloads"]:
        runs = []
        for _ in range(args.agree):
            result = child(spec["name"], args, trace=0, echo=False)
            if result is None or not result["correct"]:
                ok = False
            elif result["noisy"]:
                print(f"# {spec['name']}: discarded a noisy run")
            else:
                runs.append(result["metrics"])
        print(f"== {spec['name']}: {len(runs)} of {args.agree} runs kept")
        if len(runs) < 2:
            ok = False
            continue
        for metric in manifest["end_to_end"]:
            values = [run[metric["name"]]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            inside = spread <= metric["bound"]
            ok &= inside
            print(f"{metric['name']:28s} median {q2:>12.6g} "
                  f"{metric['unit']:6s} q1 {q1:>12.6g} q3 {q3:>12.6g} "
                  f"spread {spread:7.2%} bound {metric['bound']:.0%} "
                  f"{'ok' if inside else 'OUTSIDE'}"
                  f"{' exact' if len(set(values)) == 1 else ''}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this "
                        "process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall seconds of measured rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report per-layer metrics "
                        "from an untraced and a traced phase")
    parser.add_argument("--sf", type=float, default=None,
                        help="scale factor (default: the workload's own)")
    parser.add_argument("--setups", type=int, default=0,
                        help=f"set-ups per run (default {SETUPS}, 1 traced)")
    parser.add_argument("--agree", type=int, metavar="N",
                        help="run each workload N times, print spreads")
    parser.add_argument("--smoke", action="store_true",
                        help=f"all workloads, one round, sf "
                             f"{SMOKE_SCALE_FACTOR}")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        # the benchmark measures the program; it does not contain it
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.smoke:
        args.sf = SMOKE_SCALE_FACTOR if args.sf is None else args.sf
        args.seconds, args.setups = 0.0, 1
    if args.workload:
        return run_workload(args)
    if args.agree:
        return run_agree(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
