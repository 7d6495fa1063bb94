"""Closed-loop serving benchmark: N clients replaying SSBM flights.

``python -m repro.bench --serve`` spins up one :class:`QueryService`
and ``--clients`` closed-loop client threads.  Each client owns a
session and replays the 13 SSBM queries ``--serve-flights`` times in a
per-client seeded shuffle, so later flights re-ask questions earlier
flights answered — exactly the workload the semantic cache is for.

Two kinds of numbers come out and they must not be conflated:

* **simulated seconds** — the cost model pricing each query's ledger on
  the paper's 2008 hardware; deterministic, machine-independent, and
  the basis for the per-flight speedup the cache claims;
* **wall-clock latency/throughput** — how long the Python service
  actually took under concurrency; host-dependent, reported for shape
  (p50/p95/p99), never compared against the paper.

The report is written as a ``repro-serve-v1`` JSON artifact (see
``docs/serving.md`` for the schema).
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Dict, List, Optional

from ..errors import BenchmarkError
from ..rowstore.designs import DesignKind
from ..serve import QueryService, ServiceConfig
from ..ssb.queries import ALL_QUERIES
from .harness import Harness

#: Schema tag written into every serving artifact.
SERVE_SCHEMA = "repro-serve-v1"


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Implemented by hand so the artifact does not depend on numpy's
    percentile flavour of the day; matches ``numpy.percentile``'s
    default 'linear' method.
    """
    if not values:
        raise BenchmarkError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise BenchmarkError(f"percentile q must be in [0, 100], got {q}")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def _client_engine(engine: str, index: int) -> str:
    if engine in ("cs", "rs"):
        return engine
    # "both": alternate so the cache serves two scopes at once
    return "cs" if index % 2 == 0 else "rs"


def run_serve_bench(harness: Harness, *, clients: int = 8,
                    flights: int = 2, engine: str = "cs",
                    concurrency: int = 8, cache: bool = True,
                    seed: Optional[int] = None) -> Dict:
    """Run the closed-loop serving benchmark and return the artifact dict."""
    if clients < 1:
        raise BenchmarkError(f"--clients must be >= 1, got {clients}")
    if flights < 1:
        raise BenchmarkError(f"--serve-flights must be >= 1, got {flights}")
    if engine not in ("cs", "rs", "both"):
        raise BenchmarkError(f"unknown serve engine {engine!r} "
                             "(expected cs, rs, or both)")
    seed = harness.seed if seed is None else seed

    engines = {_client_engine(engine, i) for i in range(clients)}
    cstore = harness.cstore() if "cs" in engines else None
    system_x = harness.system_x([DesignKind.TRADITIONAL]) \
        if "rs" in engines else None
    service = QueryService(
        cstore=cstore, system_x=system_x,
        config=ServiceConfig(max_in_flight=concurrency, cache=cache))

    samples: List[Dict] = []
    samples_lock = threading.Lock()
    errors: List[BaseException] = []
    barrier = threading.Barrier(clients)

    def client(index: int) -> None:
        rng = random.Random(seed * 7919 + index)
        session = service.session(name=f"client-{index}",
                                 engine=_client_engine(engine, index))
        local: List[Dict] = []
        try:
            barrier.wait()
            for flight in range(flights):
                order = list(ALL_QUERIES)
                rng.shuffle(order)
                for query in order:
                    started = time.perf_counter()
                    run = session.execute(query)
                    local.append({
                        "client": index,
                        "flight": flight,
                        "query": query.name,
                        "engine": session.engine,
                        "source": run.source,
                        "simulated_seconds": run.seconds,
                        "wall_seconds": time.perf_counter() - started,
                    })
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            raise
        finally:
            with samples_lock:
                samples.extend(local)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(clients)]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_elapsed = time.perf_counter() - wall_started
    service.close()
    if errors:
        raise errors[0]

    return serve_record(samples, service.serve_stats(),
                        scale_factor=harness.scale_factor, clients=clients,
                        flights=flights, engine=engine,
                        concurrency=concurrency, cache=cache, seed=seed,
                        wall_elapsed=wall_elapsed)


def serve_record(samples: List[Dict], service_stats: Dict, *,
                 scale_factor: float, clients: int, flights: int,
                 engine: str, concurrency: int, cache: bool, seed: int,
                 wall_elapsed: float) -> Dict:
    """Assemble the ``repro-serve-v1`` artifact from raw samples."""
    if not samples:
        raise BenchmarkError("serving benchmark produced no samples")
    latencies = [s["wall_seconds"] for s in samples]
    per_flight = []
    for flight in range(flights):
        batch = [s for s in samples if s["flight"] == flight]
        sources = [s["source"] for s in batch]
        hits = sum(1 for s in sources if s.startswith("cache-"))
        per_flight.append({
            "flight": flight,
            "queries": len(batch),
            "simulated_seconds": sum(s["simulated_seconds"] for s in batch),
            "engine_runs": sum(1 for s in sources if s == "engine"),
            "exact_hits": sum(1 for s in sources if s == "cache-exact"),
            "hit_rate": hits / len(batch) if batch else 0.0,
        })
    return {
        "schema": SERVE_SCHEMA,
        "scale_factor": scale_factor,
        "clients": clients,
        "flights": flights,
        "engine": engine,
        "concurrency": concurrency,
        "cache": cache,
        "seed": seed,
        "queries_served": len(samples),
        "wall_seconds": wall_elapsed,
        "throughput_qps": len(samples) / wall_elapsed
        if wall_elapsed > 0 else 0.0,
        "latency_wall_ms": {
            "p50": percentile(latencies, 50) * 1e3,
            "p95": percentile(latencies, 95) * 1e3,
            "p99": percentile(latencies, 99) * 1e3,
            "mean": sum(latencies) / len(latencies) * 1e3,
            "max": max(latencies) * 1e3,
        },
        "simulated_seconds_total": sum(
            s["simulated_seconds"] for s in samples),
        "flights_detail": per_flight,
        "service": service_stats,
    }


def write_serve_artifact(path: str, record: Dict) -> None:
    if record.get("schema") != SERVE_SCHEMA:
        raise BenchmarkError(
            f"refusing to write a non-{SERVE_SCHEMA} record to {path!r}")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def load_serve_artifact(path: str) -> Dict:
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read serve artifact {path!r}: {exc}")
    if not isinstance(record, dict) or record.get("schema") != SERVE_SCHEMA:
        raise BenchmarkError(
            f"{path!r} is not a {SERVE_SCHEMA} artifact "
            f"(schema={record.get('schema')!r})"
            if isinstance(record, dict) else
            f"{path!r} is not a JSON object")
    return record


def render_serve(record: Dict) -> str:
    """A terminal summary of one serving artifact."""
    lines = [
        f"serving benchmark — {record['clients']} client(s) x "
        f"{record['flights']} flight(s), engine {record['engine']}, "
        f"concurrency {record['concurrency']}, "
        f"cache {'on' if record['cache'] else 'off'}",
        f"  {record['queries_served']} queries in "
        f"{record['wall_seconds']:.2f}s wall "
        f"({record['throughput_qps']:.1f} q/s)",
        f"  wall latency ms: p50 {record['latency_wall_ms']['p50']:.1f}  "
        f"p95 {record['latency_wall_ms']['p95']:.1f}  "
        f"p99 {record['latency_wall_ms']['p99']:.1f}",
        f"  simulated seconds total "
        f"{record['simulated_seconds_total']:.3f}",
    ]
    for flight in record["flights_detail"]:
        lines.append(
            f"  flight {flight['flight']}: "
            f"{flight['simulated_seconds']:.3f} simulated s, "
            f"{flight['engine_runs']} engine run(s), "
            f"{flight['exact_hits']} exact hit(s) "
            f"(hit rate {flight['hit_rate']:.0%})")
    return "\n".join(lines)


__all__ = [
    "SERVE_SCHEMA",
    "percentile",
    "run_serve_bench",
    "serve_record",
    "write_serve_artifact",
    "load_serve_artifact",
    "render_serve",
]
