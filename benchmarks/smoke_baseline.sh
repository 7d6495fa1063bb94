#!/usr/bin/env sh
# Smoke test for the baseline regression workflow: write a figure-5
# baseline at a tiny scale factor, then immediately re-check it.  The
# whole stack is deterministic, so the check must pass (exit 0); any
# nonzero exit here means either a real regression or broken plumbing.
#
# The cycle runs twice — zone maps off (the paper's configuration) and
# on — and then benchmarks/bench_zonemaps.py --check asserts the pruning
# contract: the on-mode never reads more pages than the off-mode, and
# the selective Q1.x scans read strictly fewer.
#
# Finally benchmarks/bench_resilience.py --check asserts the service
# resilience contract: under the persistent-corruption fault profile,
# circuit breakers keep availability at least as high as breakers-off,
# strictly cut the simulated seconds burned by failed queries, and
# serve exact repeats degraded with the healthy engine's rows; and a
# fault-free service ledger stays byte-identical to a direct engine
# call.
#
# benchmarks/bench_sharding.py --check asserts the scatter-gather
# contract: rows, merged ledgers, and traces identical at shards=4 vs
# shards=1, and shard elimination strictly reducing pages read on the
# Q1.x scans.  It runs at SF 0.01 (not the smoke SF): below that the
# fact shards are so small that the per-shard dimension replicas
# dominate the page counts and the strict win is not expected.
#
# benchmarks/bench_writes.py --check asserts the delta-store contract:
# read-only ledgers byte-identical with the write path present,
# pre-move merge reads row-identical to the reference over the
# effective tables, and post-move reads byte-identical in ledger to a
# cold rebuild.
#
# benchmarks/bench_recovery.py --check asserts the crash-recovery
# contract: every seeded kill point on both engines cold-starts to
# zero lost acked writes (recovered snapshot identical to an acked-only
# replay), and clean starts keep the replay counters all zero.
#
# benchmarks/e2e/run.py --smoke runs one round of all five end-to-end
# workloads at a tiny scale factor with the wall-clock tracer installed:
# every answer is checked against the reference engine and every
# per-layer metric must be present, so a refactor that loses one of the
# benchmark's patch points (or an API it calls) fails here.
#
# Usage:  sh benchmarks/smoke_baseline.sh  (from the repo root)
set -e

SF="${REPRO_SMOKE_SF:-0.004}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

for MODE in off on; do
    PYTHONPATH=src python -m repro.bench figure5 --sf "$SF" \
        --zone-maps "$MODE" \
        --write-baseline "$OUT/baseline-$MODE.json" \
        --trace-json "$OUT/traces-$MODE.jsonl" > /dev/null
    PYTHONPATH=src python -m repro.bench \
        --check-baseline "$OUT/baseline-$MODE.json"
done

PYTHONPATH=src python benchmarks/bench_zonemaps.py --check --sf "$SF"
PYTHONPATH=src python benchmarks/bench_resilience.py --check --sf "$SF"
PYTHONPATH=src python benchmarks/bench_sharding.py --check --sf 0.01
PYTHONPATH=src python benchmarks/bench_writes.py --check --sf 0.01
PYTHONPATH=src python benchmarks/bench_recovery.py --check --sf 0.01
PYTHONPATH=src python benchmarks/e2e/run.py --smoke
echo "smoke_baseline: OK (sf $SF, zone maps off+on, resilience," \
     "sharding, writes, recovery checks, e2e smoke)"
