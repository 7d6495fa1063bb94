"""Committed baseline artifacts and the regression check against them.

A baseline is one figure's :class:`~repro.bench.harness.RunGrid` frozen
to JSON — **simulated** seconds, so the artifact is machine-independent
and byte-stable across hosts (unlike wall clock).  The workflow:

    python -m repro.bench figure7 --write-baseline baseline.json
    # ... later, after changes ...
    python -m repro.bench --check-baseline baseline.json

``check`` re-runs the figure at the artifact's scale factor and
settings and fails (exit 1) if any cell regresses by more than the
tolerance (default 2 %).  Coverage mismatches — a series or query in one
side but not the other — are a typed :class:`BenchmarkError`, never a
silent skip.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..errors import BenchmarkError
from .harness import RunGrid

#: Schema tag written into every baseline artifact.
BASELINE_SCHEMA = "repro-baseline-v1"

#: Allowed relative growth per cell before the check fails.
DEFAULT_TOLERANCE = 0.02


def baseline_record(grid: RunGrid, *, figure: str, scale_factor: float,
                    zone_maps: bool = False,
                    writes: bool = False) -> Dict:
    """The grid as a JSON-ready dict (stable key order)."""
    grid.validate_aligned()
    return {
        "schema": BASELINE_SCHEMA,
        "figure": figure,
        "scale_factor": scale_factor,
        "zone_maps": zone_maps,
        "writes": writes,
        "series": {
            label: {q: seconds for q, seconds in sorted(values.items())}
            for label, values in grid.series.items()
        },
    }


def write_baseline(path: str, grid: RunGrid, *, figure: str,
                   scale_factor: float, zone_maps: bool = False,
                   writes: bool = False) -> None:
    record = baseline_record(grid, figure=figure,
                             scale_factor=scale_factor,
                             zone_maps=zone_maps, writes=writes)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def load_baseline(path: str) -> Dict:
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise BenchmarkError(f"cannot read baseline {path!r}: {error}")
    if not isinstance(record, dict) or \
            record.get("schema") != BASELINE_SCHEMA:
        raise BenchmarkError(
            f"{path!r} is not a {BASELINE_SCHEMA} artifact "
            f"(schema tag: {record.get('schema') if isinstance(record, dict) else None!r})")
    for key in ("figure", "scale_factor", "series"):
        if key not in record:
            raise BenchmarkError(f"baseline {path!r} is missing {key!r}")
    # Older artifacts also carry a "workers" key; it is ignored (every
    # run is serial, and the simulated seconds never depended on it).
    # "zone_maps" is optional — pre-synopsis artifacts omit it and are
    # interpreted as zone-maps-off (which is what they measured), and
    # pre-write-store artifacts as writes-off (read-only, byte-identical
    # to a writes-enabled engine with no pending delta).  A "shards"
    # stamp of 1 (or none) was the one-stack run every engine makes
    # now; a larger one priced N storage stacks, which no run can
    # reproduce since sharding was retired.
    shards = record.get("shards", 1)
    if shards != 1:
        raise BenchmarkError(
            f"baseline {path!r} was measured at shards={shards}; sharding "
            f"was retired, so its simulated seconds cannot be re-run — "
            f"write a fresh baseline")
    return record


def check_against_baseline(grid: RunGrid, baseline: Dict,
                           tolerance: float = DEFAULT_TOLERANCE
                           ) -> List[str]:
    """Compare a fresh grid to a loaded baseline.

    Returns one message per regressed cell (empty list = pass).  A
    coverage mismatch raises :class:`BenchmarkError` — an absent
    measurement must never read as an improvement.
    """
    grid.validate_aligned()
    base_series = baseline["series"]
    if set(grid.series) != set(base_series):
        missing = sorted(set(base_series) - set(grid.series))
        extra = sorted(set(grid.series) - set(base_series))
        raise BenchmarkError(
            f"series mismatch vs baseline: missing {missing}, "
            f"extra {extra}")
    regressions: List[str] = []
    for label, base_values in base_series.items():
        fresh_values = grid.series[label]
        if set(fresh_values) != set(base_values):
            missing = sorted(set(base_values) - set(fresh_values))
            extra = sorted(set(fresh_values) - set(base_values))
            raise BenchmarkError(
                f"series {label!r}: query mismatch vs baseline "
                f"(missing {missing}, extra {extra})")
        for query, old in sorted(base_values.items()):
            new = fresh_values[query]
            if new > old * (1.0 + tolerance) + 1e-12:
                grew = (new - old) / old if old else float("inf")
                regressions.append(
                    f"{label}/{query}: {new:.6f}s vs baseline "
                    f"{old:.6f}s (+{grew:.1%}, tolerance "
                    f"{tolerance:.0%})")
    return regressions


__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_TOLERANCE",
    "baseline_record",
    "write_baseline",
    "load_baseline",
    "check_against_baseline",
]
