"""On-disk caching of generated SSB databases.

Generation is deterministic in (scale factor, seed) but costs real time
at larger scales (sorting 60 M rows per projection adds up).  This module
persists a generated :class:`~repro.ssb.generator.SsbData` as one ``.npz``
of column arrays plus a JSON sidecar of dictionaries and metadata, and
loads it back bit-identically.

Use directly::

    from repro.ssb.cache import load_or_generate
    data = load_or_generate(0.2, cache_dir="~/.cache/repro")

or set ``REPRO_CACHE_DIR`` and the benchmark harness caches
automatically.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..errors import BenchmarkError, StorageError
from ..storage.column import Column, StringDictionary
from ..storage.table import SortOrder, Table
from ..types import ColumnType, TypeKind
from .generator import DEFAULT_SEED, SsbData, generate

_FORMAT_VERSION = 1


@dataclass
class CacheHealth:
    """Observable record of cache outcomes.

    A cached artifact that exists but cannot be decoded is **corruption**,
    not a miss — regeneration hides the broken file, so the event is
    counted here and warned about instead of being swallowed silently.

    Counters mutate under a lock: the serving layer loads datasets from
    concurrent client threads, and ``+=`` on a shared int is a lost
    update waiting to happen.
    """

    hits: int = 0
    misses: int = 0
    corruption_events: int = 0
    last_corruption: Optional[str] = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def record_corruption(self, path: Path, error: Exception) -> None:
        with self._lock:
            self.corruption_events += 1
            self.last_corruption = \
                f"{path}: {type(error).__name__}: {error}"
            message = self.last_corruption
        warnings.warn(
            f"cached SSB artifact is corrupt and will be regenerated "
            f"({message})",
            RuntimeWarning,
            stacklevel=3,
        )


#: Module-wide health record (the cache itself is module-level functions).
CACHE_HEALTH = CacheHealth()


def cache_key(scale_factor: float, seed: int) -> str:
    return f"ssb_v{_FORMAT_VERSION}_sf{scale_factor:g}_seed{seed}"


def save(data: SsbData, directory: Path) -> Path:
    """Persist ``data``; returns the .npz path."""
    directory = Path(directory).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    stem = directory / cache_key(data.scale_factor, data.seed)
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, object] = {
        "version": _FORMAT_VERSION,
        "scale_factor": data.scale_factor,
        "seed": data.seed,
        "tables": {},
    }
    for table_name, table in data.tables.items():
        columns_meta = []
        for column in table.columns():
            key = f"{table_name}.{column.name}"
            arrays[key] = column.data
            entry = {
                "name": column.name,
                "kind": column.ctype.kind.value,
                "width": column.ctype.width,
            }
            if column.dictionary is not None:
                entry["dictionary"] = column.dictionary.strings
            columns_meta.append(entry)
        meta["tables"][table_name] = {
            "columns": columns_meta,
            "sort_keys": list(table.sort_order.keys),
        }
    np.savez_compressed(str(stem) + ".npz", **arrays)
    (stem.parent / (stem.name + ".json")).write_text(json.dumps(meta))
    return Path(str(stem) + ".npz")


def load(scale_factor: float, seed: int, directory: Path
         ) -> Optional[SsbData]:
    """Load a cached database, or None when absent/unreadable."""
    directory = Path(directory).expanduser()
    stem = directory / cache_key(scale_factor, seed)
    npz_path = Path(str(stem) + ".npz")
    json_path = stem.parent / (stem.name + ".json")
    if not npz_path.exists() or not json_path.exists():
        CACHE_HEALTH.record_miss()
        return None
    try:
        meta = json.loads(json_path.read_text())
        if meta.get("version") != _FORMAT_VERSION:
            CACHE_HEALTH.record_miss()  # stale format, a legitimate miss
            return None
        archive = np.load(npz_path)
        tables: Dict[str, Table] = {}
        for table_name, table_meta in meta["tables"].items():
            columns = []
            for entry in table_meta["columns"]:
                data_arr = archive[f"{table_name}.{entry['name']}"]
                ctype = ColumnType(TypeKind(entry["kind"]), entry["width"])
                dictionary = None
                if "dictionary" in entry:
                    dictionary = StringDictionary.from_sorted_unique(
                        entry["dictionary"])
                columns.append(Column(entry["name"], ctype, data_arr,
                                      dictionary))
            tables[table_name] = Table(
                table_name, columns,
                SortOrder(tuple(table_meta["sort_keys"])))
        loaded = SsbData(
            scale_factor=meta["scale_factor"],
            seed=meta["seed"],
            lineorder=tables["lineorder"],
            customer=tables["customer"],
            supplier=tables["supplier"],
            part=tables["part"],
            date=tables["date"],
        )
    except Exception as error:  # any decode failure: zip, json, dtype, ...
        # The artifact exists but cannot be decoded: that is corruption,
        # not a miss.  Surface it (counter + warning) and fall back to
        # regeneration so callers keep working.
        CACHE_HEALTH.record_corruption(npz_path, error)
        return None
    CACHE_HEALTH.record_hit()
    return loaded


DEFAULT_SCALE_FACTOR = 0.05


def scale_factor_from_env() -> float:
    """The scale factor the tools run at (``REPRO_SF`` env var or default)."""
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


def load_or_generate(
    scale_factor: float,
    seed: int = DEFAULT_SEED,
    cache_dir: Optional[os.PathLike] = None,
) -> SsbData:
    """Load from the cache when possible; otherwise generate and cache.

    ``cache_dir`` defaults to the ``REPRO_CACHE_DIR`` environment
    variable; with neither set, this is plain generation.
    """
    if cache_dir is None:
        env = os.environ.get("REPRO_CACHE_DIR")
        if env:
            cache_dir = Path(env)
    if cache_dir is None:
        return generate(scale_factor, seed)
    cached = load(scale_factor, seed, Path(cache_dir))
    if cached is not None:
        return cached
    data = generate(scale_factor, seed)
    save(data, Path(cache_dir))
    return data


__all__ = ["save", "load", "load_or_generate", "cache_key",
           "CacheHealth", "CACHE_HEALTH"]
