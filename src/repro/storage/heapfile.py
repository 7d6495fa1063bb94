"""Heap files: row-store tables on the simulated disk.

A heap file is a sequence of slotted pages in no guaranteed order (the
paper, Section 6.3.1: row-store heap order is only guaranteed through an
index).  Loading a :class:`~repro.storage.table.Table` writes real page
images; scans read them back through the buffer pool and return structured
record batches — the Volcano iterator layer above turns those into
tuple-at-a-time streams and charges per-tuple costs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import StorageError
from ..simio.buffer_pool import BufferPool
from ..simio.disk import SimulatedDisk
from ..synopsis import heap_synopsis_blob, sidecar_name, write_sidecar
from ..types import ROW_TUPLE_HEADER_BYTES, Schema
from .rowpage import RowFormat
from .table import Table


class HeapFile:
    """A row-oriented table stored as pages on the simulated disk."""

    def __init__(self, disk: SimulatedDisk, name: str, fmt: RowFormat,
                 num_rows: int) -> None:
        self.disk = disk
        self.name = name
        self.fmt = fmt
        self.num_rows = num_rows

    # ------------------------------------------------------------------ #
    # creation
    # ------------------------------------------------------------------ #
    @classmethod
    def load(
        cls,
        disk: SimulatedDisk,
        name: str,
        table: Table,
        header_bytes: int = ROW_TUPLE_HEADER_BYTES,
    ) -> "HeapFile":
        """Serialize ``table`` into a new heap file called ``name``."""
        fmt = RowFormat(table.schema, header_bytes=header_bytes)
        disk.create(name)
        records = fmt.build_records(table)
        for payload in fmt.pages_of(records):
            disk.append_page(name, payload)
        blob = heap_synopsis_blob(table, fmt)
        if blob is not None:
            write_sidecar(disk, sidecar_name(name), blob)
        return cls(disk, name, fmt, table.num_rows)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        return self.fmt.schema

    @property
    def num_pages(self) -> int:
        return self.disk.file(self.name).num_pages

    @property
    def size_bytes(self) -> int:
        """Occupied bytes (whole pages)."""
        return self.disk.file(self.name).size_bytes

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def scan_batches(self, pool: BufferPool) -> Iterator[np.ndarray]:
        """Sequentially scan all pages, yielding one record batch per page."""
        for payload in pool.scan_pages(self.name):
            yield self.fmt.parse_page(payload)

    def read_row(self, pool: BufferPool, row_id: int) -> np.void:
        """Random access to one record by rid (page/slot arithmetic)."""
        if not 0 <= row_id < self.num_rows:
            raise StorageError(
                f"rid {row_id} out of range for {self.name!r} ({self.num_rows} rows)"
            )
        page_no, slot = divmod(row_id, self.fmt.rows_per_page)
        batch = self.fmt.parse_page(pool.read_page(self.name, page_no))
        return batch[slot]

    def page_of_rid(self, row_id: int) -> int:
        """Page number holding ``row_id``."""
        return row_id // self.fmt.rows_per_page


__all__ = ["HeapFile"]
