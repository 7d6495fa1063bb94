"""Row-store page format: fixed-width tuples with per-tuple headers.

System X (like any commercial row store) stores each tuple with a header —
the paper measures "about 8 bytes of overhead per row" (Section 6.2) — and
stores CHAR(n) fields expanded to their full width.  This module lays
tables out exactly that way:

* each record is ``8-byte header | field bytes...`` at the schema's
  declared widths (string dictionary codes are expanded back to bytes);
* records are packed densely into 32 KB pages, ``rows_per_page`` per page;
* pages deserialize back to numpy structured arrays, so scans recover the
  real stored values.

The header is not decorative: it is real bytes on the simulated disk, so
the tuple-overhead penalty of the vertical-partitioning design (Figure 6)
emerges from honest byte counts.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

import numpy as np

from ..errors import PageFormatError
from ..simio.disk import PAGE_SIZE
from ..types import ROW_TUPLE_HEADER_BYTES, Schema, TypeKind
from .table import Table

#: Name of the synthetic header field inside the structured dtype.
HEADER_FIELD = "_header"


class RowFormat:
    """The physical record layout for one schema.

    Exposes the numpy structured dtype used to (de)serialize pages and the
    derived geometry (record width, rows per page).
    """

    def __init__(self, schema: Schema, header_bytes: int = ROW_TUPLE_HEADER_BYTES
                 ) -> None:
        if header_bytes not in (0, 4, 8):
            raise PageFormatError(f"unsupported header size {header_bytes}")
        self.schema = schema
        self.header_bytes = header_bytes
        parts: List[Tuple[str, str]] = []
        if header_bytes:
            parts.append((HEADER_FIELD, f"V{header_bytes}"))
        for field in schema:
            if field.ctype.kind is TypeKind.INT32:
                parts.append((field.name, "<i4"))
            elif field.ctype.kind is TypeKind.INT64:
                parts.append((field.name, "<i8"))
            else:
                parts.append((field.name, f"S{field.ctype.width}"))
        self.dtype = np.dtype(parts)
        self.record_width = self.dtype.itemsize
        self.rows_per_page = PAGE_SIZE // self.record_width
        if self.rows_per_page == 0:
            raise PageFormatError(
                f"record of {self.record_width} bytes does not fit a page"
            )

    def build_records(self, table: Table) -> np.ndarray:
        """Serialize a whole table into one structured array (load path)."""
        n = table.num_rows
        records = np.zeros(n, dtype=self.dtype)
        for field in self.schema:
            col = table.column(field.name)
            if col.dictionary is not None:
                records[field.name] = self.stored_strings(col)[col.data]
            else:
                records[field.name] = col.data
        return records

    def stored_strings(self, column) -> np.ndarray:
        """A string column's dictionary as the CHAR(n) bytes its records
        store, indexed by code (so in sorted order: truncation to the
        field's width keeps it)."""
        return np.asarray(column.dictionary.strings,
                          dtype=self.dtype[column.name])

    def pages_of(self, records: np.ndarray) -> Iterator[bytes]:
        """Split a record array into page payloads."""
        for start in range(0, len(records), self.rows_per_page):
            chunk = records[start:start + self.rows_per_page]
            yield np.ascontiguousarray(chunk).tobytes()

    def parse_page(self, payload: bytes) -> np.ndarray:
        """Deserialize a page payload back into a structured array."""
        if len(payload) % self.record_width != 0:
            raise PageFormatError(
                f"page of {len(payload)} bytes is not a multiple of the "
                f"record width {self.record_width}"
            )
        return np.frombuffer(payload, dtype=self.dtype)

    def num_pages_for(self, num_rows: int) -> int:
        """Pages needed for ``num_rows`` records."""
        return -(-num_rows // self.rows_per_page) if num_rows else 0

    def stored_bytes(self, num_rows: int) -> int:
        """Whole-page bytes occupied by ``num_rows`` records."""
        return self.num_pages_for(num_rows) * PAGE_SIZE


def decode_field(value: Union[int, bytes, np.generic]) -> Union[int, str]:
    """Convert one raw structured-array field to its logical value."""
    if isinstance(value, bytes):
        return value.decode("ascii")
    return int(value)


__all__ = ["RowFormat", "HEADER_FIELD", "decode_field"]
