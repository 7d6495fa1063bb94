"""The row-by-row insert validation ``WriteStore`` replaced.

Before validation ran one column at a time, ``WriteStore._validate_rows``
walked the batch row by row and each row cell by cell, in schema order,
and raised at the first failure it met.  It stays here as the test-only
reference of the per-column validation's differential property: both
must accept the same batches with equal rows, or raise the same
:class:`~repro.errors.IntegrityError` message.
"""

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import IntegrityError
from repro.plan.logical import Value
from repro.storage.table import Table


def reference_validate_rows(table: str, base: Table,
                            rows: Sequence[Dict[str, Value]]
                            ) -> List[Dict[str, Value]]:
    """Check every row against the schema, in row then column order."""
    expected = set(base.column_names)
    plan = []
    for col in base.columns():
        if col.dictionary is not None:
            plan.append((col.name, col.dictionary, 0, 0))
        else:
            info = np.iinfo(col.data.dtype)
            plan.append((col.name, None, int(info.min), int(info.max)))
    checked: List[Dict[str, Value]] = []
    for row in rows:
        if row.keys() != expected:
            got = set(row)
            missing, extra = expected - got, got - expected
            raise IntegrityError(
                f"insert into {table!r}: row must supply exactly the "
                f"schema columns (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})"
            )
        out: Dict[str, Value] = {}
        for name, dictionary, low, high in plan:
            value = row[name]
            if dictionary is not None:
                if not isinstance(value, str):
                    raise IntegrityError(
                        f"insert into {table!r}.{name}: expected a "
                        f"string, got {value!r}"
                    )
                if value not in dictionary:
                    raise IntegrityError(
                        f"insert into {table!r}.{name}: {value!r} is "
                        f"outside the column's fixed string domain"
                    )
                out[name] = value
            else:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise IntegrityError(
                        f"insert into {table!r}.{name}: expected an "
                        f"integer, got {value!r}"
                    )
                if not low <= value <= high:
                    raise IntegrityError(
                        f"insert into {table!r}.{name}: {value} does "
                        f"not fit the stored width"
                    )
                out[name] = int(value)
        checked.append(out)
    return checked
