"""In-memory typed columns.

A :class:`Column` is the unit both engines ingest.  Integer columns wrap a
numpy array directly.  String columns are dictionary-encoded at creation:
the column holds an int32 code vector plus a :class:`StringDictionary`.
This mirrors how real column stores (and the paper's C-Store) treat text,
and it is also what makes the pure-Python reproduction feasible — all hot
loops run over integer vectors.

The *row* store is not allowed to exploit the dictionary: the heap file
format (:mod:`repro.storage.rowpage`) expands codes back to fixed-width
bytes when laying out tuples, exactly as System X stores CHAR(n) fields.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..errors import TypeMismatchError
from ..types import ColumnType, string as string_type, validate_int_array


class StringDictionary:
    """An ordered mapping between strings and dense int32 codes.

    Codes are assigned in **sorted string order** (code 0 is the smallest
    string).  Order-preserving dictionaries matter twice in the paper:
    range predicates can be evaluated directly on codes, and
    between-predicate rewriting (Section 5.4.2) relies on re-keyed
    dictionaries being ordered and contiguous.
    """

    def __init__(self, values: Sequence[str]) -> None:
        uniq = sorted(set(values))
        self._strings: List[str] = uniq
        self._codes: Dict[str, int] = {s: i for i, s in enumerate(uniq)}

    @classmethod
    def from_sorted_unique(cls, values: Sequence[str]) -> "StringDictionary":
        """Trusted constructor for values already sorted and unique."""
        d = cls.__new__(cls)
        d._strings = list(values)
        d._codes = {s: i for i, s in enumerate(d._strings)}
        return d

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringDictionary):
            return NotImplemented
        return self._strings == other._strings

    def code(self, value: str) -> int:
        """Code of ``value``; raise KeyError if absent."""
        return self._codes[value]

    def code_or_none(self, value: str) -> Optional[int]:
        """Code of ``value`` or None if the string never occurs."""
        return self._codes.get(value)

    def value(self, code: int) -> str:
        """String for one code."""
        return self._strings[code]

    def decode(self, codes: np.ndarray) -> List[str]:
        """Strings for a vector of codes."""
        strings = self._strings
        return [strings[c] for c in codes]

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized decode to a numpy unicode array."""
        return self.vocabulary[codes]

    @cached_property
    def vocabulary(self) -> np.ndarray:
        """The strings in code order as an object array."""
        return np.asarray(self._strings, dtype=object)

    def encode(self, values: Iterable[str]) -> np.ndarray:
        """Codes for an iterable of strings (all must be present)."""
        codes = self._codes
        return np.fromiter((codes[v] for v in values), dtype=np.int32)

    @property
    def strings(self) -> List[str]:
        """The dictionary contents in code order (do not mutate)."""
        return self._strings

    def range_for_prefix_le(self, low: str, high: str) -> range:
        """Codes whose strings fall in [low, high] — contiguous because the
        dictionary is sorted."""
        import bisect

        lo = bisect.bisect_left(self._strings, low)
        hi = bisect.bisect_right(self._strings, high)
        return range(lo, hi)


class Column:
    """A named, typed, immutable vector of values.

    ``data`` is always an integer numpy array: the values themselves for
    integer columns, dictionary codes for string columns.
    """

    def __init__(
        self,
        name: str,
        ctype: ColumnType,
        data: np.ndarray,
        dictionary: Optional[StringDictionary] = None,
    ) -> None:
        if ctype.is_string and dictionary is None:
            raise TypeMismatchError(f"string column {name!r} requires a dictionary")
        if not ctype.is_string and dictionary is not None:
            raise TypeMismatchError(f"integer column {name!r} cannot take a dictionary")
        self.name = name
        self.ctype = ctype
        self.data = validate_int_array(data, ctype)
        self.data.setflags(write=False)
        self.dictionary = dictionary
        if dictionary is not None and len(self.data):
            top = int(self.data.max())
            if top >= len(dictionary) or int(self.data.min()) < 0:
                raise TypeMismatchError(
                    f"column {name!r} has codes outside its dictionary"
                )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ints(cls, name: str, values: Union[Sequence[int], np.ndarray],
                  ctype: ColumnType) -> "Column":
        """Build an integer column, validating range against ``ctype``."""
        return cls(name, ctype, np.asarray(values))

    @classmethod
    def from_strings(
        cls, name: str, values: Sequence[str], width: Optional[int] = None
    ) -> "Column":
        """Build a string column, deriving the CHAR width if not given."""
        dictionary = StringDictionary(values)
        if width is None:
            width = max((len(s) for s in dictionary.strings), default=1)
        codes = dictionary.encode(values)
        return cls(name, string_type(width), codes, dictionary)

    @classmethod
    def from_codes(
        cls,
        name: str,
        codes: np.ndarray,
        dictionary: StringDictionary,
        width: int,
    ) -> "Column":
        """Build a string column from an existing dictionary and codes."""
        return cls(name, string_type(width), codes, dictionary)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column({self.name!r}, {self.ctype!r}, n={len(self)})"

    @property
    def is_string(self) -> bool:
        return self.ctype.is_string

    def value_at(self, position: int) -> Union[int, str]:
        """The logical (decoded) value at one position."""
        raw = self.data[position]
        if self.dictionary is not None:
            return self.dictionary.value(int(raw))
        return int(raw)

    def decoded(self) -> Union[np.ndarray, List[str]]:
        """All logical values (strings decoded); intended for small outputs."""
        if self.dictionary is not None:
            return self.dictionary.decode(self.data)
        return self.data

    def take(self, positions: np.ndarray) -> "Column":
        """A new column holding the values at ``positions``."""
        return Column(self.name, self.ctype, self.data[positions], self.dictionary)

    def rename(self, name: str) -> "Column":
        """The same column under a new name (shares data)."""
        return Column(name, self.ctype, self.data, self.dictionary)

    def uncompressed_bytes(self) -> int:
        """Size of this column stored plain at its declared width."""
        return len(self.data) * self.ctype.width


__all__ = ["Column", "StringDictionary"]
