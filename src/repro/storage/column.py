"""Typed columns for the in-memory columnar storage layer.

Columns carry a logical type (INT, FLOAT, STRING) and hold their values
as numpy arrays so that predicate evaluation and joins can be fully
vectorized.  STRING columns keep a dictionary-encoded representation
(codes + value dictionary) which makes equality predicates and LIKE
evaluation cheap: LIKE only needs to scan the (small) dictionary.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["ColumnType", "Column"]


class ColumnType(Enum):
    INT = "int"
    FLOAT = "float"
    STRING = "string"


class Column:
    """A named, typed column of values.

    Parameters
    ----------
    name:
        Column name (unique within its table).
    values:
        Array-like payload.  Integers/floats are stored as int64/float64;
        strings are dictionary-encoded.
    ctype:
        Optional explicit :class:`ColumnType`; inferred when omitted.
    """

    def __init__(self, name: str, values, ctype: ColumnType | None = None):
        self.name = name
        values = np.asarray(values)
        if ctype is None:
            ctype = _infer_type(values)
        self.ctype = ctype

        if ctype is ColumnType.STRING:
            raw = np.asarray([str(v) for v in values], dtype=object)
            dictionary, codes = np.unique(raw, return_inverse=True)
            self.dictionary: np.ndarray | None = dictionary
            self.codes: np.ndarray | None = codes.astype(np.int64)
            self._data = raw
        elif ctype is ColumnType.INT:
            self.dictionary = None
            self.codes = None
            self._data = values.astype(np.int64)
        else:
            self.dictionary = None
            self.codes = None
            self._data = values.astype(np.float64)
        self._numeric: np.ndarray | None = None  # numeric_values(), once

    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The raw value array (object-dtype for strings)."""
        return self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.ctype.value}, n={len(self)})"

    @property
    def is_numeric(self) -> bool:
        return self.ctype in (ColumnType.INT, ColumnType.FLOAT)

    def numeric_values(self) -> np.ndarray:
        """The values as float64, read-only (raises for string columns).

        Computed once per column — a FLOAT column's is a view of its
        data — and shared by every caller, so every numeric predicate
        evaluation reads the same array instead of a fresh copy.
        """
        if not self.is_numeric:
            raise TypeError(f"column {self.name!r} is not numeric")
        values = self._numeric
        if values is None:
            values = self._data.view() if self.ctype is ColumnType.FLOAT else self._data.astype(np.float64)
            values.setflags(write=False)
            self._numeric = values
        return values

    def n_distinct(self) -> int:
        if self.ctype is ColumnType.STRING:
            return len(self.dictionary)
        return int(len(np.unique(self._data)))

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with rows gathered at ``indices``."""
        return Column(self.name, self._data[indices], self.ctype)

    def filter(self, mask: np.ndarray) -> "Column":
        """Return a new column keeping rows where ``mask`` is True."""
        return Column(self.name, self._data[mask], self.ctype)


def _infer_type(values: np.ndarray) -> ColumnType:
    if values.dtype.kind in ("i", "u", "b"):
        return ColumnType.INT
    if values.dtype.kind == "f":
        return ColumnType.FLOAT
    return ColumnType.STRING
