"""Filter predicates: comparison operators, BETWEEN, IN and LIKE.

Predicates evaluate vectorized over a :class:`repro.storage.Table`,
returning a boolean row mask.  LIKE follows SQL semantics (``%`` = any
run, ``_`` = any single char) and — matching the paper's JOB setup — is
the predicate family that rules out the unsupervised CardEst baselines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..storage.table import Table

__all__ = ["CompareOp", "Comparison", "BetweenPredicate", "InPredicate", "LikePredicate", "Conjunction", "Predicate", "like_to_regex"]


class CompareOp(Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_OP_FUNCS = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


def _sql_literal(value) -> str:
    """``value`` as a SQL literal: a string quoted, its quotes doubled
    (what the parser's ``_unquote`` undoes); anything else ``str``."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


class Predicate:
    """Base class; subclasses implement ``evaluate`` and ``column_names``."""

    table: str

    def evaluate(self, table: Table) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def column_names(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """``table.column <op> value``."""

    table: str
    column: str
    op: CompareOp
    value: object

    def evaluate(self, table: Table) -> np.ndarray:
        column = table.column(self.column)
        if column.is_numeric:
            return _OP_FUNCS[self.op](column.numeric_values(), float(self.value))
        values = column.values.astype(str)
        if self.op in (CompareOp.EQ, CompareOp.NE):
            mask = values == str(self.value)
            return mask if self.op is CompareOp.EQ else ~mask
        # Lexicographic comparison for string ranges.
        return _OP_FUNCS[self.op](values, str(self.value))

    def column_names(self) -> list[str]:
        return [self.column]

    def __str__(self) -> str:
        return f"{self.table}.{self.column} {self.op.value} {_sql_literal(self.value)}"


@dataclass(frozen=True)
class BetweenPredicate(Predicate):
    """``table.column BETWEEN low AND high`` (inclusive)."""

    table: str
    column: str
    low: float
    high: float

    def evaluate(self, table: Table) -> np.ndarray:
        values = table.column(self.column).numeric_values()
        return (values >= self.low) & (values <= self.high)

    def column_names(self) -> list[str]:
        return [self.column]

    def __str__(self) -> str:
        return f"{self.table}.{self.column} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InPredicate(Predicate):
    """``table.column IN (v1, v2, ...)``."""

    table: str
    column: str
    values: tuple

    def evaluate(self, table: Table) -> np.ndarray:
        column = table.column(self.column)
        if column.is_numeric:
            pool = np.asarray([float(v) for v in self.values])
            return np.isin(column.numeric_values(), pool)
        return np.isin(column.values.astype(str), np.asarray([str(v) for v in self.values]))

    def column_names(self) -> list[str]:
        return [self.column]

    def __str__(self) -> str:
        inner = ", ".join(_sql_literal(v) for v in self.values)
        return f"{self.table}.{self.column} IN ({inner})"


def like_to_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern to an anchored regular expression."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$")


@dataclass(frozen=True)
class LikePredicate(Predicate):
    """``table.column LIKE pattern`` (or NOT LIKE with negated=True)."""

    table: str
    column: str
    pattern: str
    negated: bool = False

    def evaluate(self, table: Table) -> np.ndarray:
        column = table.column(self.column)
        regex = like_to_regex(self.pattern)
        if column.dictionary is not None:
            # Dictionary-encoded strings: match the (small) dictionary once.
            dict_hits = np.fromiter((regex.match(v) is not None for v in column.dictionary), dtype=bool, count=len(column.dictionary))
            mask = dict_hits[column.codes]
        else:
            values = column.values.astype(str)
            mask = np.fromiter((regex.match(v) is not None for v in values), dtype=bool, count=len(values))
        return ~mask if self.negated else mask

    def column_names(self) -> list[str]:
        return [self.column]

    def __str__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.table}.{self.column} {op} {_sql_literal(self.pattern)}"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """AND of predicates over the same table; empty = always true."""

    table: str
    predicates: tuple

    def __post_init__(self):
        for p in self.predicates:
            if p.table != self.table:
                raise ValueError(f"conjunction over {self.table!r} got predicate on {p.table!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        mask = np.ones(table.num_rows, dtype=bool)
        for predicate in self.predicates:
            mask &= predicate.evaluate(table)
        return mask

    def column_names(self) -> list[str]:
        names: list[str] = []
        for p in self.predicates:
            names.extend(p.column_names())
        return names

    def __len__(self) -> int:
        return len(self.predicates)

    def __str__(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(str(p) for p in self.predicates)
