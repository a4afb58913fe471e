"""Findings: the unit of output of every static checker.

A :class:`Finding` is one violation at one source location.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One checker violation at one source location."""

    path: str       # repo-relative posix path of the file
    line: int       # 1-indexed line of the violating construct
    checker: str    # stable checker id (e.g. "guarded-by")
    symbol: str     # enclosing ClassName.method / function, or ""
    message: str    # human-readable description, names not line numbers

    def to_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        where = f" ({self.symbol})" if self.symbol else ""
        return f"{self.path}:{self.line}: [{self.checker}] {self.message}{where}"
