"""Checker registry.

``all_checkers()`` returns one instance of every checker with its
repo-default configuration — this is what the CLI and CI run.  Tests
construct checkers directly with fixture-specific configuration.
"""

from __future__ import annotations

from .base import Checker
from .guarded_by import GuardedByChecker
from .hygiene import (
    AtomicWriteChecker,
    ScratchPrivacyChecker,
    SilentExceptChecker,
    ThreadDisciplineChecker,
    WallClockChecker,
)
from .lock_discipline import EntryLockRule, LockDisciplineChecker
from .obs_discipline import ObsDisciplineChecker
from .shapes import DtypeChecker

__all__ = [
    "Checker",
    "GuardedByChecker",
    "LockDisciplineChecker",
    "EntryLockRule",
    "AtomicWriteChecker",
    "ThreadDisciplineChecker",
    "SilentExceptChecker",
    "WallClockChecker",
    "ScratchPrivacyChecker",
    "ObsDisciplineChecker",
    "DtypeChecker",
    "all_checkers",
]


def all_checkers() -> list[Checker]:
    return [
        GuardedByChecker(),
        LockDisciplineChecker(),
        AtomicWriteChecker(),
        ThreadDisciplineChecker(),
        SilentExceptChecker(),
        WallClockChecker(),
        ScratchPrivacyChecker(),
        ObsDisciplineChecker(),
        DtypeChecker(),
    ]
