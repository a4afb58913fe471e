"""The AST lint framework: source model, suppressions, runner.

The linter walks Python sources, hands each parsed module to every
registered checker (see :mod:`repro.analysis.checks`), and filters the
resulting findings through one explicit escape hatch: an inline
``# analysis: ignore[checker-id]`` on the violating line (or
``# analysis: ignore`` for every checker).  The repo convention is to
follow the tag with a justification in the same comment, so a finding
never disappears without a reviewable reason next to the code.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from pathlib import Path

from .findings import Finding

__all__ = ["SourceModule", "Linter"]

# Inline suppression: "# analysis: ignore" or "# analysis: ignore[a, b]".
_SUPPRESS_RE = re.compile(r"#\s*analysis:\s*ignore(?:\[([\w\-, ]+)\])?")


class SourceModule:
    """One parsed source file plus its comment-level annotations.

    Checkers read ``tree`` (the AST), ``comments`` (a ``{line: text}``
    map — AST nodes carry no comments, so annotation conventions like
    ``# guarded-by: _mutex`` live here) and ``rel_path`` (posix-style,
    for findings and path-scoped checker registries).
    """

    def __init__(self, text: str, rel_path: str):
        self.text = text
        self.rel_path = rel_path
        self.tree = ast.parse(text, filename=rel_path)
        self.comments: dict[int, str] = {}
        self.suppressions: dict[int, set[str]] = {}
        try:
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                if token.type != tokenize.COMMENT:
                    continue
                line = token.start[0]
                self.comments[line] = token.string
                match = _SUPPRESS_RE.search(token.string)
                if match:
                    names = match.group(1)
                    if names is None:
                        self.suppressions[line] = {"*"}
                    else:
                        self.suppressions.setdefault(line, set()).update(
                            name.strip() for name in names.split(",") if name.strip()
                        )
        except tokenize.TokenError:
            pass  # a parseable file with a tokenize edge case: no comments

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "SourceModule":
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path.read_text(), rel)

    def comment_on(self, line: int) -> str:
        return self.comments.get(line, "")

    def suppressed(self, finding: Finding) -> bool:
        names = self.suppressions.get(finding.line)
        return bool(names) and ("*" in names or finding.checker in names)


class Linter:
    """Runs a set of checkers over files/trees and filters suppressions.

    :attr:`stats` accumulates per-checker counters across every run
    issued through this instance: ``{checker: {"findings": n,
    "seconds": s}}``, with unparseable files counted under
    ``parse-error``.  Counted findings are post-suppression — what a
    caller actually sees.
    """

    def __init__(self, checkers=None):
        if checkers is None:
            from .checks import all_checkers

            checkers = all_checkers()
        self.checkers = list(checkers)
        self.stats: dict[str, dict[str, float]] = {
            checker.name: {"findings": 0, "seconds": 0.0}
            for checker in self.checkers
        }

    def _stat(self, name: str) -> dict[str, float]:
        return self.stats.setdefault(name, {"findings": 0, "seconds": 0.0})

    def run_module(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for checker in self.checkers:
            start = time.perf_counter()
            found = [
                f for f in checker.check(module) if not module.suppressed(f)
            ]
            stat = self._stat(checker.name)
            stat["seconds"] += time.perf_counter() - start
            stat["findings"] += len(found)
            findings.extend(found)
        return sorted(findings)

    def run_source(self, text: str, rel_path: str = "<string>") -> list[Finding]:
        return self.run_module(SourceModule(text, rel_path))

    def run_paths(self, paths: list[str | Path], root: str | Path | None = None) -> list[Finding]:
        """Lint every ``.py`` file under ``paths`` (files or directories)."""
        root = Path(root) if root is not None else Path.cwd()
        files: list[Path] = []
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(sorted(entry.rglob("*.py")))
            else:
                files.append(entry)
        findings: list[Finding] = []
        for path in files:
            try:
                module = SourceModule.from_path(path, root)
            except SyntaxError as error:
                findings.append(
                    Finding(
                        path=path.as_posix(),
                        line=error.lineno or 1,
                        checker="parse-error",
                        symbol="",
                        message=f"file does not parse: {error.msg}",
                    )
                )
                self._stat("parse-error")["findings"] += 1
                continue
            findings.extend(self.run_module(module))
        return sorted(findings)
