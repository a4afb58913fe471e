"""CLI: ``python -m repro.analysis [paths...] [--fail-on-findings]``.

Runs every registered checker over the given paths (default:
``src/repro`` when run from the repo root, else the installed package
directory) and prints findings as text or JSON.  Exit status:

- ``0`` — clean (or findings present but ``--fail-on-findings`` not set);
- ``1`` — findings with ``--fail-on-findings``.

The one escape hatch is the inline ``# analysis: ignore[checker]``
comment (see :mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import all_checkers
from .linter import Linter


def _default_paths() -> list[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static concurrency & invariant analysis for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 1 when any finding remains (CI mode)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="CHECKER",
        help="run only the named checker (repeatable); see --list-checkers",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="list registered checker names and descriptions, then exit",
    )
    args = parser.parse_args(argv)

    checkers = all_checkers()
    if args.list_checkers:
        width = max(len(checker.name) for checker in checkers)
        for checker in checkers:
            print(f"{checker.name:<{width}}  {checker.description}")
        return 0
    if args.only:
        known = {checker.name: checker for checker in checkers}
        unknown = [name for name in args.only if name not in known]
        if unknown:
            parser.error(
                f"unknown checker(s): {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(known))})"
            )
        checkers = [known[name] for name in args.only]

    paths = args.paths or _default_paths()
    linter = Linter(checkers)
    findings = linter.run_paths(paths)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "count": len(findings),
                    "checkers": {
                        name: {
                            "findings": int(stat["findings"]),
                            "seconds": round(stat["seconds"], 6),
                        }
                        for name, stat in sorted(linter.stats.items())
                    },
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        print(f"{len(findings)} finding(s)")
    return 1 if findings and args.fail_on_findings else 0


if __name__ == "__main__":
    sys.exit(main())
