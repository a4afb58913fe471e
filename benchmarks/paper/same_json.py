"""Are two ``run.py`` results equal outside their timings?

    python benchmarks/paper/same_json.py A.json B.json

Each file's last non-empty line is read as one JSON object, so a saved
last line and a whole ``run.py`` log both work.  Every ``seconds`` and
``ms_per_query`` key is dropped at any depth; everything else must be
equal, floats exactly (NaN equals NaN).  Prints the first differing
path and exits 1 on a difference, else exits 0.  It is the guard of a
change that must not move a trained weight (same seed, same host), and
of the same-host determinism check (one seed, two ``PYTHONHASHSEED``s).
"""

from __future__ import annotations

import json
import math
import sys

TIMINGS = frozenset({"seconds", "ms_per_query"})


def load(path: str):
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty")
    return json.loads(lines[-1])


def first_difference(a, b, path: str = "$") -> str | None:
    """The path of the first difference between ``a`` and ``b`` (timing
    keys ignored), or None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a, keys_b = set(a) - TIMINGS, set(b) - TIMINGS
        if keys_a != keys_b:
            return f"{path}: keys {sorted(keys_a ^ keys_b)} in one file only"
        for key in sorted(keys_a):
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: {len(a)} vs {len(b)} items"
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return None
    if type(a) is not type(b) or a != b:
        return f"{path}: {a!r} vs {b!r}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    found = first_difference(load(argv[0]), load(argv[1]))
    if found:
        print(f"differ at {found}")
        return 1
    print("equal outside timings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
