"""Compare two sets of ledger runs (files written by ``collect.py``).

    python3 benchmarks/ledger/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians, the change of
B against its base A, each set's spread (interquartile distance as a
share of the median, ``statistics.quantiles(n=4)``), the bound from
``BENCHMARK.json``, and a verdict:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  a set's spread exceeds the bound, so the medians cannot
                settle it — unless every run of one set beats every run
                of the other, which decides it;
``better``      B's median is better by more than A's interquartile
                distance *and* by more than ``SAME_COMMIT_DRIFT``, and B
                wins at least nine tenths of the same-position pairs;
``same``        otherwise.

Exits 1 when any row reads ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# Two sets of one commit, collected one after the other on the acceptance
# host, differ by up to this share of the median (README, "Spread"): the
# host's speed state drifts over the 20 minutes a set takes and the
# calibration removes most of that, not all.  A smaller gain is not a
# finding; collect the two sets interleaved to resolve one.
SAME_COMMIT_DRIFT = 0.12


def spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    up_a, up_b = [sign * v for v in a], [sign * v for v in b]   # higher is better now
    median_a, median_b = statistics.median(up_a), statistics.median(up_b)
    if max(spread(a), spread(b)) > bound:
        if min(up_b) > max(up_a):
            return "better"
        if max(up_b) < min(up_a):
            return "worse"
        return "unresolved"
    if median_a and (median_b - median_a) / abs(median_a) < -bound:
        return "worse"
    pairs = [(x, y) for x, y in zip(up_a, up_b) if x != y]
    wins = sum(y > x for x, y in pairs)
    gain = median_b - median_a
    floor = max(spread(a), SAME_COMMIT_DRIFT) * abs(median_a)
    if gain > floor and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare(set_a: dict, set_b: dict, spec: dict) -> "list[dict]":
    rows = []
    for metric in spec["end_to_end"]:
        for workload in spec["workloads"]:
            name, wl = metric["name"], workload["name"]
            a = [run["metrics"][name] for run in set_a["runs"].get(wl, [])]
            b = [run["metrics"][name] for run in set_b["runs"].get(wl, [])]
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            rows.append({
                "metric": name, "workload": wl, "unit": metric["unit"],
                "a": median_a, "b": median_b,
                "delta": (median_b - median_a) / abs(median_a) if median_a else 0.0,
                "spread_a": spread(a), "spread_b": spread(b),
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def render(rows: "list[dict]") -> str:
    lines = [
        f"{'metric':<17}{'workload':<14}{'A (base)':>13}{'B':>13}{'B vs A':>9}"
        f"{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<17}{row['workload']:<14}{row['a']:>13.4f}{row['b']:>13.4f}"
            f"{row['delta']:>+9.1%}{row['spread_a']:>10.1%}{row['spread_b']:>10.1%}"
            f"{row['bound']:>7.0%}  {row['verdict']}  [{row['unit']}]"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as handle_a, open(args.b) as handle_b, open(SPEC_PATH) as handle_spec:
        rows = compare(json.load(handle_a), json.load(handle_b), json.load(handle_spec))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
