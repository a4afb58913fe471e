"""CLI: ``python -m repro.obs SNAPSHOT.json [--section ...]``.

Renders a telemetry snapshot file (written by
:func:`repro.obs.write_snapshot`, e.g. by ``examples/serve_demo.py`` or
a traced ``benchmarks/ledger/run.py`` run) as text: the metrics registry,
per-tenant SLO state, and recent traces.  ``--format json`` re-emits
the (validated) payload for piping into other tools.
"""

from __future__ import annotations

import argparse
import json
import sys

from .export import read_snapshot, render_metrics, render_slo, render_snapshot, render_traces


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render a telemetry snapshot (metrics / SLO / traces).",
    )
    parser.add_argument("snapshot", help="path to a snapshot JSON file")
    parser.add_argument(
        "--section",
        choices=("all", "metrics", "slo", "traces"),
        default="all",
        help="which part of the snapshot to render (default: all)",
    )
    parser.add_argument(
        "--max-traces",
        type=int,
        default=8,
        metavar="N",
        help="most recent traces to render (default: 8)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    try:
        payload = read_snapshot(args.snapshot)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: cannot read snapshot {args.snapshot!r}: {error}", file=sys.stderr)
        return 1

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.section == "metrics":
        print(render_metrics(payload))
    elif args.section == "slo":
        print(render_slo(payload))
    elif args.section == "traces":
        print(render_traces(payload, max_traces=args.max_traces))
    else:
        print(render_snapshot(payload, max_traces=args.max_traces))
    return 0


if __name__ == "__main__":
    sys.exit(main())
