"""Telemetry snapshot exporters and text renderers.

One JSON payload carries the whole telemetry state — registry metrics,
trace ring, SLO windows — written atomically (temp file + fsync +
``os.replace``, the ``BENCH_*.json`` idiom) so a reader never sees a
torn snapshot.  ``python -m repro.obs`` renders these files; the same
renderers back the tests so the CLI output is pinned.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = [
    "SNAPSHOT_VERSION",
    "telemetry_snapshot",
    "write_snapshot",
    "read_snapshot",
    "render_metrics",
    "render_traces",
    "render_slo",
    "render_snapshot",
]

SNAPSHOT_VERSION = 1


def telemetry_snapshot(telemetry) -> dict:
    """JSON-able dump of a :class:`repro.obs.Telemetry` bundle."""
    return {
        "version": SNAPSHOT_VERSION,
        "enabled": bool(telemetry.on),
        "metrics": telemetry.registry.snapshot(),
        "traces": telemetry.tracer.to_dict(),
        "slo": telemetry.slo.to_dict(),
    }


def write_snapshot(path: "str | os.PathLike", payload: dict) -> Path:
    """Atomically write ``payload`` as JSON; returns the final path."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_snapshot(path: "str | os.PathLike") -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version: {version!r}")
    return payload


# -- text renderers (shared by the CLI and tests) -----------------------

def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def render_metrics(payload: dict) -> str:
    entries = payload.get("metrics", [])
    if not entries:
        return "metrics: (none)"
    lines = ["metrics:"]
    width = max(len(e["name"] + _format_labels(e["labels"])) for e in entries)
    for entry in entries:
        label = f"{entry['name']}{_format_labels(entry['labels'])}"
        if entry["kind"] == "histogram":
            detail = (
                f"count={entry['count']} mean="
                f"{_format_value(entry['sum'] / entry['count'] if entry['count'] else None)}"
                f" p50={_format_value(entry['p50'])}"
                f" p95={_format_value(entry['p95'])}"
                f" p99={_format_value(entry['p99'])}"
                f" max={_format_value(entry['max'])}"
            )
        else:
            detail = f"{entry['kind']} {_format_value(entry['value'])}"
        lines.append(f"  {label:<{width}}  {detail}")
    return "\n".join(lines)


def render_traces(payload: dict, max_traces: int = 8) -> str:
    traces_blob = payload.get("traces", {})
    spans = traces_blob.get("spans", [])
    if not spans:
        return "traces: (none)"
    grouped: "dict[int, list[dict]]" = {}
    for span in spans:
        grouped.setdefault(span["trace_id"], []).append(span)
    shown = sorted(grouped)[-max_traces:]
    lines = [
        f"traces: {len(grouped)} recorded, {traces_blob.get('dropped', 0)} dropped"
        + (f", last {len(shown)} shown" if len(shown) < len(grouped) else "")
    ]
    for trace_id in shown:
        trace = sorted(grouped[trace_id], key=lambda s: (s["start_s"], s["end_s"]))
        origin = trace[0]["start_s"]
        lines.append(f"  trace {trace_id}:")
        for span in trace:
            offset_ms = (span["start_s"] - origin) * 1e3
            duration_ms = (span["end_s"] - span["start_s"]) * 1e3
            attrs = span.get("attrs") or {}
            suffix = "".join(f" {k}={v}" for k, v in sorted(attrs.items()))
            shape = (
                f"@{offset_ms:9.3f}ms  event"
                if duration_ms == 0
                else f"@{offset_ms:9.3f}ms  {duration_ms:9.3f}ms"
            )
            lines.append(f"    {shape}  {span['name']}{suffix}  [{span['thread']}]")
    return "\n".join(lines)


def render_slo(payload: dict) -> str:
    tenants = payload.get("slo", {}).get("tenants", {})
    if not tenants:
        return "slo: (no tenants)"
    lines = ["slo:"]
    width = max(len(name) for name in tenants)
    for name in sorted(tenants):
        status = tenants[name]
        flag = "  BREACHED" if status["breached"] else ""
        lines.append(
            f"  {name:<{width}}  target {status['target']:.0%} < "
            f"{status['latency_s'] * 1e3:g}ms | window {status['window']}"
            f" | violations {status['violations']}"
            f" ({status['violation_rate']:.1%})"
            f" | burn {status['burn_rate']:.2f}x{flag}"
        )
    return "\n".join(lines)


def render_snapshot(payload: dict, max_traces: int = 8) -> str:
    state = "enabled" if payload.get("enabled") else "disabled"
    return "\n".join(
        [
            f"telemetry snapshot (v{payload.get('version')}, tracing {state})",
            "",
            render_metrics(payload),
            "",
            render_slo(payload),
            "",
            render_traces(payload, max_traces=max_traces),
        ]
    )
