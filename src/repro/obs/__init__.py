"""Unified telemetry: metrics registry, trace spans, per-tenant SLOs.

:class:`Telemetry` bundles the three observability primitives behind
one handle that threads through the serving, adaptation, and federation
layers:

- ``telemetry.registry`` — :class:`~repro.obs.metrics.MetricsRegistry`
  of named counters/gauges/histograms (always live: it replaces the
  layers' former ad-hoc counters, so its cost *is* the old cost);
- ``telemetry.tracer`` — :class:`~repro.obs.trace.TraceRecorder` for
  request-scoped spans; gated by a single int (``telemetry.on``) with a
  zero-allocation disabled path;
- ``telemetry.slo`` — :class:`~repro.obs.slo.SLOTracker` of per-tenant
  rolling error-budget burn rates, surfaced in ``FleetReport``.

There are two modes, on and off.  A service, tenant or coordinator
built with ``telemetry=None`` makes itself a private
:meth:`Telemetry.disabled` handle, so its code has no third "no handle"
case: every touchpoint is the tracer's int gate.  What an *enabled*
handle costs is the ledger's ``obs.trace_overhead_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .export import (
    read_snapshot,
    render_snapshot,
    telemetry_snapshot,
    write_snapshot,
)
from .metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
)
from .slo import SLOObjective, SLOStatus, SLOTracker
from .trace import NOOP_SPAN, Span, TraceRecorder, maybe_span

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "DEFAULT_LATENCY_BOUNDS",
    "TraceRecorder",
    "Span",
    "NOOP_SPAN",
    "maybe_span",
    "SLOTracker",
    "SLOObjective",
    "SLOStatus",
    "telemetry_snapshot",
    "write_snapshot",
    "read_snapshot",
    "render_snapshot",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Construction-time knobs for a :class:`Telemetry` bundle."""

    enabled: bool = True          # tracing + SLO recording on?
    trace_capacity: int = 4096    # span ring size
    slo_latency_s: float = 0.25   # default per-tenant objective ...
    slo_target: float = 0.95      # ... 95% of requests under 250 ms
    slo_window: int = 1024        # rolling requests per tenant

    def __post_init__(self):
        if self.trace_capacity < 1:
            raise ValueError(f"trace_capacity must be >= 1, got {self.trace_capacity}")


class Telemetry:
    """One registry + tracer + SLO tracker, shared across layers."""

    def __init__(self, config: "TelemetryConfig | None" = None):
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.tracer = TraceRecorder(
            capacity=self.config.trace_capacity, enabled=self.config.enabled
        )
        self.slo = SLOTracker(
            objective=SLOObjective(
                latency_s=self.config.slo_latency_s, target=self.config.slo_target
            ),
            window=self.config.slo_window,
        )

    @property
    def on(self) -> int:
        """Hot-path gate (0/1): read this, not ``config.enabled``."""
        return self.tracer.on

    def enable(self) -> None:
        self.tracer.enable()

    def disable(self) -> None:
        self.tracer.disable()

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The off mode: what ``telemetry=None`` becomes at construction."""
        return cls(TelemetryConfig(enabled=False))

    def snapshot(self) -> dict:
        return telemetry_snapshot(self)
