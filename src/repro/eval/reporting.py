"""Paper-style table rendering for experiment results."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .experiments import Table1Row, Table2Row, Table3Row

if TYPE_CHECKING:  # avoid a runtime eval -> serve/federation import cycle
    from ..federation.report import FleetReport
    from ..serve.stats import ServingReport

__all__ = [
    "format_table1",
    "format_table2",
    "format_table3",
    "format_serving_report",
    "format_fleet_report",
]


def _fmt(value: float | None, width: int = 9) -> str:
    if value is None:
        return "\\".rjust(width)
    if value >= 1000:
        return f"{value:,.0f}".rjust(width)
    return f"{value:.2f}".rjust(width)


def format_table1(rows: list[Table1Row], title: str = "Table 1: Q-errors") -> str:
    """Render Table 1 in the paper's layout."""
    lines = [title, "-" * 78]
    header = (
        f"{'Method':<16}"
        f"{'card med':>9}{'card max':>10}{'card mean':>10}"
        f"{'cost med':>10}{'cost max':>10}{'cost mean':>10}"
    )
    lines.append(header)
    for row in rows:
        card = row.card.as_row() if row.card else (None, None, None)
        cost = row.cost.as_row() if row.cost else (None, None, None)
        lines.append(
            f"{row.method:<16}"
            f"{_fmt(card[0])}{_fmt(card[1], 10)}{_fmt(card[2], 10)}"
            f"{_fmt(cost[0], 10)}{_fmt(cost[1], 10)}{_fmt(cost[2], 10)}"
        )
    return "\n".join(lines)


def format_table2(rows: list[Table2Row], title: str = "Table 2: Execution time with different join orders") -> str:
    lines = [title, "-" * 64]
    lines.append(f"{'JoinOrder':<18}{'Total time (sim ms)':>22}{'Improvement':>14}")
    for row in rows:
        improvement = "\\" if row.improvement is None else f"{100 * row.improvement:.1f}%"
        lines.append(f"{row.method:<18}{row.total_time_ms:>22,.1f}{improvement:>14}")
        if row.optimal_fraction is not None:
            lines.append(f"{'':<18}(optimal order on {100 * row.optimal_fraction:.0f}% of queries)")
    return "\n".join(lines)


def format_table3(rows: list[Table3Row], title: str = "Table 3: Cross-DB transfer") -> str:
    lines = [title, "-" * 64]
    lines.append(f"{'JoinOrder':<20}{'Total time (sim ms)':>22}{'Improvement':>14}")
    for row in rows:
        improvement = "\\" if row.improvement is None else f"{100 * row.improvement:.1f}%"
        lines.append(f"{row.method:<20}{row.total_time_ms:>22,.1f}{improvement:>14}")
    return "\n".join(lines)


def format_serving_report(report: "ServingReport", title: str = "Optimizer service report") -> str:
    """Render a :class:`repro.serve.ServingReport` in the repo's table style."""
    lines = [title, "-" * 64]
    lines.append(f"{'completed':<22}{report.completed:>12,}")
    lines.append(f"{'rejected (backpressure)':<24}{report.rejected:>10,}")
    lines.append(f"{'failed':<22}{report.failed:>12,}")
    lines.append(f"{'throughput':<22}{report.throughput_qps:>12,.1f} q/s")
    lines.append(f"{'batches drained':<22}{report.batches:>12,}")
    lines.append(
        f"{'batch size':<22}{report.mean_batch_size:>12.2f} mean"
        f"  (max {report.max_batch})"
    )
    if report.batch_closes:
        closes = ", ".join(
            f"{reason} {count:,}" for reason, count in sorted(report.batch_closes.items())
        )
        lines.append(
            f"{'batch windows closed':<22}{sum(report.batch_closes.values()):>12,}  ({closes})"
        )
    lines.append(f"{'coalesced requests':<22}{report.coalesced:>12,}")
    lines.append(f"{'model calls':<22}{report.model_calls:>12,}")
    lines.append(f"{'worker utilization':<22}{report.replica_utilization[0]:>12.1%}")
    if report.swaps:
        lines.append(f"{'model hot-swaps':<22}{report.swaps:>12,}")
    if report.timeout_near_misses:
        lines.append(f"{'timeout near-misses':<22}{report.timeout_near_misses:>12,}")
    if report.feedback_collected or report.feedback_deduped or report.feedback_rejected:
        reasons = ", ".join(
            f"{reason} {count:,}" for reason, count in sorted(report.feedback_rejections.items())
        )
        lines.append(
            f"{'feedback experience':<22}{report.feedback_collected:>12,} collected"
            f"  {report.feedback_deduped:,} deduped  {report.feedback_rejected:,} rejected"
            + (f" ({reasons})" if reasons else "")
        )
    gates = report.swaps_accepted + report.swaps_rejected + report.gates_unvalidated
    if report.retrains or gates:
        lines.append(
            f"{'online adaptation':<22}{report.retrains:>12,} retrains"
            f"  {report.swaps_accepted:,} accepted  {report.swaps_rejected:,} gate-rejected"
            f"  {report.gates_unvalidated:,} unvalidated"
        )
    if report.adaptation_failures:
        lines.append(f"{'adaptation failures':<22}{report.adaptation_failures:>12,}")
    lines.append(
        f"{'plan cache':<22}{report.cache_hits:>12,} hits"
        f"  {report.cache_misses:,} misses"
        f"  ({100 * report.cache_hit_rate:.0f}% hit rate, {report.cache_entries:,} entries)"
    )
    if report.retired_cache_hits or report.retired_cache_misses:
        lines.append(
            f"{'cache (pre-swap epochs)':<24}{report.retired_cache_hits:>10,} hits"
            f"  {report.retired_cache_misses:,} misses"
        )
    latency = report.latency
    if latency is not None:
        lines.append(
            f"{'latency':<22}{'':>2}mean {1000 * latency.mean:.1f} ms"
            f"  p50 {1000 * latency.p50:.1f} ms  p95 {1000 * latency.p95:.1f} ms"
            f"  p99 {1000 * latency.p99:.1f} ms  max {1000 * latency.max:.1f} ms"
        )
    return "\n".join(lines)


def format_fleet_report(report: "FleetReport", title: str = "Federated fleet report") -> str:
    """Render a :class:`repro.federation.FleetReport`: a fleet summary
    followed by each tenant's serving report."""
    lines = [title, "=" * 64]
    lines.append(f"{'tenants':<22}{report.num_tenants:>12,}")
    reverted = f"  ({report.reverted_rounds:,} reverted)" if report.reverted_rounds else ""
    lines.append(f"{'federated rounds':<22}{report.rounds:>12,}{reverted}")
    lines.append(f"{'tenant retrains':<22}{report.retrains:>12,}")
    lines.append(
        f"{'global-model gates':<22}{report.swaps_accepted:>12,} accepted"
        f"  {report.swaps_rejected:,} rejected  {report.gates_unvalidated:,} unvalidated"
    )
    if report.tenant_failures:
        lines.append(
            f"{'federation failures':<22}{report.tenant_failures:>12,} tenant harvests/pushes"
        )
    lines.append(f"{'completed (fleet)':<22}{report.completed:>12,}")
    lines.append(f"{'failed (fleet)':<22}{report.failed:>12,}")
    lines.append(f"{'throughput (fleet)':<22}{report.throughput_qps:>12,.1f} q/s")
    lines.append(f"{'model hot-swaps':<22}{report.swaps:>12,}")
    if report.slo:
        breached = report.slo_breached
        lines.append(
            f"{'slo breached':<22}{len(breached):>12,} tenants"
            + (f"  ({', '.join(breached)})" if breached else "")
        )
    for name in sorted(report.tenants):
        lines.append("")
        lines.append(format_serving_report(report.tenants[name], title=f"tenant {name!r}"))
        status = report.slo.get(name)
        if status is not None:
            flag = "  BREACHED" if status.breached else ""
            lines.append(
                f"{'slo':<22}{status.window:>12,} in window"
                f"  {status.violations:,} violations"
                f"  burn {status.burn_rate:.2f}x"
                f"  (target {status.objective.target:.0%} < "
                f"{status.objective.latency_s * 1e3:g}ms){flag}"
            )
    return "\n".join(lines)
