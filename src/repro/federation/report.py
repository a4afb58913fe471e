"""Fleet-level observability: merged per-tenant serving reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..serve.stats import ServingReport

if TYPE_CHECKING:  # circular at runtime: coordinator imports this module
    from .coordinator import FleetRound

__all__ = ["FleetReport"]


@dataclass
class FleetReport:
    """Frozen view of the whole fleet at one instant.

    Per-tenant :class:`~repro.serve.stats.ServingReport` snapshots (a
    tenant's round participations are its ``retrains``, its gate
    outcomes its ``swaps_accepted`` / ``swaps_rejected`` /
    ``gates_unvalidated``), the coordinator's round totals and its
    latest round.  Rendered by
    :func:`repro.eval.reporting.format_fleet_report`.
    """

    tenants: dict[str, ServingReport] = field(default_factory=dict)
    rounds: int = 0
    reverted_rounds: int = 0
    # Tenants that raised during a round's harvest or push —
    # federation-infrastructure failures, kept apart from per-request
    # serving failures.
    tenant_failures: int = 0
    last_round: "FleetRound | None" = None

    # -- fleet-wide aggregates -----------------------------------------
    def _sum(self, attribute: str) -> int:
        return sum(getattr(report, attribute) for report in self.tenants.values())

    @property
    def num_tenants(self) -> int:
        return len(self.tenants)

    @property
    def completed(self) -> int:
        return self._sum("completed")

    @property
    def failed(self) -> int:
        return self._sum("failed")

    @property
    def rejected(self) -> int:
        return self._sum("rejected")

    @property
    def swaps(self) -> int:
        return self._sum("swaps")

    @property
    def throughput_qps(self) -> float:
        """Sum of per-tenant throughputs (tenants serve concurrently)."""
        return sum(report.throughput_qps for report in self.tenants.values())

    @property
    def retrains(self) -> int:
        """Tenant-round participations across the fleet (one round can
        count several tenants)."""
        return self._sum("retrains")

    @property
    def swaps_accepted(self) -> int:
        return self._sum("swaps_accepted")

    @property
    def swaps_rejected(self) -> int:
        return self._sum("swaps_rejected")

    @property
    def gates_unvalidated(self) -> int:
        return self._sum("gates_unvalidated")
