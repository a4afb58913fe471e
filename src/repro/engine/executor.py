"""Plan execution: true cardinalities and simulated latency per node.

``execute_plan`` walks a physical plan bottom-up, runs every operator
for real over the database, annotates each node with its *true*
cardinality (used as CardEst training labels and by the optimal-order
oracle) and accumulates a deterministic simulated execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.catalog import Database
from .operators import Intermediate, JoinExpansionError, WorkReport, execute_join, execute_scan
from .plan import PlanNode, ScanOp
from .timing import DEFAULT_TIMING, TimingModel

__all__ = ["ExecutionResult", "execute_plan", "ExecutionLimitError"]


class ExecutionLimitError(RuntimeError):
    """Raised when an intermediate exceeds the configured row limit."""


@dataclass
class ExecutionResult:
    """Outcome of executing one plan."""

    cardinality: int
    simulated_ms: float
    node_cardinalities: list[int]
    node_times: list[float]
    #: each node's output, keyed by the node's table set — what a
    #: true-cardinality oracle over the same query can start from.
    intermediates: dict[frozenset, Intermediate]
    reports: list[WorkReport] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.node_cardinalities)


def execute_plan(
    plan: PlanNode,
    db: Database,
    timing: TimingModel = DEFAULT_TIMING,
    max_intermediate_rows: int | None = 20_000_000,
) -> ExecutionResult:
    """Execute ``plan`` against ``db``; annotate nodes with true cards.

    Node ordering in the result lists follows ``plan.nodes_preorder()``
    (root first) — the same order the MTMLF featurization serializes.
    """
    cards: dict[int, int] = {}
    times: dict[int, float] = {}
    reports: dict[int, WorkReport] = {}
    intermediates: dict[frozenset, Intermediate] = {}

    def run(node: PlanNode) -> Intermediate:
        if node.is_scan:
            intermediate, report = execute_scan(node, db)
            elapsed = timing.scan_time(report, used_index=node.scan_op is ScanOp.INDEX)
        else:
            left = run(node.left)
            right = run(node.right)
            try:
                intermediate, report = execute_join(
                    node, left, right, db, max_rows=max_intermediate_rows
                )
            except JoinExpansionError as exc:
                raise ExecutionLimitError(str(exc)) from exc
            elapsed = timing.join_time(report)
        if max_intermediate_rows is not None and intermediate.cardinality > max_intermediate_rows:
            raise ExecutionLimitError(
                f"intermediate of {intermediate.cardinality} rows exceeds cap {max_intermediate_rows}"
            )
        node.true_cardinality = intermediate.cardinality
        cards[id(node)] = intermediate.cardinality
        times[id(node)] = elapsed
        reports[id(node)] = report
        intermediates[node.tables] = intermediate
        return intermediate

    final = run(plan)
    ordered = plan.nodes_preorder()
    return ExecutionResult(
        cardinality=final.cardinality,
        simulated_ms=sum(times.values()),
        node_cardinalities=[cards[id(n)] for n in ordered],
        node_times=[times[id(n)] for n in ordered],
        intermediates=intermediates,
        reports=[reports[id(n)] for n in ordered],
    )
