"""The "PostgreSQL" baseline rows of Tables 1-3.

Cardinalities come from the histogram/independence estimator; costs come
from the analytical cost model evaluated over those estimated
cardinalities.  Because the model's cost units differ from the simulated
latency units of the ground truth, a single multiplicative calibration
constant (geometric-mean ratio on a training workload) aligns the
scales — the fair equivalent of regressing PostgreSQL's cost units onto
runtimes, and it cannot fix *relative* errors, which is what q-error
measures.
"""

from __future__ import annotations

import numpy as np

from ..engine.cost_model import DEFAULT_COST_MODEL
from ..optimizer.selectivity import HistogramEstimator
from ..storage.catalog import Database
from ..workload.labeler import LabeledQuery

__all__ = ["PostgresBaseline"]

_COST_FLOOR = 1e-9


class PostgresBaseline:
    """Per-node card/cost predictions from classical statistics."""

    def __init__(self, db: Database):
        self.db = db
        self.estimator = HistogramEstimator(db)
        self.cost_scale = 1.0

    # ------------------------------------------------------------------
    def predict_cards(self, item: LabeledQuery) -> np.ndarray:
        """Estimated cardinality per plan node (preorder)."""
        view = self.estimator.for_query(item.query)
        return np.asarray([max(view.rows(node.tables), 0.0) for node in item.plan.nodes_preorder()])

    def _node_costs(self, item: LabeledQuery) -> np.ndarray:
        """Estimated *cumulative* cost per sub-plan node (preorder)."""
        plan = item.plan
        view = self.estimator.for_query(item.query)
        cards = {node.tables: max(view.rows(node.tables), 0.0) for node in plan.nodes_postorder()}
        base = {t: self.estimator.base_rows(t) for t in item.query.tables}
        DEFAULT_COST_MODEL.plan_cost(plan, cards, base)

        cumulative: dict[int, float] = {}

        def total(node) -> float:
            if id(node) not in cumulative:
                cumulative[id(node)] = (node.estimated_cost or 0.0) + sum(
                    total(child) for child in node.children()
                )
            return cumulative[id(node)]

        return np.asarray([total(node) for node in plan.nodes_preorder()])

    def predict_costs(self, item: LabeledQuery) -> np.ndarray:
        """Calibrated cost predictions per node (preorder)."""
        return np.maximum(self._node_costs(item) * self.cost_scale, _COST_FLOOR)

    # ------------------------------------------------------------------
    def calibrate_costs(self, workload: list[LabeledQuery]) -> float:
        """Fit the single scale constant on a training workload."""
        ratios = []
        for item in workload:
            estimated = self._node_costs(item)
            for est, true in zip(estimated, item.node_costs):
                if est > 0 and true > 0:
                    ratios.append(np.log(true / est))
        if ratios:
            self.cost_scale = float(np.exp(np.mean(ratios)))
        return self.cost_scale
