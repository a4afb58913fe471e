"""Small helpers shared by several test suites; the system never calls them."""

import numpy as np

import repro.nn as nn
from repro.core import JointTrainer
from repro.errors import DisconnectedQueryError


def spanning_join_order(schema, tables: list[str], start: str | None = None) -> list[str]:
    """A legal left-deep join order covering ``tables``: breadth-first
    over ``schema``'s join graph from ``start`` (default the first
    table), taking the alphabetically first joinable table at each step.
    """
    if not schema.is_connected(tables):
        raise DisconnectedQueryError(f"tables {tables} are not connected in the join graph")
    members = set(tables)
    start = start or tables[0]
    order = [start]
    seen = {start}
    frontier = {table for table in schema.neighbors(start) if table in members}
    while len(order) < len(tables):
        chosen = sorted(frontier - seen)[0]
        order.append(chosen)
        seen.add(chosen)
        frontier |= {table for table in schema.neighbors(chosen) if table in members}
    return order


def find_metric(registry, name: str, labels: "dict[str, str] | None" = None):
    """``registry``'s existing metric for ``(name, labels)``, or None; a
    read that, unlike ``registry.counter(...)``, creates nothing."""

    def key(pairs) -> tuple:
        return tuple(sorted((str(k), str(v)) for k, v in (pairs or {}).items()))

    for metric in registry.metrics():
        if metric.name == name and key(metric.labels) == key(labels):
            return metric
    return None


# A Trans_JO weight of every model config (the decoder has >= 1 layer).
POISONED = "trans_jo.decoder.layers.items.0.ff2.weight"


def poison_batch_losses(monkeypatch) -> None:
    """Make one parameter's gradient NaN in every training step."""
    original = JointTrainer._batch_losses

    def poisoned(self, *args, **kwargs):
        loss, terms = original(self, *args, **kwargs)
        param = dict(self.model.named_parameters())[POISONED]
        return loss + (param * nn.Tensor(np.full(param.shape, np.nan))).sum(), terms

    monkeypatch.setattr(JointTrainer, "_batch_losses", poisoned)
