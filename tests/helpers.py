"""Small helpers shared by several test suites; the system never calls them."""

import collections

import numpy as np

import repro.nn as nn
from repro.core import MTMLFQO, JointTrainer
from repro.core.serializer import query_signature
from repro.errors import DisconnectedQueryError
from repro.serve import adaptation


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


def count_decodes(monkeypatch) -> list:
    """Record ``(model, number of items)`` per ``MTMLFQO.predict_join_orders``
    call (every model, every thread) into the returned list."""
    calls = []
    predict = MTMLFQO.predict_join_orders

    def counted(model, db_name, items, **kwargs):
        calls.append((model, len(items)))
        return predict(model, db_name, items, **kwargs)

    monkeypatch.setattr(MTMLFQO, "predict_join_orders", counted)
    return calls


def count_executions(monkeypatch) -> collections.Counter:
    """Count the regret gate's executions per ``(query signature, order)``."""
    calls = collections.Counter()
    execute = adaptation.join_order_execution_time

    def counted(db, item, order, *args, **kwargs):
        calls[(query_signature(item.query), tuple(order))] += 1
        return execute(db, item, order, *args, **kwargs)

    monkeypatch.setattr(adaptation, "join_order_execution_time", counted)
    return calls
