"""Query plan trees.

A plan is a binary tree whose leaves are scans (sequential or index)
over filtered base tables and whose inner nodes are joins (hash or
nested-loop).  The paper considers scans and joins only ("we omit other
physical operations, e.g. aggregate or hash", Section 3.1); of its join
operators the engine models two, since merge join, with no sorted input
to exploit, never undercuts hash (DESIGN.md §14).  The same tree type
serves as logical plan (operators unset) and physical plan (operators
chosen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..sql.predicates import Conjunction
from ..storage.schema import JoinRelation

__all__ = ["ScanOp", "JoinOp", "PlanNode", "scan_node", "join_node", "left_deep_plan"]


class ScanOp(Enum):
    SEQ = "SeqScan"
    INDEX = "IndexScan"


class JoinOp(Enum):
    HASH = "HashJoin"
    NESTED_LOOP = "NestLoopJoin"


@dataclass
class PlanNode:
    """One node of a plan tree.

    Scan nodes have ``table``/``filter``/``scan_op`` set and no children;
    join nodes have ``left``/``right``/``join_op``/``join_predicates``.
    ``tables`` always holds the frozenset of base tables under the node.
    """

    tables: frozenset
    # Scan fields
    table: str | None = None
    filter: Conjunction | None = None
    scan_op: ScanOp | None = None
    # Join fields
    left: "PlanNode | None" = None
    right: "PlanNode | None" = None
    join_op: JoinOp | None = None
    join_predicates: list[JoinRelation] = field(default_factory=list)
    # Annotations filled in by estimation / execution
    estimated_cardinality: float | None = None
    true_cardinality: int | None = None
    estimated_cost: float | None = None

    def __getstate__(self) -> dict:
        # A copy or unpickled node signs itself afresh: the signature
        # ``repro.core.plan_signature`` keeps on a node is not carried.
        state = self.__dict__.copy()
        state.pop("_signature", None)
        return state

    # ------------------------------------------------------------------
    @property
    def is_scan(self) -> bool:
        return self.table is not None

    @property
    def is_join(self) -> bool:
        return self.left is not None

    def children(self) -> list["PlanNode"]:
        if self.is_scan:
            return []
        return [self.left, self.right]

    def nodes_preorder(self) -> list["PlanNode"]:
        """All nodes, root first (the serialization order used by F.iii)."""
        out = [self]
        for child in self.children():
            out.extend(child.nodes_preorder())
        return out

    def nodes_postorder(self) -> list["PlanNode"]:
        out = []
        for child in self.children():
            out.extend(child.nodes_postorder())
        out.append(self)
        return out

    def leaf_tables_in_order(self) -> list[str]:
        """Base tables left-to-right (for left-deep plans: the join order)."""
        if self.is_scan:
            return [self.table]
        return self.left.leaf_tables_in_order() + self.right.leaf_tables_in_order()

    def depth(self) -> int:
        if self.is_scan:
            return 1
        return 1 + max(self.left.depth(), self.right.depth())

    def is_left_deep(self) -> bool:
        if self.is_scan:
            return True
        return self.right.is_scan and self.left.is_left_deep()

    def pretty(self, indent: int = 0) -> str:
        """Human-readable plan rendering (EXPLAIN-style)."""
        pad = "  " * indent
        if self.is_scan:
            op = self.scan_op.value if self.scan_op else "Scan"
            cond = f" on {self.filter}" if self.filter and len(self.filter) else ""
            card = f" (rows={self.true_cardinality})" if self.true_cardinality is not None else ""
            return f"{pad}{op} {self.table}{cond}{card}"
        op = self.join_op.value if self.join_op else "Join"
        preds = ", ".join(str(p) for p in self.join_predicates)
        card = f" (rows={self.true_cardinality})" if self.true_cardinality is not None else ""
        lines = [f"{pad}{op} on [{preds}]{card}"]
        lines.append(self.left.pretty(indent + 1))
        lines.append(self.right.pretty(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()


def scan_node(table: str, filter_conj: Conjunction | None = None, scan_op: ScanOp | None = None) -> PlanNode:
    """Build a scan leaf."""
    return PlanNode(
        tables=frozenset([table]),
        table=table,
        filter=filter_conj if filter_conj is not None else Conjunction(table=table, predicates=()),
        scan_op=scan_op,
    )


def join_node(
    left: PlanNode,
    right: PlanNode,
    join_predicates: list[JoinRelation],
    join_op: JoinOp | None = None,
) -> PlanNode:
    """Build a join over two sub-plans."""
    if left.tables & right.tables:
        raise ValueError("join children overlap in base tables")
    if not join_predicates:
        raise ValueError("join requires at least one join predicate (no cross products)")
    return PlanNode(
        tables=left.tables | right.tables,
        left=left,
        right=right,
        join_op=join_op,
        join_predicates=list(join_predicates),
    )


def left_deep_plan(query, order: list[str], join_op: JoinOp | None = None, scan_op: ScanOp | None = None) -> PlanNode:
    """Build a left-deep plan joining ``order``'s tables in sequence.

    Raises ``ValueError`` when the order is illegal, i.e. some table has
    no join predicate connecting it to the tables already joined — the
    legality notion of the paper's Section 4.3.
    """
    if sorted(order) != sorted(query.tables):
        raise ValueError(f"order {order} does not cover query tables {query.tables}")
    current = scan_node(order[0], query.filter_for(order[0]), scan_op)
    for table in order[1:]:
        joined = current.tables
        predicates = query.joins_between(set(joined), {table})
        if not predicates:
            raise ValueError(f"illegal join order: {table!r} does not join with {sorted(joined)}")
        right = scan_node(table, query.filter_for(table), scan_op)
        current = join_node(current, right, predicates, join_op)
    return current
