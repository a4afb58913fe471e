"""Tree-to-seq and seq-to-tree conversion of query plans (Section 4.1).

Two codecs live here:

1. **Serialization for the transformer input (F.iii)**: a plan tree is
   flattened to its preorder node sequence, and every node carries a
   :class:`repro.nn.TreePosition` (the root-to-node branch path) whose
   tree positional encoding is added to the node embedding — the
   "transformers' tree positional embedding techniques" of Shiv & Quirk
   that the paper cites.

2. **Decoding embeddings (Figures 3-4)**: the plan tree is transformed
   into a complete binary tree; each base table receives a 0/1 vector
   over the complete tree's leaf slots marking the leaves labelled with
   that table.  The paper's examples: for the left-deep tree
   ``j(j(j(T1,T2),T3),T4)`` the embeddings are ``[1,0,0,0,0,0,0,0]``,
   ``[0,1,0,0,0,0,0,0]``, ``[0,0,1,1,0,0,0,0]``, ``[0,0,0,0,1,1,1,1]``;
   for the bushy tree ``j(j(T1,T2),j(T3,T4))`` they are the four unit
   vectors.  ``tree_from_embeddings`` reverts the (unique) tree.
"""

from __future__ import annotations

import numpy as np

from ..engine.plan import PlanNode
from ..nn.positional import TreePosition

__all__ = [
    "serialize_plan",
    "plan_signature",
    "query_signature",
    "decoding_embeddings",
    "tree_from_embeddings",
    "JoinTree",
    "join_tree_from_order",
    "join_tree_from_plan",
]

# The attribute a signed Query / PlanNode keeps its signature under;
# ``__getstate__`` of both classes drops it.
_MEMO = "_signature"


class JoinTree:
    """A bare join-structure tree: leaves are table names.

    Lighter than :class:`PlanNode` — no operators or predicates — used
    by the tree codec, which only cares about join structure.
    """

    __slots__ = ("table", "left", "right")

    def __init__(self, table: str | None = None, left: "JoinTree | None" = None, right: "JoinTree | None" = None):
        if (table is None) == (left is None or right is None):
            raise ValueError("JoinTree is either a leaf (table) or an inner node (left+right)")
        self.table = table
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.table is not None

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.table]
        return self.left.leaves() + self.right.leaves()

    def depth(self) -> int:
        """Edge-depth: a leaf has depth 0."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def is_left_deep(self) -> bool:
        if self.is_leaf:
            return True
        return self.right.is_leaf and self.left.is_left_deep()

    def __eq__(self, other) -> bool:
        if not isinstance(other, JoinTree):
            return NotImplemented
        if self.is_leaf != other.is_leaf:
            return False
        if self.is_leaf:
            return self.table == other.table
        return self.left == other.left and self.right == other.right

    def __repr__(self) -> str:
        if self.is_leaf:
            return self.table
        return f"j({self.left!r}, {self.right!r})"


def join_tree_from_order(order: list[str]) -> JoinTree:
    """The left-deep :class:`JoinTree` for a join order."""
    if not order:
        raise ValueError("join order is empty")
    tree = JoinTree(table=order[0])
    for table in order[1:]:
        tree = JoinTree(left=tree, right=JoinTree(table=table))
    return tree


def join_tree_from_plan(plan: PlanNode) -> JoinTree:
    """Strip a :class:`PlanNode` down to its join structure."""
    if plan.is_scan:
        return JoinTree(table=plan.table)
    return JoinTree(left=join_tree_from_plan(plan.left), right=join_tree_from_plan(plan.right))


# ----------------------------------------------------------------------
# 1. Serialization with tree positions (F.iii)
# ----------------------------------------------------------------------

def serialize_plan(plan: PlanNode) -> tuple[list[PlanNode], list[TreePosition]]:
    """Flatten a plan to (preorder nodes, their tree positions)."""
    nodes: list[PlanNode] = []
    positions: list[TreePosition] = []

    def visit(node: PlanNode, position: TreePosition) -> None:
        nodes.append(node)
        positions.append(position)
        if node.is_join:
            visit(node.left, position.left())
            visit(node.right, position.right())

    visit(plan, TreePosition())
    return nodes, positions


def plan_signature(plan: PlanNode) -> tuple:
    """Structural signature of a plan tree (hashable, order-sensitive).

    Two plans share a signature iff they are node-for-node identical in
    shape, operators, scanned tables, filters and join predicates — the
    exact inputs the (F) module's node features are derived from.  Used
    as the featurizer's encoding-cache key (DESIGN.md section 3) so that
    structurally equivalent plans (e.g. the cost-rerank's probe plans)
    share one cached encoding, regardless of object identity.

    Computed once per node object and kept on it, so a resubmitted plan
    and every node that plans share (:func:`repro.optimizer.plan_with_orders`)
    are signed once.  A copy, deep copy or unpickled plan does not carry
    it and signs itself afresh.  Once signed, a node is treated as
    immutable.  The one in-place writer in ``src/``,
    ``CostModel.node_cost``, only fills *unset* operators, and a
    subtree with an unset operator is never kept, so costing a node
    never leaves a stale signature on it or on an ancestor;
    ``tests/test_serializer_properties.py`` checks that no other code
    under ``src/`` writes a signed field.
    """
    signature = plan.__dict__.get(_MEMO)
    return signature if signature is not None else _build_plan_signature(plan)


def _build_plan_signature(plan: PlanNode) -> tuple:
    if plan.is_scan:
        filter_sig = None
        if plan.filter is not None:
            filter_sig = (plan.filter.table, tuple(str(p) for p in plan.filter.predicates))
        signature = (
            "scan",
            plan.table,
            plan.scan_op.value if plan.scan_op else None,
            filter_sig,
        )
        keep = plan.scan_op is not None
    else:
        signature = (
            "join",
            plan.join_op.value if plan.join_op else None,
            tuple(str(p) for p in plan.join_predicates),
            plan_signature(plan.left),
            plan_signature(plan.right),
        )
        # Kept only once every operator below is set: the children were
        # kept under the same rule.
        keep = plan.join_op is not None and _MEMO in plan.left.__dict__ and _MEMO in plan.right.__dict__
    if keep:
        _remember(plan, signature)
    return signature


def query_signature(query) -> tuple:
    """Structural signature of a :class:`repro.sql.Query` (hashable).

    Two queries share a signature iff they touch the same tables *in the
    same canonical order* (position -> table correspondence matters to
    the join-order decoder), carry the same set of equi-join predicates,
    and filter each table identically.  Join predicates and filters are
    order-insensitive (they describe sets); the table list is not.

    This is the query half of the serving layer's plan-cache key
    (DESIGN.md "Serving architecture"): requests for structurally
    identical queries coalesce onto one cached join order.  Like
    :func:`plan_signature` it is computed once per ``Query`` object and
    not carried by copies; nothing in ``src/`` mutates a query.
    """
    signature = query.__dict__.get(_MEMO)
    return signature if signature is not None else _remember(query, _build_query_signature(query))


def _build_query_signature(query) -> tuple:
    filters = []
    for table, conjunction in query.filters.items():
        if len(conjunction):
            filters.append((table, tuple(sorted(str(p) for p in conjunction.predicates))))
    return (
        "query",
        tuple(query.tables),
        tuple(sorted(str(j) for j in query.joins)),
        tuple(sorted(filters)),
    )


def _remember(obj, signature: tuple) -> tuple:
    """Keep ``signature`` on ``obj`` (a ``Query`` or ``PlanNode``).

    The request thread (``OptimizerService.request_key``) and the drain
    worker (``MTMLFQO.encode_query``) may both sign one object at once.
    That race is harmless without a lock: both compute an equal value,
    and one dict store is atomic under the GIL.  ``__getstate__`` of
    both classes drops the key, so copies and pickles never carry it.
    """
    obj.__dict__[_MEMO] = signature
    return signature


# ----------------------------------------------------------------------
# 2. Decoding embeddings (Figures 3-4)
# ----------------------------------------------------------------------

def decoding_embeddings(tree: JoinTree, width: int | None = None) -> dict[str, np.ndarray]:
    """Per-table leaf-slot indicator vectors of the completed binary tree.

    The tree is completed to its *natural* width ``2 ** depth``, then the
    indicator vectors are zero-padded to ``width``.  ``width`` defaults
    to ``2 ** (m - 1)`` for an ``m``-leaf tree — the width of the deepest
    (left-deep) shape, which is the fixed dimension the paper uses (8 for
    4-table plans).  This reproduces both of the paper's Figure 3/4
    examples: the left-deep tree fills all 8 slots, the bushy tree fills
    the first 4 and pads the rest.
    """
    depth = tree.depth()
    natural = 2 ** depth if depth > 0 else 1
    num_leaves = len(tree.leaves())
    default_width = 2 ** (num_leaves - 1) if num_leaves > 1 else 1
    width = width if width is not None else max(default_width, natural)
    if width < natural or width & (width - 1):
        raise ValueError(f"width {width} must be a power of two >= {natural}")

    embeddings = {table: np.zeros(width, dtype=np.float64) for table in tree.leaves()}

    def paint(node: JoinTree, offset: int, span: int) -> None:
        if node.is_leaf:
            embeddings[node.table][offset: offset + span] = 1.0
            return
        half = span // 2
        if half == 0:
            raise ValueError("tree deeper than the embedding width allows")
        paint(node.left, offset, half)
        paint(node.right, offset + half, half)

    paint(tree, 0, natural)
    return embeddings


def tree_from_embeddings(embeddings: dict[str, np.ndarray]) -> JoinTree:
    """Revert the unique tree from its decoding embeddings (Section 4.1).

    Leaf slots are labelled by their table; recursively, two sibling
    regions with the same single label merge into a leaf, and regions
    with different labels become a join node.  Zero padding beyond the
    tree's natural width is detected and ignored.
    """
    if not embeddings:
        raise ValueError("no embeddings given")
    tables = list(embeddings)
    width = len(next(iter(embeddings.values())))
    if any(len(v) != width for v in embeddings.values()):
        raise ValueError("embeddings have inconsistent widths")
    matrix = np.stack([np.asarray(embeddings[t], dtype=np.float64) for t in tables])
    slot_owner = np.full(width, -1, dtype=np.int64)
    for slot in range(width):
        owners = np.flatnonzero(matrix[:, slot] > 0.5)
        if len(owners) > 1:
            raise ValueError(f"leaf slot {slot} claimed by multiple tables")
        if len(owners) == 1:
            slot_owner[slot] = owners[0]

    claimed = int((slot_owner >= 0).sum())
    if claimed == 0:
        raise ValueError("no claimed leaf slots")
    if claimed & (claimed - 1):
        raise ValueError(f"claimed slot count {claimed} is not a power of two")
    if (slot_owner[:claimed] < 0).any() or (slot_owner[claimed:] >= 0).any():
        raise ValueError("claimed leaf slots are not a contiguous prefix")

    def build(offset: int, span: int) -> JoinTree:
        owners = set(slot_owner[offset: offset + span].tolist())
        if len(owners) == 1:
            return JoinTree(table=tables[owners.pop()])
        half = span // 2
        return JoinTree(left=build(offset, half), right=build(offset + half, half))

    return build(0, claimed)
