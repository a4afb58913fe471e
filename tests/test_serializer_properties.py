"""Property-style tests for the structural signatures in core/serializer.

The serving layer's plan cache keys on ``plan_signature`` and
``query_signature``, so their contracts are load-bearing:

- **soundness of sharing** — structurally equal plans/queries *always*
  share a signature (deep copies, independently rebuilt trees,
  re-labeled queries);
- **sensitivity** — any structural mutation (swapped children, changed
  operator, changed predicate, renamed table, dropped join) *never*
  preserves the signature, or a cache hit would silently serve a wrong
  plan.

Randomized over generated workloads rather than hand-picked examples.
"""

import ast
import collections
import copy
import itertools
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import is_legal_order, plan_signature, query_signature
from repro.datagen import generate_database
from repro.engine.cost_model import DEFAULT_COST_MODEL
from repro.engine.plan import JoinOp, PlanNode, ScanOp, left_deep_plan
from repro.optimizer import HistogramEstimator, plan_with_orders
from repro.sql import BetweenPredicate, Comparison, InPredicate, LikePredicate, Query
from repro.storage import JoinRelation
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=9, num_tables=6, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=5, seed=4))
    items = QueryLabeler(db).label_many(generator.generate(30), with_optimal_order=False)
    assert len(items) >= 10
    return items


def join_nodes(plan: PlanNode) -> list[PlanNode]:
    return [node for node in plan.nodes_preorder() if node.is_join]


def scan_nodes(plan: PlanNode) -> list[PlanNode]:
    return [node for node in plan.nodes_preorder() if node.is_scan]


class TestPlanSignatureSharing:
    def test_deep_copies_share_signature(self, labeled):
        for item in labeled:
            twin = copy.deepcopy(item.plan)
            assert twin is not item.plan
            assert plan_signature(twin) == plan_signature(item.plan)

    def test_regenerated_workload_shares_signatures(self, db):
        """Rebuilding the same workload from scratch reproduces every key."""
        def build():
            generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=8))
            return QueryLabeler(db).label_many(generator.generate(12), with_optimal_order=False)

        first, second = build(), build()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.plan is not b.plan
            assert plan_signature(a.plan) == plan_signature(b.plan)

    def test_signature_is_hashable_and_stable(self, labeled):
        for item in labeled:
            signature = plan_signature(item.plan)
            assert hash(signature) == hash(plan_signature(item.plan))


class TestPlanSignatureSensitivity:
    def test_distinct_plans_have_distinct_signatures(self, labeled):
        signatures = [plan_signature(item.plan) for item in labeled]
        assert len(set(signatures)) == len(signatures)

    def test_swapped_children_change_signature(self, labeled):
        """Every join node: mirroring its children must change the key."""
        checked = 0
        for item in labeled:
            for index, _ in enumerate(join_nodes(item.plan)):
                mutated = copy.deepcopy(item.plan)
                node = join_nodes(mutated)[index]
                node.left, node.right = node.right, node.left
                assert plan_signature(mutated) != plan_signature(item.plan)
                checked += 1
        assert checked >= len(labeled)  # at least one join per query

    def test_changed_join_operator_changes_signature(self, labeled):
        rng = np.random.default_rng(0)
        for item in labeled:
            mutated = copy.deepcopy(item.plan)
            joins = join_nodes(mutated)
            node = joins[rng.integers(0, len(joins))]
            node.join_op = next(op for op in JoinOp if op is not node.join_op)
            assert plan_signature(mutated) != plan_signature(item.plan)

    def test_changed_scan_operator_changes_signature(self, labeled):
        rng = np.random.default_rng(1)
        for item in labeled:
            mutated = copy.deepcopy(item.plan)
            scans = scan_nodes(mutated)
            node = scans[rng.integers(0, len(scans))]
            node.scan_op = ScanOp.INDEX if node.scan_op is not ScanOp.INDEX else ScanOp.SEQ
            assert plan_signature(mutated) != plan_signature(item.plan)

    def test_renamed_table_changes_signature(self, labeled):
        for item in labeled:
            mutated = copy.deepcopy(item.plan)
            scan_nodes(mutated)[0].table = "no_such_table"
            assert plan_signature(mutated) != plan_signature(item.plan)

    def test_dropped_filter_changes_signature(self, labeled):
        changed = 0
        for item in labeled:
            mutated = copy.deepcopy(item.plan)
            for node in scan_nodes(mutated):
                if node.filter is not None and len(node.filter):
                    node.filter = None
                    assert plan_signature(mutated) != plan_signature(item.plan)
                    changed += 1
                    break
        assert changed > 0  # the workload generator does emit filters

    def test_dropped_join_predicate_changes_signature(self, labeled):
        changed = 0
        for item in labeled:
            mutated = copy.deepcopy(item.plan)
            for node in join_nodes(mutated):
                if node.join_predicates:
                    node.join_predicates = node.join_predicates[:-1]
                    assert plan_signature(mutated) != plan_signature(item.plan)
                    changed += 1
                    break
        assert changed > 0


class TestQuerySignature:
    def test_copies_share_signature(self, labeled):
        for item in labeled:
            assert query_signature(copy.deepcopy(item.query)) == query_signature(item.query)

    def test_join_and_filter_order_insensitive(self, labeled):
        """joins/filters are sets; permuting them must not change the key."""
        for item in labeled:
            query = item.query
            permuted = Query(
                tables=list(query.tables),
                joins=list(reversed(query.joins)),
                filters=dict(reversed(list(query.filters.items()))),
            )
            assert query_signature(permuted) == query_signature(query)

    def test_table_order_sensitive(self, labeled):
        """The canonical table order is the decoder's position mapping."""
        item = next(i for i in labeled if i.query.num_tables >= 3)
        query = item.query
        rotated = Query(
            tables=query.tables[1:] + query.tables[:1],
            joins=list(query.joins),
            filters=dict(query.filters),
        )
        assert query_signature(rotated) != query_signature(query)

    def test_dropped_join_changes_signature(self, labeled):
        item = next(i for i in labeled if len(i.query.joins) >= 2)
        query = item.query
        reduced = Query(
            tables=list(query.tables),
            joins=query.joins[:-1],
            filters=dict(query.filters),
        )
        assert query_signature(reduced) != query_signature(query)

    def test_distinct_queries_distinct_signatures(self, labeled):
        signatures = {query_signature(item.query) for item in labeled}
        assert len(signatures) == len(labeled)

    def test_empty_filter_equivalent_to_absent(self, db, labeled):
        """An empty conjunction entry must not change the signature."""
        item = labeled[0]
        query = item.query
        table = query.tables[0]
        if table in query.filters and len(query.filters[table]):
            pytest.skip("first table carries a real filter")
        from repro.sql.predicates import Conjunction

        padded = Query(
            tables=list(query.tables),
            joins=list(query.joins),
            filters={**query.filters, table: Conjunction(table=table, predicates=())},
        )
        assert query_signature(padded) == query_signature(query)


def reference_plan_signature(node: PlanNode) -> tuple:
    """``plan_signature``'s definition, recomputed with no kept value."""
    if node.is_scan:
        filter_sig = None
        if node.filter is not None:
            filter_sig = (node.filter.table, tuple(str(p) for p in node.filter.predicates))
        return ("scan", node.table, node.scan_op.value if node.scan_op else None, filter_sig)
    return (
        "join",
        node.join_op.value if node.join_op else None,
        tuple(str(p) for p in node.join_predicates),
        reference_plan_signature(node.left),
        reference_plan_signature(node.right),
    )


def change_join_operator(plan: PlanNode) -> None:
    node = join_nodes(plan)[-1]
    node.join_op = next(op for op in JoinOp if op is not node.join_op)


def swap_children(plan: PlanNode) -> None:
    node = join_nodes(plan)[0]
    node.left, node.right = node.right, node.left


def rename_table(plan: PlanNode) -> None:
    scan_nodes(plan)[-1].table = "no_such_table"


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


COPIES = pytest.mark.parametrize("duplicate", [copy.deepcopy, pickle_round_trip], ids=["deepcopy", "pickle"])


class TestKeptSignature:
    """A signature is kept on its object; copies and costing never see a stale one."""

    @COPIES
    def test_mutated_copy_of_signed_plan_signs_afresh(self, labeled, duplicate):
        for item in labeled:
            original = plan_signature(item.plan)
            for mutate in (change_join_operator, swap_children, rename_table):
                twin = duplicate(item.plan)
                mutate(twin)
                assert plan_signature(twin) != original
                assert plan_signature(twin) == reference_plan_signature(twin)
            assert plan_signature(item.plan) == original == reference_plan_signature(item.plan)

    def test_mutated_shallow_copy_of_signed_node_signs_afresh(self, labeled):
        for item in labeled:
            original = plan_signature(item.plan)
            twin = copy.copy(item.plan)
            twin.join_op = next(op for op in JoinOp if op is not twin.join_op)
            assert plan_signature(twin) != original
            assert plan_signature(twin) == reference_plan_signature(twin)

    @COPIES
    def test_mutated_copy_of_signed_query_signs_afresh(self, labeled, duplicate):
        item = next(i for i in labeled if len(i.query.joins) >= 2)
        original = query_signature(item.query)
        twin = duplicate(item.query)
        twin.joins.pop()
        twin.tables.reverse()
        assert query_signature(twin) != original
        assert query_signature(twin) == query_signature(duplicate(twin))

    def test_costing_an_unannotated_signed_plan_updates_its_signature(self, labeled):
        """``CostModel.node_cost`` writes unset operators in place: the
        signature read after costing must carry them, on every node."""
        item = next(i for i in labeled if i.query.num_tables >= 3)
        plan = left_deep_plan(item.query, item.plan.leaf_tables_in_order())
        unannotated = plan_signature(plan)
        assert unannotated == reference_plan_signature(plan)
        assert all(node.scan_op is None and node.join_op is None for node in plan.nodes_preorder())
        cardinalities = {node.tables: 10.0 * len(node.tables) for node in plan.nodes_preorder()}
        DEFAULT_COST_MODEL.plan_cost(plan, cardinalities, {table: 100.0 for table in plan.tables})
        for node in plan.nodes_preorder():
            signature = plan_signature(node)
            assert signature == reference_plan_signature(node)
            assert signature[2 if node.is_scan else 1] is not None  # the written operator
        assert plan_signature(plan) != unannotated

    @pytest.mark.threaded
    def test_concurrent_signing_keeps_one_correct_value(self, labeled):
        """The request thread and the drain worker may sign one object at
        once, without a lock: every caller must still read the right value."""
        plans = [copy.deepcopy(item.plan) for item in labeled]
        queries = [copy.deepcopy(item.query) for item in labeled]
        expected = [reference_plan_signature(plan) for plan in plans]
        expected_queries = [query_signature(copy.deepcopy(query)) for query in queries]
        wrong: list[int] = []
        start = threading.Barrier(6)

        def sign():
            start.wait(timeout=10)
            for index, (plan, query) in enumerate(zip(plans, queries)):
                if plan_signature(plan) != expected[index] or query_signature(query) != expected_queries[index]:
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sign) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert [plan_signature(plan) for plan in plans] == expected


class TestKeptPredicateText:
    def test_each_predicate_and_relation_is_stringified_once(self, db, monkeypatch):
        """Predicate text is kept on the frozen predicate objects:
        signing every legal order's plan of a query, over two planner
        calls, stringifies each filter predicate once (every scan shares
        the query's conjunction) and each join relation object once
        (a call's prefixes share its oriented relations)."""
        counts = collections.Counter()
        for cls in (Comparison, BetweenPredicate, InPredicate, LikePredicate, JoinRelation):
            def counting(self, original=cls.__str__):
                counts[id(self)] += 1
                return original(self)

            monkeypatch.setattr(cls, "__str__", counting)
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=4, max_tables=5, seed=13))
        kept = []  # every plan stays alive, so no object id is reused
        for query in generator.generate(6):
            adjacency = query.adjacency_matrix()
            orders = [
                [query.tables[p] for p in perm]
                for perm in itertools.islice(itertools.permutations(range(query.num_tables)), 60)
                if is_legal_order(list(perm), adjacency)
            ]
            for _ in range(2):
                plans = plan_with_orders(query, orders, HistogramEstimator(db))
                kept.append(plans)
                for plan in plans:
                    plan_signature(plan)
                query_signature(query)
        assert counts and set(counts.values()) == {1}


# Attributes ``plan_signature`` / ``query_signature`` read.
SIGNED_FIELDS = {"table", "filter", "scan_op", "join_op", "left", "right", "join_predicates", "tables", "joins", "filters"}
IN_PLACE = {"append", "extend", "insert", "pop", "remove", "sort", "reverse", "clear", "update", "setdefault"}


def test_only_node_cost_writes_a_signed_field_under_src():
    """What keeps a kept signature true: no code under ``src/`` writes a
    field a signature reads, outside constructors, except the unset-
    operator fills of ``CostModel.node_cost`` (which the signature never
    keeps — see the test above)."""
    root = Path(repro.__file__).parent
    writes = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                targets = []
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        targets.extend(target.elts if isinstance(target, ast.Tuple) else [target])
                    targets = [t.value if isinstance(t, ast.Subscript) else t for t in targets]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in IN_PLACE:
                    targets = [node.func.value]
                for target in targets:
                    if not (isinstance(target, ast.Attribute) and target.attr in SIGNED_FIELDS):
                        continue
                    on_self = isinstance(target.value, ast.Name) and target.value.id == "self"
                    if on_self and function.name == "__init__":
                        continue
                    writes.add((path.relative_to(root).as_posix(), function.name, target.attr))
    assert writes == {
        ("engine/cost_model.py", "node_cost", "scan_op"),
        ("engine/cost_model.py", "node_cost", "join_op"),
    }
