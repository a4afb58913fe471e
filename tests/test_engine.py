"""Tests for plan trees, operators, the executor, cost and timing models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    DEFAULT_COST_MODEL,
    CostModel,
    DEFAULT_TIMING,
    ExecutionLimitError,
    JoinOp,
    ScanOp,
    TimingAlignedCostModel,
    equi_join_positions,
    execute_plan,
    join_node,
    left_deep_plan,
    scan_node,
)
from repro.sql import Comparison, CompareOp, Conjunction, Query, parse_query
from repro.storage import Database, JoinRelation, Table


@pytest.fixture
def db():
    """A tiny star schema: orders (fact) -> customers, products (dims)."""
    rng = np.random.default_rng(42)
    n_orders, n_customers, n_products = 500, 50, 20
    customers = Table.from_dict(
        "customers",
        {"id": np.arange(n_customers), "region": rng.integers(0, 5, n_customers)},
        primary_key="id",
    )
    products = Table.from_dict(
        "products",
        {"id": np.arange(n_products), "price": rng.uniform(1, 100, n_products)},
        primary_key="id",
    )
    orders = Table.from_dict(
        "orders",
        {
            "id": np.arange(n_orders),
            "customer_id": rng.integers(0, n_customers, n_orders),
            "product_id": rng.integers(0, n_products, n_orders),
            "quantity": rng.integers(1, 10, n_orders),
        },
        primary_key="id",
    )
    database = Database("shop", [orders, customers, products])
    database.add_join(JoinRelation("orders", "customer_id", "customers", "id"))
    database.add_join(JoinRelation("orders", "product_id", "products", "id"))
    return database


def brute_force_count(db, query) -> int:
    """Reference implementation: nested loops over raw rows."""
    masks = {}
    for t in query.tables:
        table = db.table(t)
        masks[t] = query.filter_for(t).evaluate(table)

    def rows(t):
        return np.flatnonzero(masks[t])

    combos = [{}]
    for t in query.tables:
        combos = [dict(c, **{t: r}) for c in combos for r in rows(t)]
    count = 0
    for combo in combos:
        ok = True
        for j in query.joins:
            lval = db.table(j.left).column(j.left_column).values[combo[j.left]]
            rval = db.table(j.right).column(j.right_column).values[combo[j.right]]
            if lval != rval:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestEquiJoinPositions:
    def test_simple_match(self):
        lp, rp = equi_join_positions(np.array([1, 2, 3]), np.array([2, 3, 4]))
        pairs = set(zip(lp.tolist(), rp.tolist()))
        assert pairs == {(1, 0), (2, 1)}

    def test_many_to_many(self):
        lp, rp = equi_join_positions(np.array([5, 5]), np.array([5, 5, 5]))
        assert len(lp) == 6

    def test_empty_inputs(self):
        lp, rp = equi_join_positions(np.array([]), np.array([1.0]))
        assert len(lp) == 0

    def test_no_matches(self):
        lp, rp = equi_join_positions(np.array([1, 2]), np.array([3, 4]))
        assert len(lp) == 0

    @given(
        st.lists(st.integers(0, 5), min_size=0, max_size=30),
        st.lists(st.integers(0, 5), min_size=0, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_nested_loop_reference(self, left, right):
        left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        lp, rp = equi_join_positions(left, right)
        got = sorted(zip(lp.tolist(), rp.tolist()))
        expected = sorted(
            (i, j) for i in range(len(left)) for j in range(len(right)) if left[i] == right[j]
        )
        assert got == expected


def record_key_join(node, left, right, db):
    """``execute_join``'s rows as they were when several predicates'
    keys were record arrays (``np.rec.fromarrays``) compared field by
    field."""

    def keys(intermediate):
        columns = []
        for pred in node.join_predicates:
            side = (pred.left, pred.left_column) if pred.left in intermediate.tables else (pred.right, pred.right_column)
            values = intermediate.column_values(db, *side)
            columns.append(values.astype(str) if values.dtype == object else values)
        return columns[0] if len(columns) == 1 else np.rec.fromarrays(columns)

    lpos, rpos = equi_join_positions(keys(left), keys(right))
    rows = {table: ids[lpos] for table, ids in left.rows.items()}
    rows.update({table: ids[rpos] for table, ids in right.rows.items()})
    return rows


def assert_rows_equal(got, expected):
    assert list(got) == list(expected)
    for table in expected:
        assert got[table].dtype == expected[table].dtype
        np.testing.assert_array_equal(got[table], expected[table])


class TestMultiPredicateJoinKeys:
    """Several join predicates key a join on one int64 code per row; the
    pairs and their order are the record-array keys' (``record_key_join``)."""

    @given(
        st.integers(1, 3),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_codes_pair_rows_like_record_arrays(self, num_keys, n_left, n_right, spread, seed):
        from repro.engine.operators import Intermediate, execute_join

        rng = np.random.default_rng(seed)
        words = np.array(["a", "b", "c", "d"])
        data = {}
        for name, n in (("l", n_left), ("r", n_right)):
            columns = {"id": np.arange(n)}
            for k in range(num_keys):
                values = rng.integers(0, spread, n)
                # The second key column holds strings, others integers.
                columns[f"k{k}"] = words[values] if k == 1 else values
            data[name] = Table.from_dict(name, columns, primary_key="id")
        database = Database("keys", list(data.values()))
        predicates = [JoinRelation("l", f"k{k}", "r", f"k{k}") for k in range(num_keys)]
        node = join_node(scan_node("l"), scan_node("r"), predicates, JoinOp.HASH)
        left = Intermediate({"l": rng.permutation(n_left).astype(np.int64)})
        right = Intermediate({"r": rng.permutation(n_right).astype(np.int64)})
        got, _ = execute_join(node, left, right, database)
        assert_rows_equal(got.rows, record_key_join(node, left, right, database))


class TestPlanTree:
    def test_scan_node_fields(self):
        node = scan_node("orders")
        assert node.is_scan and not node.is_join
        assert node.tables == frozenset(["orders"])
        assert node.leaf_tables_in_order() == ["orders"]

    def test_join_node_overlap_rejected(self):
        a, b = scan_node("x"), scan_node("x")
        with pytest.raises(ValueError):
            join_node(a, b, [JoinRelation("x", "a", "x", "b")])

    def test_join_node_requires_predicates(self):
        with pytest.raises(ValueError):
            join_node(scan_node("a"), scan_node("b"), [])

    def test_left_deep_plan_structure(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers, products "
            "WHERE orders.customer_id = customers.id AND orders.product_id = products.id"
        )
        plan = left_deep_plan(query, ["orders", "customers", "products"])
        assert plan.is_left_deep()
        assert plan.leaf_tables_in_order() == ["orders", "customers", "products"]
        assert plan.depth() == 3

    def test_left_deep_illegal_order_rejected(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers, products "
            "WHERE orders.customer_id = customers.id AND orders.product_id = products.id"
        )
        with pytest.raises(ValueError):
            left_deep_plan(query, ["customers", "products", "orders"])

    def test_left_deep_wrong_tables_rejected(self, db):
        query = parse_query("SELECT COUNT(*) FROM orders")
        with pytest.raises(ValueError):
            left_deep_plan(query, ["orders", "customers"])

    def test_preorder_postorder(self):
        q = Query(
            tables=["a", "b"],
            joins=[JoinRelation("a", "x", "b", "y")],
        )
        plan = left_deep_plan(q, ["a", "b"])
        pre = plan.nodes_preorder()
        post = plan.nodes_postorder()
        assert pre[0].is_join and post[-1].is_join
        assert len(pre) == len(post) == 3

    def test_pretty_rendering(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer_id = customers.id"
        )
        plan = left_deep_plan(query, ["orders", "customers"], join_op=JoinOp.HASH, scan_op=ScanOp.SEQ)
        text = plan.pretty()
        assert "HashJoin" in text and "SeqScan" in text


class TestExecutor:
    def test_single_table_count(self, db):
        query = parse_query("SELECT COUNT(*) FROM orders WHERE orders.quantity >= 5")
        plan = left_deep_plan(query, ["orders"])
        result = execute_plan(plan, db)
        expected = (db.table("orders").column("quantity").values >= 5).sum()
        assert result.cardinality == expected

    def test_two_way_join_matches_brute_force(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers "
            "WHERE orders.customer_id = customers.id AND customers.region = 2"
        )
        plan = left_deep_plan(query, ["orders", "customers"])
        result = execute_plan(plan, db)
        # brute force on a reduced subset for speed: region filter first
        region_customers = np.flatnonzero(db.table("customers").column("region").values == 2)
        expected = np.isin(db.table("orders").column("customer_id").values, region_customers).sum()
        assert result.cardinality == expected

    def test_three_way_join_both_orders_same_cardinality(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers, products "
            "WHERE orders.customer_id = customers.id AND orders.product_id = products.id "
            "AND products.price <= 50"
        )
        r1 = execute_plan(left_deep_plan(query, ["orders", "customers", "products"]), db)
        r2 = execute_plan(left_deep_plan(query, ["products", "orders", "customers"]), db)
        assert r1.cardinality == r2.cardinality

    def test_small_brute_force_agreement(self):
        a = Table.from_dict("a", {"id": [1, 2, 3], "k": [1, 1, 2], "v": [5, 6, 7]})
        b = Table.from_dict("b", {"k": [1, 2, 2], "w": [1.0, 2.0, 3.0]})
        db2 = Database("d", [a, b])
        db2.add_join(JoinRelation("a", "k", "b", "k"))
        query = parse_query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 6")
        plan = left_deep_plan(query, ["a", "b"])
        result = execute_plan(plan, db2)
        assert result.cardinality == brute_force_count(db2, query)

    def test_node_annotations(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer_id = customers.id"
        )
        plan = left_deep_plan(query, ["orders", "customers"])
        result = execute_plan(plan, db)
        assert result.num_nodes == 3
        assert plan.true_cardinality == result.cardinality
        for node in plan.nodes_preorder():
            assert node.true_cardinality is not None

    def test_intermediate_cap(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer_id = customers.id"
        )
        plan = left_deep_plan(query, ["orders", "customers"])
        with pytest.raises(ExecutionLimitError):
            execute_plan(plan, db, max_intermediate_rows=10)

    def test_simulated_time_positive_and_additive(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer_id = customers.id"
        )
        plan = left_deep_plan(query, ["orders", "customers"], join_op=JoinOp.HASH)
        result = execute_plan(plan, db)
        assert result.simulated_ms > 0
        assert result.simulated_ms == pytest.approx(sum(result.node_times))

    def test_join_op_affects_time_not_result(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer_id = customers.id"
        )
        results = {}
        for op in JoinOp:
            plan = left_deep_plan(query, ["orders", "customers"], join_op=op)
            results[op] = execute_plan(plan, db)
        cards = {r.cardinality for r in results.values()}
        assert len(cards) == 1
        assert results[JoinOp.NESTED_LOOP].simulated_ms > results[JoinOp.HASH].simulated_ms


class TestCostModel:
    def test_index_scan_cheaper_when_selective(self):
        cm = DEFAULT_COST_MODEL
        op, _ = cm.best_scan_op(base_rows=100_000, output_rows=10, has_filter=True)
        assert op is ScanOp.INDEX

    def test_seq_scan_cheaper_when_unselective(self):
        cm = DEFAULT_COST_MODEL
        op, _ = cm.best_scan_op(base_rows=100_000, output_rows=90_000, has_filter=True)
        assert op is ScanOp.SEQ

    def test_no_filter_forces_seq(self):
        op, _ = DEFAULT_COST_MODEL.best_scan_op(1000, 1000, has_filter=False)
        assert op is ScanOp.SEQ

    def test_nested_loop_wins_tiny_inputs(self):
        op, _ = DEFAULT_COST_MODEL.best_join_op(2, 2, 4)
        assert op is JoinOp.NESTED_LOOP

    def test_hash_wins_large_inputs(self):
        op, _ = DEFAULT_COST_MODEL.best_join_op(50_000, 40_000, 60_000)
        assert op is JoinOp.HASH

    def test_plan_cost_annotates_ops(self, db):
        query = parse_query(
            "SELECT COUNT(*) FROM orders, customers WHERE orders.customer_id = customers.id"
        )
        plan = left_deep_plan(query, ["orders", "customers"])
        cards = {
            frozenset(["orders"]): 500.0,
            frozenset(["customers"]): 50.0,
            frozenset(["orders", "customers"]): 500.0,
        }
        total = DEFAULT_COST_MODEL.plan_cost(plan, cards, {"orders": 500, "customers": 50})
        assert total > 0
        for node in plan.nodes_preorder():
            assert node.estimated_cost is not None
            if node.is_join:
                assert node.join_op is not None
            else:
                assert node.scan_op is not None

    def test_best_ops_choose_by_the_instances_own_formulas(self):
        """``best_join_op`` / ``best_scan_op`` are the strict-``<`` argmin,
        in HASH → NESTED_LOOP (SEQ → INDEX) tie order, of the
        instance's own ``join_cost`` / ``scan_cost`` — the timing-aligned
        model's overrides included — over sizes with rows below 1, the
        chosen cost's type included.  The timing model ties at zero rows,
        a zero-weight model everywhere."""

        def argmin(priced):
            best_op, best_cost = None, float("inf")
            for op, cost in priced:
                if cost < best_cost:
                    best_op, best_cost = op, cost
            return best_op, best_cost

        flat = CostModel(**{name: 0.0 for name in CostModel.__dataclass_fields__ if name != "rows_per_page"})
        rows = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 64.0, 1e3, 4e4]
        ties = {}
        for model in (DEFAULT_COST_MODEL, TimingAlignedCostModel(), flat):
            ties[model] = 0
            for left in rows:
                for right in rows:
                    for out in rows:
                        priced = [
                            (op, model.join_cost(left, right, out, op))
                            for op in (JoinOp.HASH, JoinOp.NESTED_LOOP)
                        ]
                        expected = argmin(priced)
                        chosen = model.best_join_op(left, right, out)
                        assert chosen == expected
                        assert type(chosen[1]) is type(expected[1])
                        ties[model] += sum(cost == expected[1] for _, cost in priced) > 1
                    for has_filter in (False, True):
                        ops = (ScanOp.SEQ, ScanOp.INDEX) if has_filter else (ScanOp.SEQ,)
                        priced = [(op, model.scan_cost(left, right, op)) for op in ops]
                        assert model.best_scan_op(left, right, has_filter) == argmin(priced)
        assert list(ties.values())[1:] == [len(rows), len(rows) ** 3]  # both inputs empty / every size

    def test_costs_monotone_in_rows(self):
        cm = DEFAULT_COST_MODEL
        assert cm.scan_cost(1000, 100, ScanOp.SEQ) < cm.scan_cost(10000, 100, ScanOp.SEQ)
        assert cm.join_cost(10, 10, 10, JoinOp.HASH) < cm.join_cost(1000, 1000, 1000, JoinOp.HASH)
