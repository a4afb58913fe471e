"""Tests for predicates, the query model and the SQL parser."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import query_signature
from repro.datagen import generate_database
from repro.sql import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
    Query,
    SQLSyntaxError,
    like_to_regex,
    parse_query,
)
from repro.storage import JoinRelation, Table
from repro.workload import WorkloadConfig, WorkloadGenerator


@functools.lru_cache(maxsize=None)
def workload_db():
    return generate_database(seed=3, num_tables=6, row_range=(40, 120), attr_range=(2, 4))


@pytest.fixture
def table():
    return Table.from_dict(
        "t",
        {
            "id": [1, 2, 3, 4, 5],
            "score": [0.1, 0.5, 0.9, 0.5, 0.3],
            "name": ["alpha", "beta", "alphabet", "gamma", "beta"],
        },
    )


class TestComparison:
    def test_numeric_ops(self, table):
        assert Comparison("t", "id", CompareOp.LT, 3).evaluate(table).sum() == 2
        assert Comparison("t", "id", CompareOp.GE, 3).evaluate(table).sum() == 3
        assert Comparison("t", "score", CompareOp.EQ, 0.5).evaluate(table).sum() == 2
        assert Comparison("t", "score", CompareOp.NE, 0.5).evaluate(table).sum() == 3

    def test_string_equality(self, table):
        mask = Comparison("t", "name", CompareOp.EQ, "beta").evaluate(table)
        np.testing.assert_array_equal(mask, [False, True, False, False, True])

    def test_str_rendering(self):
        assert str(Comparison("t", "id", CompareOp.LE, 7)) == "t.id <= 7"
        assert str(Comparison("t", "name", CompareOp.EQ, "x")) == "t.name = 'x'"


class TestBetweenIn:
    def test_between_inclusive(self, table):
        mask = BetweenPredicate("t", "id", 2, 4).evaluate(table)
        assert mask.sum() == 3

    def test_in_numeric(self, table):
        mask = InPredicate("t", "id", (1, 5, 99)).evaluate(table)
        assert mask.sum() == 2

    def test_in_string(self, table):
        mask = InPredicate("t", "name", ("beta", "gamma")).evaluate(table)
        assert mask.sum() == 3


class TestLike:
    def test_prefix(self, table):
        mask = LikePredicate("t", "name", "alpha%").evaluate(table)
        assert mask.sum() == 2

    def test_contains(self, table):
        mask = LikePredicate("t", "name", "%et%").evaluate(table)
        np.testing.assert_array_equal(mask, [False, True, True, False, True])

    def test_underscore(self, table):
        mask = LikePredicate("t", "name", "bet_").evaluate(table)
        assert mask.sum() == 2

    def test_negated(self, table):
        like = LikePredicate("t", "name", "alpha%").evaluate(table)
        notlike = LikePredicate("t", "name", "alpha%", negated=True).evaluate(table)
        np.testing.assert_array_equal(like, ~notlike)

    def test_exact_match_no_wildcards(self, table):
        mask = LikePredicate("t", "name", "gamma").evaluate(table)
        assert mask.sum() == 1

    def test_regex_metacharacters_escaped(self):
        regex = like_to_regex("a.b%")
        assert regex.match("a.bXX")
        assert not regex.match("aXbXX")

    @given(st.text(alphabet="ab%_", min_size=0, max_size=8), st.text(alphabet="ab", min_size=0, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_like_matches_reference_implementation(self, pattern, value):
        """LIKE via regex agrees with a simple recursive reference matcher."""

        def ref(p, v):
            if not p:
                return not v
            if p[0] == "%":
                return any(ref(p[1:], v[i:]) for i in range(len(v) + 1))
            if not v:
                return False
            if p[0] == "_" or p[0] == v[0]:
                return ref(p[1:], v[1:])
            return False

        assert (like_to_regex(pattern).match(value) is not None) == ref(pattern, value)


class TestConjunction:
    def test_empty_is_true(self, table):
        conj = Conjunction(table="t", predicates=())
        assert conj.evaluate(table).all()
        assert str(conj) == "TRUE"

    def test_and_semantics(self, table):
        conj = Conjunction(
            table="t",
            predicates=(
                Comparison("t", "id", CompareOp.GT, 1),
                Comparison("t", "score", CompareOp.LE, 0.5),
            ),
        )
        assert conj.evaluate(table).sum() == 3

    def test_cross_table_predicate_rejected(self):
        with pytest.raises(ValueError):
            Conjunction(table="t", predicates=(Comparison("other", "id", CompareOp.EQ, 1),))


class TestQueryModel:
    def _query(self):
        return Query(
            tables=["a", "b", "c"],
            joins=[JoinRelation("a", "bid", "b", "id"), JoinRelation("b", "cid", "c", "id")],
            filters={"a": Conjunction(table="a", predicates=(Comparison("a", "x", CompareOp.GT, 0),))},
        )

    def test_adjacency(self):
        adj = self._query().adjacency_matrix()
        assert adj[0, 1] and adj[1, 2] and not adj[0, 2]
        assert (adj == adj.T).all()

    def test_connectivity(self):
        assert self._query().is_connected()
        disconnected = Query(tables=["a", "b"], joins=[])
        assert not disconnected.is_connected()
        single = Query(tables=["a"])
        assert single.is_connected()

    def test_join_outside_tables_rejected(self):
        with pytest.raises(ValueError):
            Query(tables=["a"], joins=[JoinRelation("a", "x", "zz", "y")])

    def test_filter_on_missing_table_rejected(self):
        with pytest.raises(ValueError):
            Query(tables=["a"], filters={"b": Conjunction(table="b", predicates=())})

    def test_joins_between(self):
        q = self._query()
        between = q.joins_between({"a"}, {"b"})
        assert len(between) == 1
        assert between[0].left == "a"
        reversed_between = q.joins_between({"b"}, {"a"})
        assert reversed_between[0].left == "b"

    @given(seed=st.none() | st.integers(0, 2**16))
    @example(seed=None)
    @settings(max_examples=40, deadline=None)
    def test_to_sql_roundtrip(self, seed):
        """``None`` is the hand-written query; a seed draws one from
        ``WorkloadGenerator`` (joins plus comparison / BETWEEN / IN /
        LIKE filters), so parse -> ``to_sql`` -> parse must keep its
        structural signature."""
        if seed is None:
            q = self._query()
        else:
            config = WorkloadConfig(min_tables=1, max_tables=6, seed=seed)
            q = WorkloadGenerator(workload_db(), config).generate(1)[0]
        reparsed = parse_query(q.to_sql())
        assert reparsed.tables == q.tables
        assert reparsed.joins == q.joins
        assert set(reparsed.filters) == set(q.filters)
        assert query_signature(reparsed) == query_signature(q)


# Literal text holding the characters that delimit SQL literals and lists.
_LITERALS = st.text(alphabet="ab', %_()", max_size=8)


class TestQuotedLiterals:
    """A string literal renders with its quotes doubled, the form the
    parser's ``_unquote`` reads back, so ``to_sql`` parses and two
    different filters never share one text or signature."""

    @given(
        value=_LITERALS,
        values=st.lists(_LITERALS, min_size=1, max_size=3).map(tuple),
        pattern=_LITERALS,
        negated=st.booleans(),
    )
    @example(value="o'brien", values=("x', 'y",), pattern="%'%", negated=False)
    @settings(max_examples=80, deadline=None)
    def test_to_sql_roundtrip_with_quotes_and_commas(self, value, values, pattern, negated):
        predicates = (
            Comparison("t", "s", CompareOp.EQ, value),
            InPredicate("t", "s", values),
            LikePredicate("t", "s", pattern, negated),
        )
        query = Query(tables=["t"], joins=[], filters={"t": Conjunction("t", predicates)})
        reparsed = parse_query(query.to_sql())
        assert reparsed.filters["t"].predicates == predicates
        assert query_signature(reparsed) == query_signature(query)

    def test_rendering_doubles_quotes(self):
        assert str(Comparison("t", "s", CompareOp.EQ, "o'brien")) == "t.s = 'o''brien'"
        assert str(InPredicate("t", "s", ("x', 'y",))) == "t.s IN ('x'', ''y')"
        assert str(LikePredicate("t", "s", "%'", negated=True)) == "t.s NOT LIKE '%'''"

    def test_list_values_do_not_merge(self):
        """One value holding ``', '`` and two values are two filters."""
        one = InPredicate("t", "s", ("x', 'y",))
        two = InPredicate("t", "s", ("x", "y"))
        assert str(one) != str(two)
        queries = [Query(tables=["t"], joins=[], filters={"t": Conjunction("t", (p,))}) for p in (one, two)]
        assert query_signature(queries[0]) != query_signature(queries[1])
        assert [parse_query(q.to_sql()).filters["t"].predicates for q in queries] == [(one,), (two,)]


class TestParser:
    def test_basic_query(self):
        q = parse_query("SELECT COUNT(*) FROM a, b WHERE a.bid = b.id AND a.x > 5")
        assert q.tables == ["a", "b"]
        assert q.joins == [JoinRelation("a", "bid", "b", "id")]
        preds = q.filters["a"].predicates
        assert preds[0] == Comparison("a", "x", CompareOp.GT, 5)

    def test_no_where(self):
        q = parse_query("SELECT COUNT(*) FROM solo;")
        assert q.tables == ["solo"]
        assert not q.joins

    def test_like(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.name LIKE '%ab%'")
        pred = q.filters["t"].predicates[0]
        assert isinstance(pred, LikePredicate)
        assert pred.pattern == "%ab%"

    def test_not_like(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.name NOT LIKE 'x%'")
        assert q.filters["t"].predicates[0].negated

    def test_between(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.v BETWEEN 1 AND 10")
        pred = q.filters["t"].predicates[0]
        assert isinstance(pred, BetweenPredicate)
        assert (pred.low, pred.high) == (1.0, 10.0)

    def test_in_list(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.v IN (1, 2, 3)")
        pred = q.filters["t"].predicates[0]
        assert isinstance(pred, InPredicate)
        assert pred.values == (1, 2, 3)

    def test_string_literal_with_quote(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.name = 'o''brien'")
        assert q.filters["t"].predicates[0].value == "o'brien"

    def test_negative_and_float_literals(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.v > -2.5")
        assert q.filters["t"].predicates[0].value == pytest.approx(-2.5)

    def test_neq_spellings(self):
        for op in ("!=", "<>"):
            q = parse_query(f"SELECT COUNT(*) FROM t WHERE t.v {op} 3")
            assert q.filters["t"].predicates[0].op is CompareOp.NE

    def test_multi_join_query(self):
        q = parse_query(
            "SELECT COUNT(*) FROM a, b, c "
            "WHERE a.bid = b.id AND b.cid = c.id AND c.z LIKE 'k%' AND a.w <= 9"
        )
        assert len(q.joins) == 2
        assert len(q.filters["c"].predicates) == 1
        assert len(q.filters["a"].predicates) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM",
            "SELECT COUNT(*) FROM t WHERE",
            "SELECT COUNT(*) FROM t WHERE name = 3",  # unqualified column
            "SELECT COUNT(*) FROM t WHERE t.a < t.b",  # non-equi column pair
            "SELECT COUNT(*) FROM a WHERE a.x = zz.y",  # join to unknown table
            "SELECT COUNT(*) FROM t extra_garbage",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse_query(bad)


def like_reference(pattern, value):
    """SQL LIKE, one character at a time (``%`` any run, ``_`` any one)."""
    if not pattern:
        return not value
    if pattern[0] == "%":
        return any(like_reference(pattern[1:], value[i:]) for i in range(len(value) + 1))
    if not value:
        return False
    if pattern[0] == "_" or pattern[0] == value[0]:
        return like_reference(pattern[1:], value[1:])
    return False


_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def sql_literal(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@st.composite
def scan_cases(draw):
    """A table of integer, half-step float and string columns, and
    filter conditions whose literals are mostly the column's own values,
    so comparisons, BETWEEN bounds and IN lists tie with rows."""
    n = draw(st.integers(1, 25))
    columns = {
        "i": draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
        "f": [h / 2 for h in draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))],
        "s": draw(st.lists(st.text(alphabet="ab'", max_size=3), min_size=n, max_size=n)),
    }

    def literal(column):
        values = columns[column]
        if draw(st.booleans()):
            return draw(st.sampled_from(values))
        if column == "s":
            return draw(st.text(alphabet="ab'", max_size=3))
        return draw(st.sampled_from(values)) + draw(st.sampled_from([-1, 1])) * (0.5 if column == "f" else 1)

    conditions = []
    for _ in range(draw(st.integers(1, 4))):
        column = draw(st.sampled_from(list(columns)))
        kind = draw(st.sampled_from(["compare", "in", "like" if column == "s" else "between"]))
        if kind == "compare":
            conditions.append((column, draw(st.sampled_from(list(_COMPARE))), literal(column)))
        elif kind == "between":
            conditions.append((column, "BETWEEN", (literal(column), literal(column))))
        elif kind == "in":
            count = draw(st.integers(1, 4))
            conditions.append((column, "IN", tuple(literal(column) for _ in range(count))))
        elif kind == "like":
            pattern = draw(st.text(alphabet="ab'%_", max_size=4))
            conditions.append((column, draw(st.sampled_from(["LIKE", "NOT LIKE"])), pattern))
    return columns, conditions


def render(column, op, operand):
    if op == "BETWEEN":
        return f"t.{column} BETWEEN {sql_literal(operand[0])} AND {sql_literal(operand[1])}"
    if op == "IN":
        return f"t.{column} IN ({', '.join(sql_literal(v) for v in operand)})"
    return f"t.{column} {op} {sql_literal(operand)}"


def holds(value, op, operand):
    """One condition on one row's value, in Python."""
    if op == "BETWEEN":
        return float(operand[0]) <= value <= float(operand[1])
    if op == "IN":
        return value in {v if isinstance(value, str) else float(v) for v in operand}
    if op == "LIKE":
        return like_reference(operand, value)
    if op == "NOT LIKE":
        return not like_reference(operand, value)
    return _COMPARE[op](value, operand if isinstance(value, str) else float(operand))


class TestParsedScanOracle:
    """A parsed ``Conjunction`` run through the engine's scan selects the
    rows a row-by-row Python reading of the SQL selects."""

    @given(scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_scan_selects_the_reference_rows(self, case):
        from repro.engine import ScanOp, scan_node
        from repro.engine.operators import execute_scan
        from repro.storage import Database

        columns, conditions = case
        table = Table.from_dict(
            "t", {"i": np.asarray(columns["i"], dtype=np.int64), "f": np.asarray(columns["f"]), "s": columns["s"]}
        )
        db = Database("scan", [table])
        sql = "SELECT COUNT(*) FROM t WHERE " + " AND ".join(render(*c) for c in conditions)
        conjunction = parse_query(sql).filter_for("t")
        assert len(conjunction) == len(conditions)
        rows = [
            {"i": float(columns["i"][r]), "f": columns["f"][r], "s": columns["s"][r]}
            for r in range(len(columns["i"]))
        ]
        expected = [r for r, row in enumerate(rows) if all(holds(row[c], op, v) for c, op, v in conditions)]
        for scan_op in (ScanOp.SEQ, ScanOp.INDEX):
            intermediate, report = execute_scan(scan_node("t", conjunction, scan_op), db)
            assert intermediate.rows["t"].tolist() == expected, sql
            assert report.tuples_emitted == len(expected)
