"""Tests for columns, tables, join schemas, statistics and the catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spanning_join_order
from naive_estimator import (
    naive_equality_selectivity,
    naive_mcv_selectivity,
    naive_selectivity_le,
    naive_selectivity_range,
)
from repro.sql import BetweenPredicate, Comparison, CompareOp, InPredicate, Query
from repro.storage import (
    Column,
    ColumnStatistics,
    ColumnType,
    Database,
    EquiDepthHistogram,
    JoinRelation,
    JoinSchema,
    Table,
    analyze_column,
    analyze_table,
)

_NUMPY_OPS = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


class TestColumn:
    def test_int_inference(self):
        col = Column("a", [1, 2, 3])
        assert col.ctype is ColumnType.INT
        assert col.is_numeric

    def test_float_inference(self):
        assert Column("a", [1.5, 2.5]).ctype is ColumnType.FLOAT

    def test_string_inference_and_dictionary(self):
        col = Column("s", ["x", "y", "x"])
        assert col.ctype is ColumnType.STRING
        assert sorted(col.dictionary) == ["x", "y"]
        assert col.n_distinct() == 2
        np.testing.assert_array_equal(col.dictionary[col.codes], ["x", "y", "x"])

    def test_numeric_values_on_string_raises(self):
        with pytest.raises(TypeError):
            Column("s", ["a"]).numeric_values()

    @pytest.mark.parametrize("values", [[3, -1, 7], [1.5, -2.25, 0.0]])
    def test_numeric_values_are_computed_once_and_read_only(self, values):
        col = Column("a", values)
        numeric = col.numeric_values()
        assert numeric.dtype == np.float64 and numeric.tolist() == [float(v) for v in values]
        assert col.numeric_values() is numeric
        with pytest.raises(ValueError):
            numeric[0] = 99.0
        with pytest.raises(ValueError):
            np.negative(numeric, out=numeric)
        assert col.numeric_values().tolist() == [float(v) for v in values]
        # A float column's is a view of its data, an int column's a copy.
        assert np.shares_memory(numeric, col.values) == (col.ctype is ColumnType.FLOAT)

    @given(
        ints=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        offsets=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_predicates_read_the_shared_values_as_before(self, ints, offsets):
        """Every numeric predicate's mask equals the one it computed over
        a fresh float64 copy of the column, and the column's values are
        unchanged after all of them ran."""
        table = Table.from_dict("t", {"i": ints, "f": [v / 4.0 for v in ints]})
        anchor = float(ints[0])
        for column in ("i", "f"):
            fresh = table.column(column).values.astype(np.float64)
            low, high = sorted((anchor + offsets[0], anchor + offsets[1]))
            cases = [(Comparison("t", column, op, anchor + offsets[2]), op) for op in CompareOp]
            cases.append((BetweenPredicate("t", column, low, high), None))
            cases.append((InPredicate("t", column, (anchor, anchor + offsets[2], 3)), None))
            for predicate, op in cases:
                if isinstance(predicate, Comparison):
                    expected = _NUMPY_OPS[op](fresh, float(predicate.value))
                elif isinstance(predicate, BetweenPredicate):
                    expected = (fresh >= predicate.low) & (fresh <= predicate.high)
                else:
                    expected = np.isin(fresh, np.asarray([float(v) for v in predicate.values]))
                np.testing.assert_array_equal(predicate.evaluate(table), expected)
            np.testing.assert_array_equal(table.column(column).numeric_values(), fresh)

    def test_take_and_filter(self):
        col = Column("a", [10, 20, 30, 40])
        np.testing.assert_array_equal(col.take(np.array([2, 0])).values, [30, 10])
        np.testing.assert_array_equal(col.filter(np.array([True, False, True, False])).values, [10, 30])


class TestTable:
    def _table(self):
        return Table.from_dict("t", {"id": [1, 2, 3], "v": [1.0, 2.0, 3.0], "s": ["a", "b", "a"]}, primary_key="id")

    def test_basic_properties(self):
        t = self._table()
        assert t.num_rows == 3
        assert t.num_columns == 3
        assert "id" in t
        assert t.numeric_columns() == ["id", "v"]
        assert t.string_columns() == ["s"]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("bad", [Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("bad", [Column("a", [1]), Column("a", [2])])

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table("bad", [])

    def test_missing_primary_key_rejected(self):
        with pytest.raises(KeyError):
            Table("bad", [Column("a", [1])], primary_key="zzz")

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            self._table().column("nope")

    def test_filter_take(self):
        t = self._table()
        filtered = t.filter(np.array([True, False, True]))
        assert filtered.num_rows == 2
        np.testing.assert_array_equal(filtered.column("id").values, [1, 3])
        taken = t.take(np.array([1, 1]))
        np.testing.assert_array_equal(taken.column("s").values, ["b", "b"])

    def test_filter_bad_mask_shape(self):
        with pytest.raises(ValueError):
            self._table().filter(np.array([True]))

    def test_zero_row_table_allowed(self):
        t = Table.from_dict("empty", {"a": np.array([], dtype=np.int64)})
        assert t.num_rows == 0
        assert t.filter(np.array([], dtype=bool)).num_rows == 0


class TestJoinSchema:
    def _schema(self):
        return JoinSchema([
            JoinRelation("fact", "d1_id", "dim1", "id"),
            JoinRelation("fact", "d2_id", "dim2", "id"),
            JoinRelation("dim2", "d3_id", "dim3", "id"),
        ])

    def test_tables_and_neighbors(self):
        s = self._schema()
        assert s.tables == ["dim1", "dim2", "dim3", "fact"]
        assert s.neighbors("fact") == ["dim1", "dim2"]

    def test_relation_between_orients_result(self):
        s = self._schema()
        rel = s.relation_between("dim1", "fact")
        assert rel.left == "dim1" and rel.right == "fact"
        assert rel.left_column == "id" and rel.right_column == "d1_id"

    def test_relation_between_missing(self):
        assert self._schema().relation_between("dim1", "dim3") is None

    def test_connectivity(self):
        s = self._schema()
        assert s.is_connected(["fact", "dim1"])
        assert s.is_connected(["fact", "dim2", "dim3"])
        assert not s.is_connected(["dim1", "dim3"])
        assert not s.is_connected([])
        assert not s.is_connected(["ghost"])

    def test_adjacency_matrix(self):
        s = self._schema()
        tables = ["fact", "dim2", "dim3"]
        joins = [s.relation_between("fact", "dim2"), s.relation_between("dim2", "dim3")]
        adj = Query(tables=tables, joins=joins).adjacency_matrix()
        assert adj[0, 1] and adj[1, 2]
        assert not adj[0, 2]
        assert not adj.diagonal().any()

    def test_spanning_join_order_is_legal(self):
        s = self._schema()
        order = spanning_join_order(s, ["dim3", "dim2", "fact", "dim1"], start="fact")
        assert order[0] == "fact"
        joined = {order[0]}
        for table in order[1:]:
            assert any(s.relation_between(table, j) is not None for j in joined)
            joined.add(table)

    def test_spanning_join_order_disconnected_raises(self):
        with pytest.raises(ValueError):
            spanning_join_order(self._schema(), ["dim1", "dim3"])

    @pytest.mark.parametrize(
        "call, args, expected",
        [
            # A repeated table pair keeps the last relation, in both orientations.
            ("relation_between", ("a", "b"), JoinRelation("a", "z", "b", "a_id")),
            ("relation_between", ("b", "a"), JoinRelation("b", "a_id", "a", "z")),
            ("neighbors", ("a",), ["b"]),
            # An add_table-only table is a table with no neighbours.
            ("tables", None, ["a", "b", "c", "lonely"]),
            ("neighbors", ("lonely",), []),
            ("neighbors", ("ghost",), []),
            ("relation_between", ("a", "c"), None),
            ("relation_between", ("a", "ghost"), None),
            ("relation_between", ("ghost", "a"), None),
            ("is_connected", ([],), False),
            ("is_connected", (["ghost"],), False),
            ("is_connected", (["a", "b", "ghost"],), False),
            ("is_connected", (["lonely"],), True),
            ("is_connected", (["a"],), True),
            ("is_connected", (["a", "lonely"],), False),
            ("is_connected", (["c", "a", "b"],), True),
        ],
    )
    def test_graph_semantics(self, call, args, expected):
        s = JoinSchema([
            JoinRelation("a", "b_id", "b", "id"),
            JoinRelation("b", "c_id", "c", "id"),
            JoinRelation("b", "a_id", "a", "z"),
        ])
        s.add_table("lonely")
        s.add_table("a")  # re-registering a joined table keeps its edges
        result = getattr(s, call)
        assert (result if args is None else result(*args)) == expected


class TestHistogram:
    def test_selectivity_le_monotone(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        hist = EquiDepthHistogram.build(values, num_buckets=16)
        points = np.linspace(-3, 3, 25)
        sels = [hist.selectivity_le(p) for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(sels, sels[1:]))

    def test_selectivity_matches_empirical(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 100, size=10000)
        hist = EquiDepthHistogram.build(values, num_buckets=32)
        for threshold in (10, 50, 90):
            true = (values <= threshold).mean()
            assert hist.selectivity_le(threshold) == pytest.approx(true, abs=0.02)

    def test_out_of_range(self):
        hist = EquiDepthHistogram.build(np.arange(100.0), num_buckets=8)
        assert hist.selectivity_le(-5) == 0.0
        assert hist.selectivity_le(1000) == 1.0

    def test_range_selectivity(self):
        hist = EquiDepthHistogram.build(np.arange(1000.0), num_buckets=10)
        assert hist.selectivity_range(None, None) == pytest.approx(1.0)
        assert hist.selectivity_range(250.0, 749.0) == pytest.approx(0.5, abs=0.02)

    def test_empty_histogram(self):
        hist = EquiDepthHistogram.build(np.array([]))
        assert hist.selectivity_le(0.0) == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200), st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_selectivity_always_in_unit_interval(self, values, probe):
        hist = EquiDepthHistogram.build(np.array(values), num_buckets=8)
        sel = hist.selectivity_le(probe)
        assert 0.0 <= sel <= 1.0


class TestStatistics:
    def test_analyze_column_numeric(self):
        col = Column("a", np.concatenate([np.zeros(90), np.arange(10)]))
        stats = analyze_column(col, num_mcv=3)
        assert stats.num_rows == 100
        assert stats.mcv_values[0] == 0.0
        assert stats.mcv_fractions[0] == pytest.approx(0.91)

    def test_equality_selectivity_mcv_hit(self):
        col = Column("a", np.concatenate([np.zeros(90), np.arange(1, 11)]))
        stats = analyze_column(col, num_mcv=2)
        assert stats.equality_selectivity(0.0) == pytest.approx(0.9)

    def test_equality_selectivity_residual(self):
        col = Column("a", np.concatenate([np.zeros(90), np.arange(1, 11)]))
        stats = analyze_column(col, num_mcv=1)
        residual = stats.equality_selectivity(5.0)
        assert 0.0 < residual < 0.1

    def test_analyze_table(self):
        t = Table.from_dict("t", {"a": [1, 2, 3], "s": ["x", "x", "y"]})
        stats = analyze_table(t)
        assert stats.num_rows == 3
        assert stats.column("s").n_distinct == 2
        assert stats.column("a").histogram is not None
        assert stats.column("s").histogram is None
        with pytest.raises(KeyError):
            stats.column("zzz")


def _bits(lookup, *args):
    """A lookup's answer as ``float.hex`` (None stays None); a number too
    large for a float64 overflows on both sides."""
    try:
        value = lookup(*args)
    except OverflowError:
        return "OverflowError"
    return None if value is None else float(value).hex()


# Every kind of number a predicate may carry: Python ints (beyond 2**53
# too) and floats (inf, nan), bools and numpy scalars.
_NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)
_FINITE = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def _histograms(draw):
    kind = draw(st.sampled_from(["built", "repeated", "given", "empty"]))
    if kind == "empty":
        return EquiDepthHistogram.build(np.array([]))
    if kind == "given":  # bounds as given, repeats included
        pool = draw(st.lists(_FINITE, min_size=1, max_size=4))
        bounds = sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10)))
        return EquiDepthHistogram(bounds=np.array(bounds), total_count=draw(st.integers(0, 500)))
    # "repeated": values from a small pool, so quantiles repeat.
    values = _FINITE if kind == "built" else st.sampled_from(draw(st.lists(_FINITE, min_size=1, max_size=3)))
    sample = draw(st.lists(values, min_size=1, max_size=60))
    return EquiDepthHistogram.build(np.array(sample), num_buckets=draw(st.integers(1, 12)))


def _near(bounds):
    """Values below, at and above a bound, as Python and numpy floats."""
    def around(bound):
        return st.sampled_from([
            bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf),
            bound - 1.0, bound + 1.0, np.float64(bound),
        ])
    return st.sampled_from(bounds).flatmap(around)


@st.composite
def _column_statistics(draw):
    """Statistics as ANALYZE shapes them (float64 MCVs for a numeric
    column, str for a string one), with an MCV list that may repeat a
    value; returns (stats, the values it was built from)."""
    numeric = draw(st.booleans())
    if numeric:
        pool = draw(st.lists(st.one_of(_FINITE, st.integers(-5, 5).map(float), st.floats()), min_size=1, max_size=5))
        ctype, make = draw(st.sampled_from([ColumnType.INT, ColumnType.FLOAT])), np.float64
    else:
        pool = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5))
        ctype, make = ColumnType.STRING, np.str_
    values = draw(st.lists(st.sampled_from(pool), max_size=8))
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(values), max_size=len(values))))
    stats = ColumnStatistics(
        name="c", ctype=ctype, num_rows=100, n_distinct=draw(st.integers(0, 40)),
        mcv_values=[make(v) for v in values], mcv_fractions=fractions.astype(np.float64),
    )
    return stats, pool


def _as_probe(value):
    """``value`` as each type a predicate may carry it in."""
    forms = [value, str(value)]
    if isinstance(value, float):
        with np.errstate(over="ignore"):  # a float32 may round it to inf
            forms += [np.float64(value), np.float32(value)]
        if value.is_integer():
            forms += [int(value), np.int64(int(value)) if abs(value) < 2**63 else int(value)]
    else:
        forms.append(np.str_(value))
    return st.sampled_from(forms)


class TestStatisticsParity:
    """The statistics answer in Python floats from an index built once;
    the answers are the numpy-scalar arithmetic's bit for bit
    (``tests/naive_estimator.py``)."""

    @given(_histograms(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_histogram_lookups(self, histogram, data):
        probes = st.one_of(_NUMBERS, _near(histogram.bounds))
        for _ in range(6):
            value = data.draw(probes)
            assert _bits(histogram.selectivity_le, value) == _bits(naive_selectivity_le, histogram, value)
        low, high = data.draw(st.one_of(st.none(), probes)), data.draw(st.one_of(st.none(), probes))
        assert _bits(histogram.selectivity_range, low, high) == _bits(
            naive_selectivity_range, histogram, low, high
        )

    @given(_column_statistics(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mcv_and_equality_lookups(self, built, data):
        stats, pool = built
        probes = st.one_of(
            st.sampled_from(pool).flatmap(_as_probe), _NUMBERS, st.text(max_size=3)
        )
        for _ in range(6):
            value = data.draw(probes)
            assert _bits(stats.mcv_selectivity, value) == _bits(naive_mcv_selectivity, stats, value)
            assert _bits(stats.equality_selectivity, value) == _bits(
                naive_equality_selectivity, stats, value
            )

    def test_first_equal_mcv_wins(self):
        stats = ColumnStatistics(
            name="c", ctype=ColumnType.FLOAT, num_rows=10, n_distinct=4,
            mcv_values=[np.float64(1.0), np.float64(2.0**53), np.float64(1.0)],
            mcv_fractions=np.array([0.1, 0.2, 0.3]),
        )
        for value in (1, 1.0, True, np.int64(1), 2**53 + 1, np.int64(2**53 + 1), 7):
            assert stats.mcv_selectivity(value) == naive_mcv_selectivity(stats, value)
        assert stats.mcv_selectivity(True) == 0.1
        assert stats.mcv_selectivity(2**53 + 1) == 0.2  # numpy compares it as a float64
        assert stats.equality_selectivity(7) == naive_equality_selectivity(stats, 7) == pytest.approx(0.4)


class TestDatabase:
    def _db(self):
        fact = Table.from_dict("fact", {"id": [1, 2, 3], "dim_id": [1, 1, 2]}, primary_key="id")
        dim = Table.from_dict("dim", {"id": [1, 2], "v": [0.5, 0.7]}, primary_key="id")
        db = Database("testdb", [fact, dim])
        db.add_join(JoinRelation("fact", "dim_id", "dim", "id"))
        return db

    def test_lookup(self):
        db = self._db()
        assert db.table_names == ["dim", "fact"]
        assert "fact" in db
        assert db.table("dim").num_rows == 2
        with pytest.raises(KeyError):
            db.table("ghost")

    def test_duplicate_table_rejected(self):
        t = Table.from_dict("x", {"a": [1]})
        with pytest.raises(ValueError):
            Database("d", [t, t])

    def test_add_join_validates_columns(self):
        db = self._db()
        with pytest.raises(KeyError):
            db.add_join(JoinRelation("fact", "nope", "dim", "id"))

    def test_statistics_lazy(self):
        db = self._db()
        stats = db.statistics("fact")
        assert stats.num_rows == 3

    def test_analyze_all(self):
        db = self._db()
        db.analyze()
        assert db.statistics("dim").column("v").histogram is not None

    def test_total_rows(self):
        assert self._db().total_rows() == 5

    def test_isolated_table_in_join_schema(self):
        lonely = Table.from_dict("lonely", {"a": [1]})
        db = Database("d", [lonely])
        assert "lonely" in db.join_schema.tables
