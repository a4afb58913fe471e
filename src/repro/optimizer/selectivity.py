"""Histogram-based cardinality estimation (the "PostgreSQL" baseline).

Implements the textbook System-R/PostgreSQL estimator:

- per-column selectivities from ANALYZE statistics (MCVs for equality,
  equi-depth histograms for ranges, magic constants for LIKE);
- independence assumption across predicates on a table;
- equi-join selectivity ``1 / max(ndv(a), ndv(b))``;
- independence across join predicates.

Its characteristic failure mode — huge underestimates on correlated
predicates and multi-way joins — is precisely the PostgreSQL row of the
paper's Table 1.
"""

from __future__ import annotations

from functools import cached_property

from ..engine.executor import ExecutionLimitError
from ..engine.operators import Intermediate, JoinExpansionError, execute_join, execute_scan
from ..engine.plan import PlanNode, scan_node
from ..errors import DisconnectedQueryError
from ..sql.predicates import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
)
from ..sql.query import Query
from ..storage.catalog import Database
from .join_graph import JoinGraph

__all__ = [
    "CardinalityEstimator",
    "QueryCardinalities",
    "HistogramEstimator",
    "TrueCardinalityOracle",
]

# PostgreSQL's default pattern selectivities (utils/adt/selfuncs.h).
_DEFAULT_MATCH_SEL = 0.005
_PREFIX_MATCH_SEL = 0.02


class CardinalityEstimator:
    """Interface: estimate the cardinality of a connected table subset.

    Implementations must return the estimated number of output rows of
    joining (with all applicable join predicates) and filtering (with
    all applicable filter predicates) the tables in ``subset`` — a
    function of the subset's *value*, not of the order its frozenset
    happens to iterate in, because :meth:`for_query` memoises by value.
    """

    def estimate(self, query: Query, subset: frozenset) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def base_rows(self, table: str) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def for_query(self, query: Query) -> "QueryCardinalities":
        """A view of this estimator bound to ``query`` that estimates
        each subset once.  Whoever plans several orders of one query
        binds once and passes the view where an estimator is expected."""
        return QueryCardinalities(self, query)


class QueryCardinalities(CardinalityEstimator):
    """One query's cardinalities, each computed once.

    Built and dropped inside one rerank / DP / gate call: it holds its
    ``Query`` strongly and assumes neither the query nor the database's
    statistics change while it lives.  Not thread-safe; the calls that
    build one already run under their caller's lock.
    """

    def __init__(self, estimator: CardinalityEstimator, query: Query):
        self.estimator = estimator
        self.query = query
        #: subset -> rows (floored at 0) for every subset asked so far;
        #: this dict is what ``PlannedQuery.cardinalities`` exposes.
        self.cardinalities: dict[frozenset, float] = {}
        #: table -> unfiltered row count, for ``CostModel.plan_cost``.
        self.base = {table: estimator.base_rows(table) for table in query.tables}

    def for_query(self, query: Query) -> "QueryCardinalities":
        if query is not self.query:
            # Not a ValueError: callers of plan_with_order catch that to
            # skip illegal join orders, and this is a wiring bug.
            raise RuntimeError(
                f"cardinality view is bound to the query over {self.query.tables}, "
                f"not to the one over {query.tables}"
            )
        return self

    @cached_property
    def graph(self) -> JoinGraph:
        """The query's join graph as bitmasks, for this call's planner."""
        return JoinGraph(self.query)

    def rows(self, subset: frozenset) -> float:
        rows = self.cardinalities.get(subset)
        if rows is None:
            rows = self.cardinalities[subset] = max(float(self._estimate(subset)), 0.0)
        return rows

    def mask_rows(self, mask: int) -> float:
        """:meth:`rows` of the subset ``mask`` names in :attr:`graph`:
        the one entry point the DP reads rows through."""
        return self.rows(self.graph.subset(mask))

    def _estimate(self, subset: frozenset) -> float:
        return self.estimator.estimate(self.query, subset)

    def estimate(self, query: Query, subset: frozenset) -> float:
        return self.for_query(query).rows(subset)

    def base_rows(self, table: str) -> float:
        return self.base[table]


class HistogramEstimator(CardinalityEstimator):
    """ANALYZE-statistics estimator with the independence assumption."""

    def __init__(self, db: Database):
        self.db = db

    # -- single predicates ---------------------------------------------------
    def predicate_selectivity(self, predicate) -> float:
        stats = self.db.statistics(predicate.table).column(predicate.column_names()[0])
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, stats)
        if isinstance(predicate, BetweenPredicate):
            if stats.histogram is None:
                return 0.25
            return stats.histogram.selectivity_range(predicate.low, predicate.high)
        if isinstance(predicate, InPredicate):
            total = sum(stats.equality_selectivity(v) for v in predicate.values)
            return float(min(total, 1.0))
        if isinstance(predicate, LikePredicate):
            sel = _PREFIX_MATCH_SEL if not predicate.pattern.startswith("%") else _DEFAULT_MATCH_SEL
            return 1.0 - sel if predicate.negated else sel
        raise TypeError(f"unsupported predicate type {type(predicate).__name__}")

    def _comparison_selectivity(self, predicate: Comparison, stats) -> float:
        if predicate.op is CompareOp.EQ:
            return stats.equality_selectivity(predicate.value)
        if predicate.op is CompareOp.NE:
            return max(1.0 - stats.equality_selectivity(predicate.value), 0.0)
        if stats.histogram is None:
            return 0.33  # PostgreSQL's DEFAULT_INEQ_SEL
        value = float(predicate.value)
        le = stats.histogram.selectivity_le(value)
        if predicate.op in (CompareOp.LT, CompareOp.LE):
            return le
        return max(1.0 - le, 0.0)

    # -- tables and subsets ----------------------------------------------------
    def scan_selectivity(self, conjunction: Conjunction) -> float:
        sel = 1.0
        for predicate in conjunction.predicates:
            sel *= self.predicate_selectivity(predicate)
        return float(min(max(sel, 0.0), 1.0))

    def scan_rows(self, query: Query, table: str) -> float:
        base = self.db.statistics(table).num_rows
        return base * self.scan_selectivity(query.filter_for(table))

    def join_selectivity(self, join) -> float:
        left_stats = self.db.statistics(join.left).column(join.left_column)
        right_stats = self.db.statistics(join.right).column(join.right_column)
        ndv = max(left_stats.n_distinct, right_stats.n_distinct, 1)
        return 1.0 / ndv

    def for_query(self, query: Query) -> "QueryCardinalities":
        return _HistogramCardinalities(self, query)

    def estimate(self, query: Query, subset: frozenset) -> float:
        """Un-memoised: a view that lives for this one answer (the
        estimator itself keeps no state and may be shared by threads).
        The view prices every table and join of ``query``, so whoever
        asks about several subsets binds ``for_query`` once."""
        return self.for_query(query).rows(subset)

    def base_rows(self, table: str) -> float:
        return float(self.db.statistics(table).num_rows)


class _HistogramCardinalities(QueryCardinalities):
    """Also keeps each table's filtered scan rows and each join's
    selectivity, computed for the whole query at the first estimate, so
    a further subset costs only its multiplications.

    The product runs over ``query.tables`` then ``query.joins`` in their
    listed order, so a subset's estimate has the same bits whichever
    candidate order, DP partition or caller asked first — hence the same
    operators, costs and plan signatures with or without sharing.
    """

    _factors: tuple[list, list] | None = None

    def mask_rows(self, mask: int) -> float:
        subset = self.graph.subset(mask)
        rows = self.cardinalities.get(subset)
        if rows is None:
            rows = self.cardinalities[subset] = max(float(self._product(mask)), 0.0)
        return rows

    def _estimate(self, subset: frozenset) -> float:
        return self._product(self.graph.mask(subset))

    def _product(self, mask: int) -> float:
        """The subset's scan rows times its joins' selectivities, each
        factor in or out by a mask test."""
        if self._factors is None:
            estimator, query, graph = self.estimator, self.query, self.graph
            self._factors = (
                [(bit, max(estimator.scan_rows(query, table), 0.0)) for table, bit in graph.bit.items()],
                [(left | right, estimator.join_selectivity(join)) for left, right, join, _ in graph.joins],
            )
        scans, selectivities = self._factors
        rows = 1.0
        for bit, scan in scans:
            if mask & bit:
                rows *= scan
        for both, selectivity in selectivities:
            if mask & both == both:
                rows *= selectivity
        return max(rows, 0.0)


class TrueCardinalityOracle(CardinalityEstimator):
    """Exact cardinalities obtained by actually executing sub-plans.

    This is the substitute for the paper's ECQO program [34]: exact
    query optimization requires the true cardinality of every connected
    sub-query, which we obtain from the execution engine with
    memoization.  Exponential in the number of tables — the paper
    likewise only ran ECQO for queries touching <= 8 tables.

    The executed intermediates hang off the query's view.  The oracle
    keeps the view of the query it was last asked about, so a second DP
    over the same ``Query`` object (left-deep, then bushy) re-executes
    nothing, and moving on to another query frees the previous one's
    intermediates.  :meth:`seed` starts a view from a plan's executed
    intermediates, so those subsets do not execute again either.
    """

    def __init__(self, db: Database, max_intermediate_rows: int | None = 20_000_000):
        self.db = db
        self.max_intermediate_rows = max_intermediate_rows
        #: scans and joins executed so far, over all queries.
        self.executions = 0
        self._view: _ExecutedCardinalities | None = None

    def for_query(self, query: Query) -> "QueryCardinalities":
        if self._view is None or self._view.query is not query:
            self._view = _ExecutedCardinalities(self, query)
        return self._view

    def estimate(self, query: Query, subset: frozenset) -> float:
        return self.for_query(query).rows(subset)

    def seed(self, query: Query, intermediates: dict[frozenset, Intermediate]) -> None:
        """Bind to ``query`` with intermediates already executed for it:
        ``ExecutionResult.intermediates`` of one of its plans, each the
        join of its table set's filtered scans under every join
        predicate among them.  A subset's cardinality does not depend on
        the order that produced it, so every answer, error and later
        execution is the same; only the seeded subsets are not executed.
        One over this oracle's row cap is left out, to fail as before.
        """
        view = self.for_query(query)
        cap = self.max_intermediate_rows
        for subset, intermediate in intermediates.items():
            if cap is None or intermediate.cardinality <= cap:
                view._intermediates.setdefault(subset, intermediate)

    def base_rows(self, table: str) -> float:
        return float(self.db.table(table).num_rows)

    def clear_cache(self) -> None:
        self._view = None


class _ExecutedCardinalities(QueryCardinalities):
    """A :class:`TrueCardinalityOracle`'s view: subset -> executed intermediate."""

    def __init__(self, estimator: TrueCardinalityOracle, query: Query):
        super().__init__(estimator, query)
        self._intermediates: dict[frozenset, object] = {}

    def _estimate(self, subset: frozenset) -> float:
        return float(self._intermediate(subset).cardinality)

    def _intermediate(self, subset: frozenset):
        if subset in self._intermediates:
            return self._intermediates[subset]
        oracle, query, graph = self.estimator, self.query, self.graph
        if len(subset) == 1:
            table = next(iter(subset))
            node = scan_node(table, query.filter_for(table))
            intermediate, _ = execute_scan(node, oracle.db)
        else:
            # Peel the first table (sorted order) joined to a connected
            # rest; join the rest's intermediate with the table's.
            mask = graph.mask(subset)
            peel = graph.peel(mask) if mask.bit_count() == len(subset) else None
            if peel is None:
                raise DisconnectedQueryError(f"subset {sorted(subset)} is not connected in query joins")
            rest = mask ^ graph.bit[peel]
            left = self._intermediate(graph.subset(rest))
            right = self._intermediate(graph.subset(graph.bit[peel]))
            # ``execute_join`` reads only the node's predicates and operator.
            node = PlanNode(tables=subset, join_predicates=graph.predicates_toward(rest, peel))
            try:
                intermediate, _ = execute_join(
                    node, left, right, oracle.db, max_rows=oracle.max_intermediate_rows
                )
            except JoinExpansionError as exc:
                raise ExecutionLimitError(str(exc)) from exc
        oracle.executions += 1
        if (
            oracle.max_intermediate_rows is not None
            and intermediate.cardinality > oracle.max_intermediate_rows
        ):
            raise ExecutionLimitError(
                f"true-cardinality oracle intermediate exceeds cap on subset {sorted(subset)}"
            )
        self._intermediates[subset] = intermediate
        return intermediate
