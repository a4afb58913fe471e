"""Join-graph connectivity, checked against a union-find reference.

Two things answer it.  ``connected_components`` (``repro.storage.schema``)
is the one graph traversal: ``JoinSchema.is_connected``,
``Query.is_connected`` (with and without a table subset) and
``require_connected`` answer through it.  The planner answers on
bitmasks: ``JoinGraph.connected`` (``repro.optimizer``) floods neighbour
masks, ``JoinGraph.peel`` picks the first table by name joined to a
connected rest, ``JoinGraph.connected_subsets`` grows each size's
connected subsets from the previous size's, and the DP, the oracle's
peel and the views read that per-call index.  Random
small graphs, self-loops and repeated edges included, must split the
same way under each of them as under
``graph_reference.union_find_components``, and the index's oriented
predicate lists must be ``Query.joins_between``'s.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_reference import union_find_components
from repro.core import require_connected
from repro.errors import DisconnectedQueryError
from repro.optimizer import JoinGraph
from repro.sql import Query
from repro.storage import JoinRelation, JoinSchema, connected_components


@st.composite
def graphs(draw):
    """(tables, joins, subset): up to 8 tables, any edges, any table subset."""
    n = draw(st.integers(1, 8))
    tables = [f"t{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    joins = [JoinRelation(tables[a], f"c{a}", tables[b], f"c{b}") for a, b in pairs]
    order = draw(st.permutations(tables))
    subset = order[: draw(st.integers(0, n))]
    return tables, joins, subset


def edges_of(joins):
    return [(join.left, join.right) for join in joins]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_components_match_union_find(graph):
    tables, joins, subset = graph
    for nodes in (tables, subset):
        parts = connected_components(nodes, edges_of(joins))
        # The parts partition the nodes; each starts with its first node
        # in ``nodes``, and the parts come in that order.
        assert sorted(node for part in parts for node in part) == sorted(nodes)
        firsts = [next(node for node in nodes if node in part) for part in parts]
        assert [part[0] for part in parts] == firsts
        assert firsts == [node for node in nodes if node in firsts]
        # Same parts as the reference: each internally connected, and
        # no edge crosses two parts.
        reference = union_find_components(nodes, edges_of(joins))
        assert sorted(map(sorted, parts)) == sorted(map(sorted, reference))
        part_of = {node: i for i, part in enumerate(parts) for node in part}
        for a, b in edges_of(joins):
            if a in part_of and b in part_of:
                assert part_of[a] == part_of[b]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_every_caller_agrees_with_union_find(graph):
    tables, joins, subset = graph
    query = Query(tables=tables, joins=joins)
    schema = JoinSchema(joins)
    for table in tables:
        schema.add_table(table)

    whole = len(union_find_components(tables, edges_of(joins))) == 1
    assert query.is_connected() is whole
    assert schema.is_connected(tables) is whole

    part = len(union_find_components(subset, edges_of(joins))) == 1
    assert query.is_connected(subset) is part
    assert query.is_connected(frozenset(subset)) is part
    assert schema.is_connected(subset) is part

    if whole:
        require_connected(query.adjacency_matrix(), tables)
    else:
        # Components are named in position order, each sorted.
        parts = sorted(
            sorted(tables.index(table) for table in part)
            for part in union_find_components(tables, edges_of(joins))
        )
        rendered = "; ".join("{" + ", ".join(tables[p] for p in part) + "}" for part in parts)
        with pytest.raises(DisconnectedQueryError, match=re.escape(f"components: {rendered};")):
            require_connected(query.adjacency_matrix(), tables)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_mask_rule_agrees_with_union_find_on_every_subset(graph):
    tables, joins, _ = graph
    # Positions against names: the peel goes by name.
    tables = tables[::-1]
    query = Query(tables=tables, joins=joins)
    index = JoinGraph(query)
    assert index.connected(0) is False
    for mask in range(1, 1 << len(tables)):
        subset = [table for table in tables if mask & index.bit[table]]
        assert index.subset(mask) == frozenset(subset)
        assert index.mask(frozenset(subset)) == mask
        whole = len(union_find_components(subset, edges_of(joins))) == 1
        assert index.connected(mask) is whole
        # The peel: the first table by name joined to a connected rest.
        peel = next(
            (
                table for table in sorted(subset)
                if query.joins_between(set(subset) - {table}, {table})
                and len(union_find_components(set(subset) - {table}, edges_of(joins))) == 1
            ),
            None,
        )
        assert index.peel(mask) == peel
        for table in subset:
            rest = mask ^ index.bit[table]
            expected = query.joins_between(set(subset) - {table}, {table})
            assert index.predicates_toward(rest, table) == expected
            assert index.predicates_between(rest, index.bit[table]) == expected
            assert index.joined(rest, index.bit[table]) is bool(expected)
        # A bushy split: alternate tables on each side.
        left = mask & 0b01010101
        expected = query.joins_between(set(index.subset(left)), set(index.subset(mask ^ left)))
        assert index.predicates_between(left, mask ^ left) == expected
        assert index.joined(left, mask ^ left) is bool(expected)
    # Each size's connected subsets, grown, in combinations order.
    for size in range(1, len(tables) + 1):
        grown = index.connected_subsets(size)
        expected = [
            sum(index.bit[table] for table in combo)
            for combo in itertools.combinations(tables, size)
            if len(union_find_components(combo, edges_of(joins))) == 1
        ]
        assert grown == expected
        assert [index.subset(mask) for mask in grown] == [
            frozenset(table for table in tables if mask & index.bit[table]) for mask in grown
        ]
