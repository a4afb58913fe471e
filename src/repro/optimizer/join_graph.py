"""One query's join graph as bitmasks, built once per planning call.

Table ``query.tables[i]`` of ``n`` is bit ``1 << (n - 1 - i)``, so a
table subset is an int, the questions join enumeration asks of every
subset — is it connected, which predicates join two of its parts — are
bit tests, and the subsets of one size sorted by descending mask come
in ``combinations(query.tables, size)`` order.  A :class:`JoinGraph`
hangs off each per-call cardinality view (``QueryCardinalities.graph``);
the DP, the views, the oracle's peel and ``plan_with_orders`` all read
that one index, and its per-subset memos die with the call.  Nothing is
kept on the ``Query``.
"""

from __future__ import annotations

from ..sql.query import Query

__all__ = ["JoinGraph"]


class JoinGraph:
    """Bits, neighbour masks and oriented join lists of one query.

    - ``bit[table]``: the table's bit, descending in ``query.tables``
      order, and ``table_of[bit]`` its inverse;
    - ``neighbours[bit]``: the mask of the tables one join predicate
      away (a self-join predicate adds nothing);
    - ``toward[table]``: ``[(neighbour bit, relation oriented toward
      table)]`` in ``query.joins`` order, so the predicates joining a
      set ``rest`` to ``table`` are the entries whose neighbour ``rest``
      holds, as ``Query.joins_between(rest, {table})`` lists them;
    - ``by_name``: ``(table, bit)`` in sorted-name order, the order the
      DP visits splits and the oracle peels tables in.
    """

    def __init__(self, query: Query):
        last = len(query.tables) - 1
        self.bit = {table: 1 << (last - i) for i, table in enumerate(query.tables)}
        self.table_of = {bit: table for table, bit in self.bit.items()}
        #: the tables' bits in ``query.tables`` order.
        self.bits = list(self.bit.values())
        self.by_name = sorted(self.bit.items())
        self.neighbours = dict.fromkeys(self.bits, 0)
        self.toward: dict[str, list] = {table: [] for table in self.bit}
        #: per join, in ``query.joins`` order: (left bit, right bit, join,
        #: the join reversed).
        self.joins: list[tuple] = []
        for join in query.joins:
            left, right = self.bit[join.left], self.bit[join.right]
            reverse = join.reversed()
            self.joins.append((left, right, join, reverse))
            self.toward[join.right].append((left, join))
            if left != right:
                self.toward[join.left].append((right, reverse))
                self.neighbours[left] |= right
                self.neighbours[right] |= left
        self._connected: dict[int, bool] = {}
        self._subsets = {bit: frozenset((table,)) for bit, table in self.table_of.items()}
        self._masks = {subset: bit for bit, subset in self._subsets.items()}
        #: connected mask -> the mask of it and its neighbours, and the
        #: connected subsets per size (``connected_subsets``).
        self._reach = {bit: bit | self.neighbours[bit] for bit in self.bits}
        self._levels = [sorted(self.bits, reverse=True)]

    # -- subsets -----------------------------------------------------------
    def subset(self, mask: int) -> frozenset:
        """The table names of ``mask`` (one frozenset per mask and call)."""
        subset = self._subsets.get(mask)
        if subset is None:
            subset = self._subsets[mask] = frozenset(
                table for table, bit in self.bit.items() if mask & bit
            )
            self._masks[subset] = mask
        return subset

    def connected_subsets(self, size: int) -> list[int]:
        """The connected subsets of ``size`` tables, descending — that is,
        in ``combinations(query.tables, size)`` order.  Each size's are
        grown from the previous size's by one neighbouring table, and
        each one's frozenset is its parent's and that table's united."""
        levels = self._levels
        while len(levels) < size:
            reach, neighbours, subsets = self._reach, self.neighbours, self._subsets
            grown = []
            for mask in levels[-1]:
                around = reach[mask]
                frontier = around ^ mask
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    larger = mask | bit
                    if larger not in reach:
                        reach[larger] = around | neighbours[bit]
                        subset = subsets[larger] = subsets[mask] | subsets[bit]
                        self._masks[subset] = larger
                        self._connected[larger] = True
                        grown.append(larger)
            grown.sort(reverse=True)
            levels.append(grown)
        return levels[size - 1]

    def mask(self, subset: frozenset) -> int:
        """The mask of ``subset``'s tables; a table outside the query adds no bit."""
        mask = self._masks.get(subset)
        if mask is None:
            mask = 0
            for table in subset:
                mask |= self.bit.get(table, 0)
        return mask

    # -- connectivity ------------------------------------------------------
    def connected(self, mask: int) -> bool:
        """True iff the join predicates inside ``mask`` reach all of it
        from its lowest table (one flood over neighbour masks)."""
        answer = self._connected.get(mask)
        if answer is None:
            neighbours = self.neighbours
            reached = frontier = mask & -mask
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                new = neighbours[bit] & mask & ~reached
                reached |= new
                frontier |= new
            answer = self._connected[mask] = mask != 0 and reached == mask
        return answer

    def peel(self, mask: int) -> str | None:
        """The first member in sorted-name order that has a neighbour in
        the rest, with the rest connected (None: ``mask`` is not)."""
        neighbours = self.neighbours
        for table, bit in self.by_name:
            if mask & bit:
                rest = mask ^ bit
                if neighbours[bit] & rest and self.connected(rest):
                    return table
        return None

    # -- predicates --------------------------------------------------------
    def predicates_toward(self, rest: int, table: str) -> list:
        """``Query.joins_between(rest, {table})``, from the oriented list."""
        return [join for bit, join in self.toward[table] if bit & rest]

    def predicates_between(self, left: int, right: int) -> list:
        """``Query.joins_between(left, right)``, oriented left to right."""
        out = []
        for lbit, rbit, join, reverse in self.joins:
            if lbit & left and rbit & right:
                out.append(join)
            elif lbit & right and rbit & left:
                out.append(reverse)
        return out

    def joined(self, left: int, right: int) -> bool:
        """True iff some join predicate has one side in each mask."""
        neighbours = self.neighbours
        while left:
            bit = left & -left
            if neighbours[bit] & right:
                return True
            left ^= bit
        return False
