"""Tree positional encodings.

The paper serializes tree-structured query plans into sequences using
"the transformers' tree positional embedding techniques" (Shiv & Quirk,
NeurIPS 2019).  ``tree_positional_encoding`` implements that scheme: the
position of a node is the sequence of left/right branch decisions on the
path from the root, encoded as interleaved one-hot pairs and truncated or
zero-padded to a fixed dimension.
"""

from __future__ import annotations

import numpy as np

from .spec import shape_spec

__all__ = ["tree_layout_encoding", "tree_path_encoding", "TreePosition"]

# Decode workloads re-encode the same shallow tree paths for every
# candidate and every beam step; the vectors are tiny, pure functions of
# (path, dim, max_depth), and read-only downstream, so memoize them.
# Entries are marked non-writable so no consumer can corrupt the cache.
_TREE_PATH_CACHE: dict[tuple, np.ndarray] = {}
_TREE_PATH_CACHE_MAX = 4096
# Whole plan layouts, same rules and bound: every plan of one shape —
# a query's plan and its rerank probes, all m-table left-deep plans —
# holds the one array of its shape.
_TREE_LAYOUT_CACHE: dict[tuple, np.ndarray] = {}


class TreePosition:
    """Path from the root of a binary tree: a tuple of 0 (left) / 1 (right)."""

    __slots__ = ("path",)

    def __init__(self, path: tuple[int, ...] = ()):
        if any(step not in (0, 1) for step in path):
            raise ValueError("tree path steps must be 0 (left) or 1 (right)")
        self.path = tuple(path)

    def left(self) -> "TreePosition":
        return TreePosition(self.path + (0,))

    def right(self) -> "TreePosition":
        return TreePosition(self.path + (1,))

    @property
    def depth(self) -> int:
        return len(self.path)

    def __eq__(self, other) -> bool:
        return isinstance(other, TreePosition) and self.path == other.path

    def __hash__(self) -> int:
        return hash(self.path)

    def __repr__(self) -> str:
        return f"TreePosition({self.path})"


@shape_spec(out="(dim,)")
def tree_path_encoding(position: TreePosition, dim: int, max_depth: int | None = None) -> np.ndarray:
    """Encode a tree position as a fixed-width vector (Shiv & Quirk style).

    Each branch decision on the root-to-node path contributes a 2-wide
    one-hot block ``[1, 0]`` (left) or ``[0, 1]`` (right), most recent
    decision first; the result is zero-padded / truncated to ``dim``.
    The root is the all-zeros vector.
    """
    if dim % 2 != 0:
        raise ValueError("tree positional encoding dim must be even")
    key = (position.path, dim, max_depth)
    cached = _TREE_PATH_CACHE.get(key)
    if cached is not None:
        return cached
    max_depth = max_depth if max_depth is not None else dim // 2
    out = np.zeros(dim, dtype=np.float64)
    # Most recent decisions carry the most signal: reverse the path.
    for slot, step in enumerate(reversed(position.path[:max_depth])):
        offset = 2 * slot
        if offset + 1 >= dim:
            break
        out[offset + step] = 1.0
    # Decaying scale keeps deep-path encodings bounded.
    depth_scale = 1.0 / np.sqrt(1.0 + position.depth)
    out = out * depth_scale
    out.setflags(write=False)
    if len(_TREE_PATH_CACHE) >= _TREE_PATH_CACHE_MAX:
        _TREE_PATH_CACHE.clear()
    _TREE_PATH_CACHE[key] = out
    return out


@shape_spec(out="(L, dim)")
def tree_layout_encoding(positions: list[TreePosition], dim: int) -> np.ndarray:
    """The ``(L, dim)`` :func:`tree_path_encoding` rows of a serialized
    plan's node positions, in order.

    A pure function of the plan's shape, interned: every plan of one
    shape gets the same read-only array.
    """
    key = (tuple(position.path for position in positions), dim)
    cached = _TREE_LAYOUT_CACHE.get(key)
    if cached is not None:
        return cached
    out = np.stack([tree_path_encoding(position, dim) for position in positions])
    out.setflags(write=False)
    if len(_TREE_LAYOUT_CACHE) >= _TREE_PATH_CACHE_MAX:
        _TREE_LAYOUT_CACHE.clear()
    _TREE_LAYOUT_CACHE[key] = out
    return out
