"""A union-find reference for join-graph connectivity; the system never calls it."""


def union_find_components(nodes, edges) -> list[set]:
    """The parts of ``nodes`` joined by ``edges`` (edges leaving ``nodes`` ignored)."""
    parent = {node: node for node in nodes}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    parts: dict = {}
    for node in parent:
        parts.setdefault(find(node), set()).add(node)
    return list(parts.values())
