"""Two d-separation oracles used to cross-check the library.

Both are deliberately independent of the package's graph machinery: graphs
are plain edge sets. `d_separated` enumerates paths by depth-first search
over an undirected adjacency map and judges each one by applying the chain /
fork / collider blocking rules to its interior nodes directly.
`d_separated_moral` uses the ancestral-moralization reduction (Lauritzen et
al. 1990): keep x, y, z and their ancestors, marry the parents of each kept
node, drop directions, and ask whether removing z disconnects x from y. The
library reaches the same answers by a third route, a Bayes-ball
reachability walk, so agreement among the three is a three-algorithm check.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

Edge = tuple[str, str]


def descendants(edges: Iterable[Edge], node: str) -> set[str]:
    """All nodes reachable from `node` along directed edges, plus itself."""
    children: dict[str, list[str]] = {}
    for a, b in edges:
        children.setdefault(a, []).append(b)
    out = {node}
    stack = [node]
    while stack:
        for child in children.get(stack.pop(), []):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def undirected_paths(
    nodes: Sequence[str], edges: Iterable[Edge], src: str, dst: str
) -> list[list[str]]:
    """All simple paths between src and dst, ignoring edge direction."""
    neighbors: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)

    paths: list[list[str]] = []

    def walk(current: str, trail: list[str]) -> None:
        if current == dst:
            paths.append(list(trail))
            return
        for nxt in neighbors[current]:
            if nxt not in trail:
                trail.append(nxt)
                walk(nxt, trail)
                trail.pop()

    walk(src, [src])
    return paths


def path_blocked(
    path: Sequence[str], edges: Iterable[Edge], z: Iterable[str]
) -> bool:
    """Apply the blocking rules along one path.

    Interior node m between a and b is a collider when both edges point
    into m; a collider blocks unless m or one of its descendants is
    conditioned on. Any other interior node blocks exactly when it is
    conditioned on.
    """
    edge_set = set(edges)
    zset = set(z)
    for i in range(1, len(path) - 1):
        a, m, b = path[i - 1], path[i], path[i + 1]
        into_from_a = (a, m) in edge_set
        into_from_b = (b, m) in edge_set
        if into_from_a and into_from_b:
            if not (descendants(edge_set, m) & zset):
                return True
        else:
            if m in zset:
                return True
    return False


def d_separated(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    xs: Iterable[str],
    ys: Iterable[str],
    zs: Iterable[str],
) -> bool:
    """Every path between every x and every y is blocked given z."""
    edge_list = list(edges)
    zset = set(zs)
    for x in xs:
        for y in ys:
            for path in undirected_paths(nodes, edge_list, x, y):
                if not path_blocked(path, edge_list, zset):
                    return False
    return True


def d_separated_moral(
    nodes: Sequence[str],
    edges: Iterable[Edge],
    xs: Iterable[str],
    ys: Iterable[str],
    zs: Iterable[str],
) -> bool:
    """x and y are disconnected once z is removed from the moralized
    ancestral graph of x, y and z."""
    edge_list = list(edges)
    xset, yset, zset = set(xs), set(ys), set(zs)
    reversed_edges = [(b, a) for a, b in edge_list]
    relevant: set[str] = set()
    for n in xset | yset | zset:
        relevant |= descendants(reversed_edges, n)

    moral: dict[str, set[str]] = {n: set() for n in relevant}
    parents: dict[str, list[str]] = {n: [] for n in relevant}
    for a, b in edge_list:
        if a in relevant and b in relevant:
            moral[a].add(b)
            moral[b].add(a)
            parents[b].append(a)
    for ps in parents.values():
        for a, b in combinations(ps, 2):
            moral[a].add(b)
            moral[b].add(a)

    seen = xset - zset
    stack = list(seen)
    while stack:
        n = stack.pop()
        if n in yset:
            return False
        for m in moral[n] - zset - seen:
            seen.add(m)
            stack.append(m)
    return True
