"""Causal DAGs and the graphical criteria built on them.

A CausalGraph is an immutable directed acyclic graph whose nodes carry a kind
(observed, latent, selection, missingness indicator, proxy). On top of it this
module implements path enumeration, the chain/fork/collider blocking rules,
d-separation, backdoor paths and the backdoor criterion, graph mutilation for
interventions, and the applicability checks for do-calculus rules 1 and 3 at
the level the toolkit needs them.

Blocking semantics: a chain or fork is blocked when its middle node is
conditioned on; a collider blocks unless the collider itself or one of its
descendants is conditioned on. d-separation, the backdoor criterion and
do-calculus rule 1 are decided by one reachability walk (Bayes-ball) that
realizes these rules without enumerating paths, in time linear in the
edges, and that ignores the edges an intervention or a backdoor check cuts
rather than building the cut graph.

Path enumeration (`undirected_paths`, `backdoor_paths`) is exponential in
the worst case, and its cost follows the steps of the search rather than the
node count. It therefore stops with GraphTooLarge after a fixed budget of
`PATH_STEP_BUDGET` steps, which bounds its time and memory on any graph.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterable, Mapping

from .errors import (
    CycleDetected,
    DanglingEdge,
    DuplicateNode,
    GraphTooLarge,
    InvalidNodeName,
    InvalidStructure,
    NotSupported,
    OverlappingSets,
    UnknownNode,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Moves onto a node that path enumeration may make before it gives up, so its
# time and memory are bounded on any graph. A complete 10-node DAG's paths
# (219,201 steps) and a complete 11-node DAG's backdoor paths (219,202) fit.
PATH_STEP_BUDGET = 1 << 18


def reach(start: str, step: Mapping[str, Iterable[str]]) -> frozenset[str]:
    """Every node reached from `start` by one or more steps, `step` mapping
    each node to its successors; `start` itself only if on a cycle."""
    out: set[str] = set()
    queue = deque(step[start])
    while queue:
        n = queue.popleft()
        if n in out:
            continue
        out.add(n)
        queue.extend(step[n])
    return frozenset(out)


class NodeKind(str, Enum):
    OBSERVED = "observed"
    LATENT = "latent"
    SELECTION = "selection"
    MISS_INDICATOR = "miss_indicator"
    PROXY = "proxy"


@dataclass(frozen=True)
class Node:
    name: str
    kind: NodeKind = NodeKind.OBSERVED


FORWARD = "->"
BACKWARD = "<-"


@dataclass(frozen=True)
class Path:
    """An undirected walk along graph edges.

    `nodes` lists the visited nodes in order; `arrows[i]` is "->" when the
    edge nodes[i] -> nodes[i+1] exists and "<-" when the graph edge points
    the other way.
    """

    nodes: tuple[str, ...]
    arrows: tuple[str, ...]

    def __post_init__(self):
        if len(self.arrows) != len(self.nodes) - 1:
            raise ValueError("arrow count must be node count minus one")

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for arrow, node in zip(self.arrows, self.nodes[1:]):
            parts.append(f" {arrow} {node}")
        return "".join(parts)


def _as_node(spec) -> Node:
    if isinstance(spec, Node):
        return spec
    if isinstance(spec, str):
        return Node(spec)
    name, kind = spec
    return Node(name, NodeKind(kind))


class CausalGraph:
    """Immutable-by-convention DAG with kinded nodes.

    Nodes may be given as Node objects, bare names (observed), or
    (name, kind) pairs. Construction validates names, rejects duplicate
    nodes, dangling or self-loop edges, cycles, and selection nodes with
    outgoing edges.
    """

    def __init__(self, nodes: Iterable, edges: Iterable[tuple[str, str]]):
        node_list = [_as_node(n) for n in nodes]
        names = [n.name for n in node_list]
        seen: set[str] = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise InvalidNodeName(name)
            if name in seen:
                raise DuplicateNode(name)
            seen.add(name)
        self.nodes: tuple[Node, ...] = tuple(sorted(node_list, key=lambda n: n.name))
        self._kind = {n.name: n.kind for n in self.nodes}

        edge_set: set[tuple[str, str]] = set()
        for a, b in edges:
            if a not in seen or b not in seen:
                raise DanglingEdge((a, b))
            if a == b:
                raise CycleDetected((a, a))
            edge_set.add((a, b))
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_set)

        self._parents: dict[str, tuple[str, ...]] = {n: () for n in seen}
        self._children: dict[str, tuple[str, ...]] = {n: () for n in seen}
        par: dict[str, list[str]] = {n: [] for n in seen}
        chi: dict[str, list[str]] = {n: [] for n in seen}
        for a, b in edge_set:
            par[b].append(a)
            chi[a].append(b)
        for n in seen:
            self._parents[n] = tuple(sorted(par[n]))
            self._children[n] = tuple(sorted(chi[n]))

        self._topo = self._toposort()
        for node in self.nodes:
            if node.kind is NodeKind.SELECTION and self._children[node.name]:
                raise InvalidStructure(
                    f"selection node {node.name!r} must not have outgoing edges"
                )

    # -- basic structure -------------------------------------------------

    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def kind(self, name: str) -> NodeKind:
        self._require(name)
        return self._kind[name]

    def nodes_of_kind(self, kind: NodeKind) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.kind is kind)

    def parents(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return self._children[name]

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def _require(self, name: str) -> None:
        if name not in self._kind:
            raise UnknownNode(name)

    def _toposort(self) -> tuple[str, ...]:
        indeg = {n.name: len(self._parents[n.name]) for n in self.nodes}
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: list[str] = []
        while ready:
            n = ready.popleft()
            order.append(n)
            pending = []
            for c in self._children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    pending.append(c)
            for c in sorted(pending):
                ready.append(c)
        if len(order) != len(self.nodes):
            remaining = sorted(n for n, d in indeg.items() if d > 0)
            raise CycleDetected(tuple(remaining))
        return tuple(order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return (
            f"CausalGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"
        )

    # -- ancestry ---------------------------------------------------------

    def descendants(self, name: str) -> frozenset[str]:
        """All nodes reachable from `name` by directed edges, excluding it."""
        self._require(name)
        return reach(name, self._children)

    def ancestors(self, name: str) -> frozenset[str]:
        self._require(name)
        return reach(name, self._parents)

    # -- path enumeration --------------------------------------------------

    def undirected_paths(self, x: str, y: str) -> list[Path]:
        """All simple paths between x and y ignoring edge direction.

        Paths come out sorted by their node sequence, so output order is
        reproducible: the search walks name-sorted neighbours, and no path
        is a prefix of another because each ends at y. Raises GraphTooLarge
        once the search has moved onto a node more than PATH_STEP_BUDGET
        times.
        """
        return self._paths(x, y, (FORWARD, BACKWARD))

    def _paths(self, x: str, y: str, first: tuple[str, ...]) -> list[Path]:
        """`undirected_paths` whose first arrow is in `first`: the search
        leaves x by those moves only, and spends no step on other paths."""
        self._disjoint({x}, {y})

        neighbors = {
            n: sorted([*((c, FORWARD) for c in self._children[n]),
                       *((p, BACKWARD) for p in self._parents[n])])
            for n in self._kind
        }

        found: list[Path] = []
        stack_nodes = [x]
        stack_arrows: list[str] = []
        on_path = {x}
        # untried neighbours of each node on the path, deepest last
        pending = [(m for m in neighbors[x] if m[1] in first)]
        steps = 0
        while pending:
            for nxt, arrow in pending[-1]:
                if nxt not in on_path:
                    break
            else:
                pending.pop()
                on_path.discard(stack_nodes.pop())
                del stack_arrows[-1:]  # x, the first node, has no arrow
                continue
            steps += 1
            if steps > PATH_STEP_BUDGET:
                raise GraphTooLarge(PATH_STEP_BUDGET)
            if nxt == y:
                found.append(Path((*stack_nodes, y), (*stack_arrows, arrow)))
                continue
            stack_nodes.append(nxt)
            stack_arrows.append(arrow)
            on_path.add(nxt)
            pending.append(iter(neighbors[nxt]))
        return found

    def is_path_blocked(self, path: Path, z: Iterable[str]) -> bool:
        """Apply the chain/fork/collider rules to one path.

        True iff some interior node blocks the path given conditioning set z:
        chains and forks block when their middle node is in z; a collider
        blocks unless it or one of its descendants is in z.
        """
        zset = frozenset(z)
        for name in zset:
            self._require(name)
        for name in path.nodes:
            self._require(name)
        for i in range(1, len(path.nodes) - 1):
            mid = path.nodes[i]
            into = path.arrows[i - 1] == FORWARD
            out_of = path.arrows[i] == FORWARD
            if into and not out_of:
                # collider
                if mid in zset or (self.descendants(mid) & zset):
                    continue
                return True
            if mid in zset:
                return True
        return False

    def backdoor_paths(self, x: str, y: str) -> list[Path]:
        """Undirected paths from x to y whose first edge points into x, in
        `undirected_paths` order; the search leaves x through its parents."""
        return self._paths(x, y, (BACKWARD,))

    # -- d-separation -------------------------------------------------------

    def _disjoint(self, *groups: Iterable[str]) -> list[frozenset[str]]:
        """`groups` as sets, once every name in them is known to the graph;
        raises OverlappingSets if a name is in two of them."""
        sets = [frozenset(g) for g in groups]
        named = frozenset().union(*sets)
        for name in named:
            self._require(name)
        if len(named) != sum(map(len, sets)):
            raise OverlappingSets(
                {n for i, a in enumerate(sets) for b in sets[i + 1:] for n in a & b}
            )
        return sets

    def _d_connected(
        self, xs: Iterable[str], zs: Container[str],
        cut_out: Container[str] = (), cut_in: Container[str] = (),
    ) -> set[str]:
        """Every node outside zs joined to some x by a path that zs does not
        block, ignoring the edges out of cut_out and into cut_in.

        The Bayes-ball walk (Shachter, UAI 1998): a ball at a node not in zs
        passes on to its children, and to its parents too if it came up from
        a child; a ball at a node in zs bounces back to its parents if it
        came down from one, which opens a collider with a descendant in zs.
        Each node is entered at most once from each side.
        """
        reached: set[str] = set()
        seen: set[tuple[str, bool]] = set()
        stack = [(n, True) for n in xs]  # True: the ball came up from a child
        while stack:
            n, up = stack.pop()
            if (n, up) in seen:
                continue
            seen.add((n, up))
            given = n in zs
            if not given:
                reached.add(n)
                if n not in cut_out:
                    stack.extend((c, False) for c in self._children[n] if c not in cut_in)
            if up != given and n not in cut_in:
                stack.extend((p, True) for p in self._parents[n] if p not in cut_out)
        return reached

    def is_d_separated(
        self, x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()
    ) -> bool:
        """True iff every path between x-nodes and y-nodes is blocked by z.

        The three argument sets must be pairwise disjoint.
        """
        xs, ys, zs = self._disjoint(x, y, z)
        return not self._d_connected(xs, zs) & ys

    # -- backdoor criterion and do-calculus checks ---------------------------

    def satisfies_backdoor_criterion(
        self, x: str, y: str, z: Iterable[str] = ()
    ) -> bool:
        """True iff z blocks every backdoor path from x to y and contains no
        descendant of x.

        Decided by d-separation, not path enumeration (Pearl, Causality
        §3.3): once x's outgoing edges are removed, the paths left between
        x and y are exactly the backdoor paths, and with no descendant of x
        in z each is blocked there iff it is blocked in the full graph.
        """
        _, _, zset = self._disjoint({x}, {y}, z)
        if zset & self.descendants(x):
            return False
        return y not in self._d_connected({x}, zset, cut_out={x})

    def rule3_applicable(self, x: str, y: str) -> bool:
        """True iff do(x) can be deleted from P(y | do(x)): no directed path
        from x to y. A latent x raises NotSupported, as in `mutilate`."""
        self._disjoint({x}, {y})
        self._require_manipulable(x)
        return y not in self.descendants(x)

    def rule1_applicable(
        self, y: str, x_do: str, w: Iterable[str], z: Iterable[str] = ()
    ) -> bool:
        """True iff observations w can be dropped from P(y | do(x_do), z, w).

        Checked as w d-separated from y given z in the do(x_do)-mutilated
        graph; an empty w is degenerately removable. A latent x_do raises
        NotSupported, as in `mutilate`.
        """
        ws, zs, _, _ = self._disjoint(w, z, {y}, {x_do})
        self._require_manipulable(x_do)
        return y not in self._d_connected(ws, zs, cut_in={x_do})

    # -- surgery -------------------------------------------------------------

    def _require_manipulable(self, name: str) -> None:
        """Raises unless `name` is a node that can be intervened on."""
        self._require(name)
        if self._kind[name] is NodeKind.LATENT:
            raise NotSupported(
                f"{name} is latent; background factors cannot be intervened on"
            )

    def mutilate(self, do_nodes: Iterable[str]) -> "CausalGraph":
        """Graph with all edges into the intervened nodes removed."""
        do = frozenset(do_nodes)
        for name in do:
            self._require_manipulable(name)
        kept = [(a, b) for a, b in self.edges if b not in do]
        return CausalGraph(self.nodes, kept)


# -- JSON interchange ----------------------------------------------------------


def graph_to_dict(graph: CausalGraph) -> dict:
    return {
        "nodes": [{"name": n.name, "kind": n.kind.value} for n in graph.nodes],
        "edges": [[a, b] for a, b in sorted(graph.edges)],
    }


def graph_from_dict(payload: dict) -> CausalGraph:
    nodes = [
        Node(entry["name"], NodeKind(entry.get("kind", "observed")))
        for entry in payload["nodes"]
    ]
    edges = [(a, b) for a, b in payload["edges"]]
    return CausalGraph(nodes, edges)
