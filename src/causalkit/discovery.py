"""Constraint-based and score-based structure learning for categorical data.

`ci_test` is a stratified Pearson chi-square test: one contingency table per
conditioning-set stratum, statistics and degrees of freedom summed across
strata, and a hard InsufficientData error whenever an expected cell falls
below the minimum count. Its tail probability comes from `_chi2_sf`, the
finite chi-square series at integer degrees of freedom.
Both the test and the BIC cache count by label rank. The cache, and a test
on a dataset with more joint cells than distinct records, tally the
label-ranked distinct records (`DiscreteDataset._ranked`) with
`data._tally`, the kernel `counts` uses too; a test on a dataset whose
dense joint table has no more cells than distinct records
(`DiscreteDataset._joint`) sums it onto its (z..., x, y) axes. Either way
the cells come in label order, zero cells are skipped, and the sums run as
they would over sorted label tuples and give the same floats.
`pc_skeleton`/`orient` implement the PC loop with conditioning sets drawn
from current adjacencies (sizes 0..max), v-structure orientation with
conflict reporting, and the away-from-collider propagation rule.
`greedy_score_search` hill-climbs DAGs under the discrete BIC score, adding
single edges while any addition helps, then deleting likewise.

Everything is deterministic: variables, edges, and candidate conditioning
sets are always processed in lexicographic order, and family scores are
computed from one canonical count cache so score ties between symmetric
candidates are exact and broken lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .data import DiscreteDataset, _tally
from .errors import EmptySelection, InsufficientData, SchemaMismatch
from .graph import CausalGraph, Node, NodeKind, reach


@dataclass(frozen=True)
class CiResult:
    x: str
    y: str
    z: tuple[str, ...]
    statistic: float
    dof: int
    p_value: float
    alpha: float
    independent: bool


def _check_levels(alpha: float, min_expected: float) -> None:
    """Refuse the values the CLI refuses: a NaN `min_expected` would switch
    the sparse-cell guard off, since `expected < nan` is always false."""
    if not 0.0 < alpha < 1.0:
        raise SchemaMismatch(f"alpha must be a level in (0, 1), got {alpha!r}")
    if not min_expected >= 0:
        raise SchemaMismatch(
            f"min_expected must be a number >= 0, got {min_expected!r}"
        )


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi2(dof) > x) at integer dof, from the finite series of Abramowitz
    and Stegun 26.4.4-26.4.5: with h = x/2, e^-h * sum_{j<dof/2} h^j / j! for
    even dof, and erfc(sqrt(h)) plus e^-h * sum_{j<dof/2} h^j / Gamma(j+1)
    over j = 1/2, 3/2, ... for odd dof. Every term is positive, so nothing
    cancels; the sum is taken in log space, scaled by its largest term, and
    e^-h is applied once, since subtracting h inside every term would round
    each exponent at the magnitude of h."""
    h = x / 2
    if h <= 0:
        return 1.0
    if dof % 2:
        head, j0, terms = math.erfc(math.sqrt(h)), 0.5, (dof - 1) // 2
    else:
        head, j0, terms = 0.0, 0.0, dof // 2
    log_h = math.log(h)
    logs = [(j0 + k) * log_h - math.lgamma(j0 + k + 1) for k in range(terms)]
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top - h) * math.fsum(math.exp(v - top) for v in logs)


# (z ranks, x ranks, y ranks, x-major grid of counts) per stratum, or None
# where no row is complete over the names
Strata = Optional[Iterable[tuple[tuple[int, ...], Sequence[int], Sequence[int], list]]]


def _sparse_strata(ds: DiscreteDataset, names: list[str]) -> Strata:
    """The (z ranks, x ranks, y ranks, cells) of each stratum over `names`,
    (x, y, z...), that holds two x and two y ranks, in rank order: `_tally`
    sums the ranked records (`DiscreteDataset._ranked`) into (z..., x, y)
    cells, and those strata's cells become the x-major grid of counts over
    the x and y ranks observed in them."""
    ranks, weights = ds._ranked(names)
    if not len(weights):
        return None
    # cells in (z..., x, y) rank order, which is label order, so each
    # stratum is one run and its cells come x-major
    cells, tally = _tally(ranks[2:] + ranks[:2], weights)
    *zr, xr, yr = (col.tolist() for col in cells)
    strata: dict[tuple, dict[int, dict[int, int]]] = {}
    for zv, xv, yv, c in zip(zip(*zr) if zr else repeat(()), xr, yr, tally.tolist()):
        strata.setdefault(zv, {}).setdefault(xv, {})[yv] = c
    return [
        (zv, list(by_x), ys, [[line.get(yv, 0) for yv in ys] for line in by_x.values()])
        for zv, by_x in strata.items()
        if len(by_x) > 1 and len(ys := sorted(set().union(*by_x.values()))) > 1
    ]


def _dense_strata(ds: DiscreteDataset, names: list[str]) -> Strata:
    """The strata over `names`, (x, y, z...), of the dataset's dense joint
    table (`DiscreteDataset._joint`): the table is summed onto the
    (z..., x, y) axes and its missing slots dropped, and each stratum, in
    rank order, is the full x-major grid of counts over the x and y ranks,
    unobserved ones included."""
    order = names[2:] + names[:2]
    table = ds._joint()
    summed = np.einsum(table, range(table.ndim), [ds.column_index(n) for n in order])
    sub = summed[tuple(slice(len(ds.column_states(n))) for n in order)]
    if not sub.any():
        return None
    *zshape, kx, ky = sub.shape
    return zip(
        product(*map(range, zshape)),
        repeat(range(kx)),
        repeat(range(ky)),
        sub.reshape(math.prod(zshape), kx, ky).tolist(),
    )


def ci_test(
    ds: DiscreteDataset,
    x: str,
    y: str,
    z: Sequence[str] = (),
    alpha: float = 0.05,
    min_expected: float = 5.0,
) -> CiResult:
    """Stratified chi-square test of x ⫫ y given z.

    Strata in which x or y is constant contribute nothing; if every stratum
    is degenerate the statement is vacuously independent (p = 1).
    """
    if x == y:
        raise SchemaMismatch("x and y must differ")
    _check_levels(alpha, min_expected)

    # a string is a sequence of names to Python: "ZW" would condition on W, Z
    if isinstance(z, str):
        raise SchemaMismatch(f"z must be a sequence of names, not the string {z!r}")
    zcols = sorted(z)
    if x in zcols or y in zcols:
        raise SchemaMismatch(f"z must not hold x or y, got z = {zcols}")
    if len(set(zcols)) < len(zcols):
        raise SchemaMismatch(f"z must not repeat a name, got z = {zcols}")
    names = [x, y] + zcols
    strata = (_sparse_strata if ds._joint() is None else _dense_strata)(ds, names)
    if strata is None:
        raise EmptySelection(f"no complete rows over {names}")

    # a stratum's unobserved x and y ranks, zero rows and columns of its
    # grid, are skipped: they add no term and no degree of freedom
    statistic = 0.0
    dof = 0
    for zv, xs, ys, cells in strata:
        row = list(map(sum, cells))
        col = list(map(sum, zip(*cells)))
        n_s = sum(row)
        kx = len(row) - row.count(0)
        ky = len(col) - col.count(0)
        if kx < 2 or ky < 2:
            continue
        for xv, r, line in zip(xs, row, cells):
            if not r:
                continue
            for yv, c, observed in zip(ys, col, line):
                if not c:
                    continue
                expected = r * c / n_s
                if expected < min_expected:
                    xl, yl, *zl = (
                        sorted(ds.column_states(n))[rank]
                        for n, rank in zip(names, (xv, yv, *zv))
                    )
                    raise InsufficientData(
                        f"expected count {expected:.2f} < {min_expected} for "
                        f"({x}={xl}, {y}={yl}) in stratum {dict(zip(zcols, zl))}"
                    )
                statistic += (observed - expected) ** 2 / expected
        dof += (kx - 1) * (ky - 1)

    p_value = _chi2_sf(dof, statistic) if dof > 0 else 1.0
    return CiResult(
        x=x,
        y=y,
        z=tuple(zcols),
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        alpha=alpha,
        independent=p_value > alpha,
    )


@dataclass(frozen=True)
class Pattern:
    """A partially directed graph: skeleton edges split into directed and
    undirected parts. `conflicts` lists pairs left undirected because two
    v-structures demanded opposite directions."""

    nodes: tuple[str, ...]
    undirected: frozenset[tuple[str, str]]
    directed: frozenset[tuple[str, str]]
    conflicts: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for a, b in self.undirected:
            if a >= b:
                raise SchemaMismatch("undirected pairs must be stored sorted")
        skeleton_dir = {tuple(sorted(e)) for e in self.directed}
        if skeleton_dir & set(self.undirected):
            raise SchemaMismatch("an edge cannot be both directed and undirected")

    def skeleton(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            set(self.undirected) | {tuple(sorted(e)) for e in self.directed}
        )

    def adjacent(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.skeleton()

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "undirected": [list(e) for e in sorted(self.undirected)],
            "directed": [list(e) for e in sorted(self.directed)],
            "conflicts": [list(e) for e in self.conflicts],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Pattern":
        return cls(
            nodes=tuple(payload["nodes"]),
            undirected=frozenset(tuple(e) for e in payload["undirected"]),
            directed=frozenset(tuple(e) for e in payload["directed"]),
            conflicts=tuple(tuple(e) for e in payload.get("conflicts", [])),
        )

    def to_dot(self) -> str:
        lines = ["digraph pattern {"]
        for n in self.nodes:
            lines.append(f"  {n};")
        for a, b in sorted(self.directed):
            lines.append(f"  {a} -> {b};")
        for a, b in sorted(self.undirected):
            lines.append(f"  {a} -> {b} [dir=none];")
        lines.append("}")
        return "\n".join(lines)


SepSets = dict[frozenset, frozenset]
CiFn = Callable[[str, str, tuple[str, ...]], bool]


def pc_skeleton(
    ds: Optional[DiscreteDataset] = None,
    alpha: float = 0.05,
    max_cond_size: int = 3,
    min_expected: float = 5.0,
    ci_fn: Optional[CiFn] = None,
    variables: Optional[Sequence[str]] = None,
) -> tuple[Pattern, SepSets]:
    """PC adjacency search: start complete, remove edges found independent.

    Conditioning sets of sizes 0..max_cond_size are drawn from the current
    adjacencies of each endpoint, in lexicographic order; a set drawn from
    both endpoints is tested once. Supply `ci_fn` (returning True for
    independence) to run against an oracle instead of data; InsufficientData
    from the data-driven test propagates.
    """
    _check_levels(alpha, min_expected)
    # a float would fail late in `combinations`; a bool is an int to Python
    if (
        not isinstance(max_cond_size, int)
        or isinstance(max_cond_size, bool)
        or max_cond_size < 0
    ):
        raise SchemaMismatch(
            f"max_cond_size must be an integer >= 0, got {max_cond_size!r}"
        )
    if ci_fn is None:
        if ds is None:
            raise SchemaMismatch("need a dataset or an independence callable")

        def ci_fn(a: str, b: str, cond: tuple[str, ...]) -> bool:
            return ci_test(
                ds, a, b, cond, alpha=alpha, min_expected=min_expected
            ).independent

    if variables is None:
        if ds is None:
            raise SchemaMismatch("need explicit variables with a bare ci_fn")
        variables = ds.columns
    # a string is a sequence of names to Python: "XY" would search over X, Y
    if isinstance(variables, str):
        raise SchemaMismatch(
            f"variables must be a sequence, not the string {variables!r}"
        )
    names = sorted(variables)
    if len(set(names)) < len(names):
        raise SchemaMismatch(f"variables must not repeat a name, got {names}")

    adj: dict[str, set[str]] = {v: set(names) - {v} for v in names}
    sepsets: SepSets = {}

    for level in range(max_cond_size + 1):
        # a set of `level` others needs more than `level` adjacencies, and
        # adjacencies only shrink, so no later level can run a test either
        if all(len(adj[v]) <= level for v in names):
            break
        for a, b in [
            (a, b) for a, b in combinations(names, 2) if b in adj[a]
        ]:
            severed = False
            tried: set[tuple[str, ...]] = set()
            for side, other in ((a, b), (b, a)):
                candidates = sorted(adj[side] - {other})
                if len(candidates) < level:
                    continue
                for cond in combinations(candidates, level):
                    # a set already drawn from the other endpoint was
                    # found dependent; asking again cannot change that
                    if cond in tried:
                        continue
                    tried.add(cond)
                    if ci_fn(a, b, cond):
                        adj[a].discard(b)
                        adj[b].discard(a)
                        sepsets[frozenset((a, b))] = frozenset(cond)
                        severed = True
                        break
                if severed:
                    break

    undirected = frozenset(
        (a, b) for a, b in combinations(names, 2) if b in adj[a]
    )
    return Pattern(tuple(names), undirected, frozenset()), sepsets


def orient(skeleton: Pattern, sepsets: SepSets) -> Pattern:
    """Orient v-structures, then propagate away-from-collider orientations.

    An unshielded triple a - c - b with c outside sepset(a, b) demands
    a -> c <- b. Opposite demands on one edge are reported in `conflicts`
    and the edge stays undirected, exempt from propagation. Afterwards,
    any undirected a - b with some directed c -> a and c, b non-adjacent
    is oriented a -> b unless that would close a directed cycle.
    """
    nodes = skeleton.nodes
    undirected = {tuple(e) for e in skeleton.undirected}
    directed: set[tuple[str, str]] = set(skeleton.directed)

    neighbor: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in skeleton.skeleton():
        neighbor[a].add(b)
        neighbor[b].add(a)

    demands: set[tuple[str, str]] = set()
    for c in nodes:
        for a, b in combinations(sorted(neighbor[c]), 2):
            if b in neighbor[a]:
                continue
            sep = sepsets.get(frozenset((a, b)))
            if sep is None or c in sep:
                continue
            demands.add((a, c))
            demands.add((b, c))

    conflicts = []
    frozen: set[tuple[str, str]] = set()
    for a, b in sorted(demands):
        if (b, a) in demands:
            if a < b:
                conflicts.append((a, b))
                frozen.add((a, b))
            continue
        pair = tuple(sorted((a, b)))
        if pair in undirected:
            undirected.discard(pair)
            directed.add((a, b))

    children: dict[str, set[str]] = {n: set() for n in nodes}
    for tail, head in directed:
        children[tail].add(head)

    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            if (a, b) in frozen:
                continue
            oriented = None
            for tail, head in ((a, b), (b, a)):
                if any(
                    (c, tail) in directed and c not in neighbor[head]
                    for c in sorted(neighbor[tail])
                ):
                    if tail not in reach(head, children):
                        oriented = (tail, head)
                    break
            if oriented:
                undirected.discard((a, b))
                directed.add(oriented)
                children[oriented[0]].add(oriented[1])
                changed = True

    return Pattern(
        nodes,
        frozenset(undirected),
        frozenset(directed),
        tuple(sorted(conflicts)),
    )


def pc(
    ds: Optional[DiscreteDataset] = None,
    alpha: float = 0.05,
    max_cond_size: int = 3,
    min_expected: float = 5.0,
    ci_fn: Optional[CiFn] = None,
    variables: Optional[Sequence[str]] = None,
) -> Pattern:
    """Skeleton search followed by orientation."""
    skeleton, sepsets = pc_skeleton(
        ds,
        alpha=alpha,
        max_cond_size=max_cond_size,
        min_expected=min_expected,
        ci_fn=ci_fn,
        variables=variables,
    )
    return orient(skeleton, sepsets)


def dsep_ci_fn(graph: CausalGraph) -> CiFn:
    """Independence oracle from a known graph, for soundness checks."""

    def fn(a: str, b: str, cond: tuple[str, ...]) -> bool:
        return graph.is_d_separated({a}, {b}, set(cond))

    return fn


# -- score-based search -----------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    op: str
    edge: Optional[tuple[str, str]]
    score: float


class _BicCache:
    """Canonical Σ c·ln c per variable subset, so family log-likelihoods of
    symmetric candidates are identical float expressions. Every subset is
    tallied from the distinct records complete over all variables, by their
    label ranks, and summed in label order."""

    def __init__(self, ds: DiscreteDataset):
        names = sorted(ds.columns)
        ranks, self.weights = ds._ranked(names)
        if not len(self.weights):
            raise EmptySelection("no complete rows")
        self.names = names
        self.ranks = dict(zip(names, ranks))
        self.n = int(self.weights.sum())
        self.states = {v: ds.column_states(v) for v in names}
        self._cache: dict[frozenset, float] = {}

    def log_count_sum(self, subset: frozenset) -> float:
        if subset not in self._cache:
            _, tally = _tally([self.ranks[v] for v in sorted(subset)], self.weights)
            # math.log, not np.log: numpy's SIMD log may round otherwise
            self._cache[subset] = sum(c * math.log(c) for c in tally.tolist())
        return self._cache[subset]

    def family_score(self, child: str, parents: frozenset) -> float:
        ll = self.log_count_sum(parents | {child}) - (
            self.log_count_sum(parents)
            if parents
            else self.n * math.log(self.n)
        )
        space = math.prod(len(self.states[p]) for p in parents)
        params = (len(self.states[child]) - 1) * space
        return ll - 0.5 * math.log(self.n) * params


def greedy_score_search(
    ds: DiscreteDataset,
) -> tuple[CausalGraph, tuple[TraceStep, ...]]:
    """Greedy DAG hill-climb under discrete BIC.

    Starts empty; repeatedly adds the best strictly-improving edge
    (acyclicity-preserving, ties broken lexicographically), then repeatedly
    deletes the best strictly-improving edge. Requires complete rows.
    """
    cache = _BicCache(ds)
    names = cache.names
    parents: dict[str, frozenset] = {v: frozenset() for v in names}
    family: dict[str, float] = {
        v: cache.family_score(v, frozenset()) for v in names
    }
    total = sum(family[v] for v in names)
    trace = [TraceStep("init", None, total)]

    def additions():
        children = {u: [v for v in names if u in parents[v]] for u in names}
        for u in names:
            for v in names:
                if u != v and u not in parents[v] and u not in reach(v, children):
                    yield (u, v), parents[v] | {u}

    def deletions():
        for u in names:
            for v in names:
                if u in parents[v]:
                    yield (u, v), parents[v] - {u}

    for op, candidates in (("add", additions), ("delete", deletions)):
        while True:
            best_gain = 0.0
            best = None
            for (u, v), new_parents in candidates():
                candidate = cache.family_score(v, new_parents)
                gain = candidate - family[v]
                if gain > best_gain:
                    best_gain, best = gain, ((u, v), new_parents, candidate)
            if best is None:
                break
            (u, v), new_parents, score = best
            parents[v], family[v] = new_parents, score
            total += best_gain
            trace.append(TraceStep(op, (u, v), total))

    edges = [(u, v) for v in names for u in sorted(parents[v])]
    graph = CausalGraph([Node(v, NodeKind.OBSERVED) for v in names], edges)
    return graph, tuple(trace)


def vstructures(graph: CausalGraph) -> frozenset[tuple[str, str, str]]:
    """Unshielded colliders (a, c, b) with a < b, a -> c <- b."""
    out = set()
    for c in graph.node_names():
        ps = graph.parents(c)
        for a, b in combinations(ps, 2):
            if not graph.has_edge(a, b) and not graph.has_edge(b, a):
                out.add((a, c, b))
    return frozenset(out)


def markov_equivalent(g1: CausalGraph, g2: CausalGraph) -> bool:
    """Same skeleton and same v-structures."""
    skel1 = {tuple(sorted(e)) for e in g1.edges}
    skel2 = {tuple(sorted(e)) for e in g2.edges}
    return skel1 == skel2 and vstructures(g1) == vstructures(g2)


def pattern_of_dag(graph: CausalGraph) -> Pattern:
    """The pattern a sound search should report for a DAG: its skeleton with
    v-structure edges directed and away-from-collider propagation applied."""
    skeleton = Pattern(
        graph.node_names(),
        frozenset({tuple(sorted(e)) for e in graph.edges}),
        frozenset(),
    )
    sepsets: SepSets = {}
    names = graph.node_names()
    for a, b in combinations(names, 2):
        if skeleton.adjacent(a, b):
            continue
        for size in range(len(names) - 1):
            found = None
            for cond in combinations(sorted(set(names) - {a, b}), size):
                if graph.is_d_separated({a}, {b}, set(cond)):
                    found = frozenset(cond)
                    break
            if found is not None:
                sepsets[frozenset((a, b))] = found
                break
    return orient(skeleton, sepsets)
