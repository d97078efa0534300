"""Discrete structural causal models over a CausalGraph.

A model binds one conditional probability table to every non-latent node and a
marginal distribution to every latent node (latent nodes are exogenous, so
they must be roots). `layout` is the one place a CPT becomes arrays: at
construction each node gets one record holding its CPT, its dense table, the
CDF the sampler inverts and its parents' label ranks, and masking lays out
indicator CPTs the same way. Exact queries run by variable elimination over
the tables' slices; sampling is ancestral, one uniform stream per node from
numpy's PCG64 generator, fully determined by the seed and equal to one
`Generator.choice` per parent configuration present; interventions replace
the do-nodes' records with point masses on the mutilated graph and keep
every other node's.

Models have no node or state cap. Query time grows with the model's treewidth,
so each exact query first plans a min-weight elimination order and counts the
table entries its steps visit; a plan past the fixed `QUERY_BUDGET` raises
ModelTooLarge before any step runs. Chains and polytrees of any length fit;
densely connected models do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import getitem
from typing import Mapping, Sequence

import numpy as np

from .data import DiscreteDataset, _code_dtype
from .errors import (
    InvalidCpt,
    ModelTooLarge,
    PartialAssignment,
    PartialOverlap,
    UnknownState,
    ZeroEvidenceProbability,
)
from .graph import CausalGraph, NodeKind, graph_from_dict, graph_to_dict

# Table entries an exact query may visit, summed over the steps of its
# elimination plan (each step loops over every configuration of the variables
# it merges). A plan within 2^26 holds no factor of more than 2^25 entries
# (256 MB); the costliest such plans measured take 0.4-1.9 s of CPU time.
QUERY_BUDGET = 1 << 26

Assignment = Mapping[str, str]


@dataclass(frozen=True, eq=True)
class Cpt:
    """P(node | parents) as a dense row per parent-state combination.

    rows maps a tuple of parent states (aligned with `parents`) to the
    distribution over `states`. A root node has the single key ().
    """

    node: str
    parents: tuple[str, ...]
    states: tuple[str, ...]
    rows: Mapping[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self,
            "rows",
            {tuple(k): tuple(float(p) for p in v) for k, v in self.rows.items()},
        )
        if not self.states:
            raise InvalidCpt(f"{self.node}: empty state list")
        if len(set(self.states)) != len(self.states):
            raise InvalidCpt(f"{self.node}: duplicate states")
        if len(set(self.parents)) != len(self.parents):
            raise InvalidCpt(f"{self.node}: duplicate parents")
        if not self.rows:
            raise InvalidCpt(f"{self.node}: no rows")
        for key, dist in self.rows.items():
            if len(key) != len(self.parents):
                raise InvalidCpt(
                    f"{self.node}: row key {key} does not match parents {self.parents}"
                )
            if len(dist) != len(self.states):
                raise InvalidCpt(
                    f"{self.node}: row {key} has {len(dist)} entries for "
                    f"{len(self.states)} states"
                )
            if any(p < 0.0 for p in dist):
                raise InvalidCpt(f"{self.node}: negative probability in row {key}")
            if not abs(sum(dist) - 1.0) <= 1e-9:  # NaN fails too
                raise InvalidCpt(
                    f"{self.node}: row {key} sums to {sum(dist)}, not 1"
                )

    def prob(self, state: str, parent_vals: tuple[str, ...]) -> float:
        if state not in self.states:
            raise UnknownState(self.node, state)
        return self.rows[parent_vals][self.states.index(state)]

    @staticmethod
    def point_mass(node: str, states: Sequence[str], value: str) -> "Cpt":
        if value not in states:
            raise UnknownState(node, value)
        dist = tuple(1.0 if s == value else 0.0 for s in states)
        return Cpt(node, (), states, {(): dist})


class DiscreteScm:
    """A CausalGraph plus tables: CPTs for non-latent nodes, marginals for
    latent ones."""

    def __init__(
        self,
        graph: CausalGraph,
        cpts: Mapping[str, Cpt],
        latent_dists: Mapping[str, Mapping[str, float]] | None = None,
    ):
        latent_dists = dict(latent_dists or {})
        self.graph = graph

        latent = set(graph.nodes_of_kind(NodeKind.LATENT))
        table: dict[str, Cpt] = {}
        for name in graph.node_names():
            if name in latent:
                if name in cpts:
                    raise InvalidCpt(
                        f"latent node {name!r} takes a marginal, not a CPT"
                    )
                if name not in latent_dists:
                    raise InvalidCpt(f"latent node {name!r} has no distribution")
                if graph.parents(name):
                    raise InvalidCpt(
                        f"latent node {name!r} must be exogenous (no parents)"
                    )
                dist = latent_dists[name]
                table[name] = Cpt(name, (), dist, {(): dist.values()})
            else:
                if name not in cpts:
                    raise InvalidCpt(f"node {name!r} has no CPT")
                cpt = cpts[name]
                if cpt.node != name:
                    raise InvalidCpt(
                        f"CPT under key {name!r} is for node {cpt.node!r}"
                    )
                if cpt.parents != graph.parents(name):
                    raise InvalidCpt(
                        f"{name}: CPT parents {cpt.parents} do not match "
                        f"graph parents {graph.parents(name)}"
                    )
                table[name] = cpt
        extra = (set(cpts) | set(latent_dists)) - set(graph.node_names())
        if extra:
            raise InvalidCpt(f"tables for unknown nodes: {sorted(extra)}")

        # with all state spaces known, lay each CPT out over its parents'
        # states once its row count is known to match their combinations
        self._nodes: dict[str, Layout] = {}
        for name, cpt in table.items():
            spaces = [table[p].states for p in cpt.parents]
            size = math.prod(map(len, spaces))
            if len(cpt.rows) != size:
                raise InvalidCpt(
                    f"{name}: {len(cpt.rows)} CPT rows do not cover the "
                    f"{size} combinations of parent states"
                )
            try:
                self._nodes[name] = layout(cpt, spaces)
            except InvalidCpt:  # as many rows as combinations: one is outside
                key = next(k for k in cpt.rows
                           if not all(map(tuple.__contains__, spaces, k)))
                raise InvalidCpt(
                    f"{name}: CPT row {key} is outside the parent state space"
                ) from None

    # -- basics ---------------------------------------------------------

    def cpt(self, name: str) -> Cpt:
        self.graph._require(name)
        return self._nodes[name].cpt

    def states(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).states

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteScm):
            return NotImplemented
        return self.graph == other.graph and self._nodes == other._nodes

    def _check_assignment(self, assignment: Assignment) -> None:
        for node, state in assignment.items():
            self.graph._require(node)
            if state not in self._nodes[node].cpt.states:
                raise UnknownState(node, state)

    # -- exact inference ---------------------------------------------------

    def joint_probability(self, assignment: Assignment) -> float:
        """Probability of one complete configuration of all nodes."""
        self._check_assignment(assignment)
        missing = set(self.graph.node_names()) - set(assignment)
        if missing:
            raise PartialAssignment(missing)
        return self._event_probability(assignment)

    def _event_probability(self, constraints: Assignment) -> float:
        """Sum-product over the constrained nodes and their ancestors (every
        other node is barren and sums out to 1): each kept CPT's table
        sliced at its constrained states, and one einsum per step of
        `_elimination_plan`, so the cost it checked is the cost that runs.
        Each call takes labels for one step's variables only; one einsum over
        all of them would run out of its 52 labels on a long chain."""
        if not constraints:
            return 1.0
        keep = set(constraints).union(*map(self.graph.ancestors, constraints))
        tables, scopes = [], []
        # topological order, not set order, fixes the plan and so the bits
        for name in (n for n in self.graph.topological_order() if n in keep):
            index, scope = [], []
            for var in (*self._nodes[name].cpt.parents, name):
                states = self._nodes[var].cpt.states
                if var in constraints:
                    index.append(states.index(constraints[var]))
                elif len(states) == 1:
                    # nothing to sum, and an axis would take one of
                    # einsum's 52 labels
                    index.append(0)
                else:
                    index.append(slice(None))
                    scope.append(var)
            tables.append(self._nodes[name].table[tuple(index)])
            scopes.append(tuple(scope))
        sizes = {v: len(self._nodes[v].cpt.states) for v in keep}
        for ids, out in _elimination_plan(scopes, sizes):
            axis: dict[str, int] = {}
            operands = []
            for i in ids:
                labels = [axis.setdefault(v, len(axis)) for v in scopes[i]]
                operands += [tables[i], labels]
                tables[i] = None
            tables.append(np.einsum(*operands, [axis[v] for v in out]))
            scopes.append(out)
        return math.prod(float(t) for t in tables if t is not None)

    def probability(self, event: Assignment) -> float:
        """Marginal probability of a partial configuration."""
        self._check_assignment(event)
        return self._event_probability(event)

    def query_conditional(self, target: Assignment, evidence: Assignment) -> float:
        """P(target | evidence), exactly, as a ratio of two event probabilities."""
        self._check_assignment(target)
        self._check_assignment(evidence)
        if not target:
            raise PartialAssignment(set())
        shared = set(target) & set(evidence)
        if shared:
            raise PartialOverlap(shared)
        denom = self._event_probability(evidence)
        if denom == 0.0:
            raise ZeroEvidenceProbability(
                f"evidence {dict(evidence)} has probability zero"
            )
        joint = dict(evidence)
        joint.update(target)
        return self._event_probability(joint) / denom

    # -- interventions ------------------------------------------------------

    def intervene(self, do: Assignment) -> "DiscreteScm":
        """Model after do(X=x): edges into each do-node cut, its table a
        point mass. Every other node keeps its laid-out CPT, since its
        parents and their states are unchanged."""
        self._check_assignment(do)
        model = DiscreteScm.__new__(DiscreteScm)
        model.graph = self.graph.mutilate(do)
        model._nodes = dict(self._nodes)
        for name, value in do.items():
            model._nodes[name] = layout(Cpt.point_mass(name, self.states(name), value), ())
        return model

    # -- sampling -------------------------------------------------------------

    def sample(
        self, n: int, seed: int, include_latent: bool = False
    ) -> DiscreteDataset:
        """Draw n records by ancestral sampling.

        Latent columns are omitted unless include_latent is set, which is how
        confounded observational data is produced. The generator is numpy's
        PCG64; identical seeds give identical datasets.
        """
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        rng = np.random.default_rng(seed)
        arrays: dict[str, np.ndarray] = {}
        for name in self.graph.topological_order():
            node = self._nodes[name]
            arrays[name] = draw_codes(node, [arrays[p] for p in node.cpt.parents], n, rng)

        emitted = [
            node.name
            for node in self.graph.nodes
            if include_latent or node.kind is not NodeKind.LATENT
        ]
        return DiscreteDataset._from_codes(
            emitted, arrays, {name: self.states(name) for name in emitted}, n
        )


def _elimination_plan(
    scopes: Sequence[tuple[str, ...]], sizes: Mapping[str, int]
) -> list[tuple[list[int], tuple[str, ...]]]:
    """Steps that sum every variable out of the factors with these scopes,
    one variable a step in min-weight order (Kjaerulff 1990; Koller &
    Friedman 9.4): each step sums out the variable whose factors together
    span the fewest configurations, the first such variable on a tie. A
    step is (ids, scope): it merges the factors at `ids` into a new factor
    with that scope, whose id is the next free one. Raises ModelTooLarge,
    before any step runs, once the configurations the steps span pass
    QUERY_BUDGET."""
    scopes = list(scopes)
    holders: dict[str, set[int]] = {}
    for i, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, set()).add(i)

    def merged(v: str) -> tuple[str, ...]:
        return tuple(dict.fromkeys(u for i in sorted(holders[v]) for u in scopes[i]))

    weight = {v: math.prod(sizes[u] for u in merged(v)) for v in holders}
    steps, spent = [], 0
    while weight:
        var = min(weight, key=weight.__getitem__)
        spent += weight.pop(var)
        if spent > QUERY_BUDGET:
            raise ModelTooLarge(QUERY_BUDGET)
        out = tuple(u for u in merged(var) if u != var)
        ids = sorted(holders.pop(var))
        for u in out:
            holders[u].difference_update(ids)
            holders[u].add(len(scopes))
        scopes.append(out)
        for u in out:
            weight[u] = math.prod(sizes[w] for w in merged(u))
        steps.append((ids, out))
    return steps


@dataclass(frozen=True)
class Layout:
    """A CPT laid out by `layout`; two layouts are equal when their CPTs are.
    `table` (read-only) holds P(node | parents) indexed by the parents' state
    codes, then by the node's own. Row r of `cdf` holds, for the parent
    configuration ranked r in sorted label order, the cumulative
    probabilities of the node's states but the last, built as
    `Generator.choice` builds them; it is stored column by column.
    `ranks[i]` takes parent i's codes to the ranks of their labels in sorted
    order, or is None where the labels are declared sorted."""

    cpt: Cpt
    table: np.ndarray = field(compare=False)
    cdf: np.ndarray = field(compare=False)
    ranks: tuple[np.ndarray | None, ...] = field(compare=False)


def layout(cpt: Cpt, parent_states: Sequence[Sequence[str]]) -> Layout:
    """`cpt` laid out over `parent_states`, its parents' states in code
    order. Rows for other states are left out; a combination with no row
    raises InvalidCpt. Ranks take the narrowest unsigned type holding every
    configuration's rank, as `draw_codes`' keys do, so numpy's stable
    argsort can take its radix route on keys of at most 16 bits."""
    codes = [{s: i for i, s in enumerate(states)} for states in parent_states]
    rows = {tuple(map(dict.get, codes, key)): dist for key, dist in cpt.rows.items()}
    shape = [len(states) for states in parent_states]
    try:
        table = np.array([rows[c] for c in product(*map(range, shape))])
    except KeyError as gap:
        combo = tuple(map(getitem, parent_states, gap.args[0]))
        raise InvalidCpt(f"{cpt.node}: no CPT row for parent states {combo}") from None
    configs, k = math.prod(shape), len(cpt.states)
    table = table.reshape(*shape, k)
    table.flags.writeable = False
    orders = [sorted(range(len(s)), key=s.__getitem__) for s in parent_states]
    cdf = table[np.ix_(*orders)].reshape(configs, k).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return Layout(
        cpt,
        table,
        np.ascontiguousarray(cdf[:, :-1].T),
        tuple(None if list(states) == sorted(states)
              else np.argsort(order).astype(np.min_scalar_type(configs))
              for states, order in zip(parent_states, orders)),
    )


def draw_codes(
    node: Layout, parent_codes: Sequence[np.ndarray], n: int, rng: np.random.Generator
) -> np.ndarray:
    """State codes of `node` drawn for n records, given the records' parent
    state codes, by inversion of one `rng.random(n)` (Devroye 1986, 2.1).
    The parents' state counts and the node's code type are read off
    `node.table`'s shape.

    The records take the uniforms in (parent configuration's sorted labels,
    record index) order, and a record's code is the number of its
    configuration's CDF entries at or below its uniform. That is what one
    `rng.choice(k, size=m, p=row)` per configuration present, in sorted label
    order, returns: choice compares `random(m)` with the same CDF through
    `searchsorted(side="right")`, and back-to-back `random` calls read the
    generator's stream as one call does."""
    *sizes, k = node.table.shape
    u = rng.random(n)
    key = None
    if sizes:
        key = np.zeros(n, np.min_scalar_type(node.cdf.shape[1]))
        for size, rank, codes in zip(sizes, node.ranks, parent_codes):
            key *= size
            key += codes.astype(key.dtype) if rank is None else rank[codes]
        spread = np.empty(n)
        spread[np.argsort(key, kind="stable")] = u
        u = spread
    out = np.zeros(n, _code_dtype(range(k)))
    for column in node.cdf:  # a root's columns hold one entry each
        out += (column if key is None else column[key]) <= u
    return out


# -- JSON interchange -----------------------------------------------------------


def _row_key(parents: tuple[str, ...], combo: tuple[str, ...]) -> str:
    return ",".join(f"{p}={v}" for p, v in zip(parents, combo))


def _parse_row_key(key: str, parents: tuple[str, ...]) -> tuple[str, ...]:
    if key == "":
        return ()
    pairs = dict(part.split("=", 1) for part in key.split(","))
    if set(pairs) != set(parents):
        raise InvalidCpt(f"row key {key!r} does not bind parents {parents}")
    return tuple(pairs[p] for p in parents)


def scm_to_dict(scm: DiscreteScm) -> dict:
    payload = graph_to_dict(scm.graph)
    latent = set(scm.graph.nodes_of_kind(NodeKind.LATENT))
    cpts = {}
    latents = {}
    for name in scm.graph.node_names():
        cpt = scm.cpt(name)
        if name in latent:
            latents[name] = {
                "states": list(cpt.states),
                "probs": list(cpt.rows[()]),
            }
        else:
            cpts[name] = {
                "parents": list(cpt.parents),
                "states": list(cpt.states),
                "rows": {
                    _row_key(cpt.parents, combo): list(dist)
                    for combo, dist in sorted(cpt.rows.items())
                },
            }
    payload["cpts"] = cpts
    if latents:
        payload["latent"] = latents
    return payload


def scm_from_dict(payload: dict) -> DiscreteScm:
    graph = graph_from_dict(payload)
    cpts = {}
    for name, spec in payload.get("cpts", {}).items():
        parents = tuple(spec["parents"])
        rows = {_parse_row_key(key, parents): dist for key, dist in spec["rows"].items()}
        cpts[name] = Cpt(name, parents, spec["states"], rows)
    latent_dists = {
        name: dict(zip(spec["states"], spec["probs"]))
        for name, spec in payload.get("latent", {}).items()
    }
    return DiscreteScm(graph, cpts, latent_dists)
