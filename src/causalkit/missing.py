"""Missingness graphs and what can be recovered under them.

An MGraph wraps a CausalGraph in which each partially observed variable V is
wired to a missingness indicator R_v and a proxy V*: the proxy has exactly the
two parents V and R_v and reports V when R_v = 0, Missing otherwise.
Indicators and proxies never cause substantive variables.

`classify_mechanism` reads the mechanism off the graph: MCAR when the
indicators are d-separated from everything substantive, MAR when they are
d-separated from the partially observed part given the fully observed part,
MNAR otherwise. `recover_joint` matches the graph against the four canonical
two-variable families and either evaluates the family's estimand from masked
data or reports non-recoverability (self-masking). `is_ci_testable` applies
the three syntactic conditions under which a conditional-independence
statement remains testable from partially observed rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import (
    EmptySelection,
    EmptyStratum,
    InvalidCpt,
    OverlappingSets,
    SchemaMismatch,
    UnknownNode,
    UnmatchedPattern,
)
from .graph import CausalGraph, NodeKind, graph_from_dict, graph_to_dict

if TYPE_CHECKING:  # imported where used, so the graph-only functions load no numpy
    from .data import DiscreteDataset, ProbTable
    from .scm import Cpt


class Mechanism(str, Enum):
    MCAR = "MCAR"
    MAR = "MAR"
    MNAR = "MNAR"


class NotRecoverable:
    """Sentinel result: the matched family admits no consistent estimand."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_RECOVERABLE"


NOT_RECOVERABLE = NotRecoverable()


class MGraph:
    """A causal graph augmented with missingness indicators and proxies.

    `partial` maps each partially observed variable to its (indicator, proxy)
    pair; the underlying graph must already contain those nodes with the
    right kinds and the standard wiring (proxy's parents are exactly the
    variable and its indicator).
    """

    def __init__(self, graph: CausalGraph, partial: Mapping[str, tuple[str, str]]):
        self.graph = graph
        self.partial: dict[str, tuple[str, str]] = {
            v: (r, p) for v, (r, p) in sorted(partial.items())
        }

        kinds = {n.name: n.kind for n in graph.nodes}
        bound_r = [r for r, _ in self.partial.values()]
        bound_p = [p for _, p in self.partial.values()]
        for v, (r, p) in self.partial.items():
            for name in (v, r, p):
                if name not in kinds:
                    raise UnknownNode(name)
            if kinds[v] is not NodeKind.OBSERVED:
                raise SchemaMismatch(
                    f"partially observed variable {v!r} must be an observed node"
                )
            if kinds[r] is not NodeKind.MISS_INDICATOR:
                raise SchemaMismatch(f"{r!r} must be a miss_indicator node")
            if kinds[p] is not NodeKind.PROXY:
                raise SchemaMismatch(f"{p!r} must be a proxy node")
            if graph.parents(p) != tuple(sorted((v, r))):
                raise SchemaMismatch(
                    f"proxy {p!r} must have exactly the parents {v!r} and {r!r}"
                )
        if len(set(bound_r)) != len(bound_r) or len(set(bound_p)) != len(bound_p):
            raise SchemaMismatch("an indicator or proxy is bound twice")

        stray_r = set(graph.nodes_of_kind(NodeKind.MISS_INDICATOR)) - set(bound_r)
        stray_p = set(graph.nodes_of_kind(NodeKind.PROXY)) - set(bound_p)
        if stray_r or stray_p:
            raise SchemaMismatch(
                f"unbound indicator/proxy nodes: {sorted(stray_r | stray_p)}"
            )

        substantive = set(self.substantive_vars()) | set(
            graph.nodes_of_kind(NodeKind.LATENT)
        )
        for a, b in graph.edges:
            if kinds[a] in (NodeKind.MISS_INDICATOR, NodeKind.PROXY):
                if b in substantive:
                    raise SchemaMismatch(
                        f"{a!r} may not cause substantive variable {b!r}"
                    )

    def substantive_vars(self) -> tuple[str, ...]:
        return self.graph.nodes_of_kind(NodeKind.OBSERVED)

    def fully_observed(self) -> tuple[str, ...]:
        return tuple(
            v for v in self.substantive_vars() if v not in self.partial
        )

    def partially_observed(self) -> tuple[str, ...]:
        return tuple(sorted(self.partial))

    def indicators(self) -> tuple[str, ...]:
        return tuple(r for r, _ in (self.partial[v] for v in sorted(self.partial)))

    def indicator_of(self, var: str) -> str:
        return self.partial[var][0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MGraph):
            return NotImplemented
        return self.graph == other.graph and self.partial == other.partial


def mgraph_to_dict(mg: MGraph) -> dict:
    payload = graph_to_dict(mg.graph)
    payload["partial"] = [
        {"var": v, "r": r, "proxy": p} for v, (r, p) in sorted(mg.partial.items())
    ]
    return payload


def mgraph_from_dict(payload: dict) -> MGraph:
    graph = graph_from_dict(payload)
    partial = {
        entry["var"]: (entry["r"], entry["proxy"])
        for entry in payload.get("partial", [])
    }
    return MGraph(graph, partial)


def mgraph_to_json(mg: MGraph) -> str:
    return json.dumps(mgraph_to_dict(mg), indent=2)


def mgraph_from_json(text: str) -> MGraph:
    return mgraph_from_dict(json.loads(text))


def mask_cpts_to_dict(cpts: Mapping[str, Cpt]) -> dict:
    """Indicator tables keyed by indicator: parents, states, and the rows as
    [parent states, distribution] pairs in sorted order."""
    return {
        r: {
            "parents": list(cpt.parents),
            "states": list(cpt.states),
            "rows": [[list(k), list(v)] for k, v in sorted(cpt.rows.items())],
        }
        for r, cpt in cpts.items()
    }


def mask_cpts_from_dict(payload: dict) -> dict[str, Cpt]:
    from .scm import Cpt

    return {
        r: Cpt(r, spec["parents"], spec["states"],
               {tuple(key): dist for key, dist in spec["rows"]})
        for r, spec in payload.items()
    }


def mask_cpts_to_json(cpts: Mapping[str, Cpt]) -> str:
    return json.dumps(mask_cpts_to_dict(cpts), indent=2)


def mask_cpts_from_json(text: str) -> dict[str, Cpt]:
    return mask_cpts_from_dict(json.loads(text))


def classify_mechanism(mg: MGraph) -> Mechanism:
    """MCAR / MAR / MNAR read off the graph by d-separation."""
    g = mg.graph
    r_nodes = set(mg.indicators())
    latent = set(g.nodes_of_kind(NodeKind.LATENT))
    v_obs = set(mg.fully_observed())
    v_mis = set(mg.partially_observed())
    if g.is_d_separated(r_nodes, v_obs | v_mis | latent):
        return Mechanism.MCAR
    if g.is_d_separated(r_nodes, v_mis | latent, v_obs):
        return Mechanism.MAR
    return Mechanism.MNAR


def apply_missingness(
    ds: DiscreteDataset,
    mg: MGraph,
    r_cpts: Mapping[str, Cpt],
    seed: int,
) -> DiscreteDataset:
    """Sample the indicators and mask the dataset accordingly.

    Each indicator's CPT must have states ("0", "1") with 1 meaning missing,
    parents equal to its parents in the m-graph, and a row for every
    combination of parent states the dataset declares (rows for other states
    go unused). It is laid out over those states by `scm.layout` and drawn
    by `scm.draw_codes`, as a model's nodes are, in topological order from
    one generator; parent values are read from the unmasked data, so
    self-masking mechanisms behave as wired.
    Returns a copy with masked cells set to Missing and one appended column
    per indicator.
    """
    import numpy as np

    from .data import DiscreteDataset
    from .scm import draw_codes, layout

    g = mg.graph
    for v in mg.partial:
        if v not in ds.columns:
            raise SchemaMismatch(f"dataset lacks partially observed column {v!r}")

    order = [n for n in g.topological_order() if n in set(mg.indicators())]
    for v, (r, _) in mg.partial.items():
        cpt = r_cpts.get(r)
        if cpt is None:
            raise SchemaMismatch(f"no CPT supplied for indicator {r!r}")
        if cpt.node != r:
            raise SchemaMismatch(f"CPT under key {r!r} is for node {cpt.node!r}")
        if cpt.states != ("0", "1"):
            raise InvalidCpt(f"indicator {r!r} must have states ('0', '1')")
        if cpt.parents != g.parents(r):
            raise SchemaMismatch(
                f"{r}: CPT parents {cpt.parents} do not match m-graph parents "
                f"{g.parents(r)}"
            )

    for name in ds.columns:
        if (ds.codes[name] < 0).any():
            raise SchemaMismatch(
                f"pre-masking dataset has missing cells in column {name!r}"
            )

    rng = np.random.default_rng(seed)
    codes = dict(ds.codes)
    states = dict(ds.states)
    for r in order:
        cpt = r_cpts[r]
        for p in cpt.parents:
            if p not in codes:
                raise SchemaMismatch(
                    f"indicator parent {p!r} is not a dataset column"
                )
        spaces = [states[p] for p in cpt.parents]
        codes[r] = draw_codes(layout(cpt, spaces), [codes[p] for p in cpt.parents],
                              len(ds), rng)
        states[r] = cpt.states
    for v, (r, _) in mg.partial.items():
        codes[v] = np.where(codes[r] == 1, -1, ds.codes[v])
    return DiscreteDataset._from_codes(
        ds.columns + tuple(sorted(mg.indicators())), codes, states, len(ds)
    )


def _match_two_var_family(mg: MGraph, variables: Sequence[str]):
    """Identify (cause, outcome, family letter) or raise UnmatchedPattern."""
    g = mg.graph
    if g.nodes_of_kind(NodeKind.LATENT):
        raise UnmatchedPattern("latent nodes present")
    substantive = set(mg.substantive_vars())
    if set(variables) != substantive or len(substantive) != 2:
        raise UnmatchedPattern(
            f"expected exactly the two substantive variables, got {list(variables)}"
        )
    sub_edges = [
        (a, b) for a, b in g.edges if a in substantive and b in substantive
    ]
    if len(sub_edges) != 1:
        raise UnmatchedPattern("expected exactly one edge between the variables")
    cause, outcome = sub_edges[0]

    partial = set(mg.partial)
    if partial == {outcome}:
        r_y = mg.indicator_of(outcome)
        mech_parents = g.parents(r_y)
        if mech_parents == ():
            return cause, outcome, "a"
        if mech_parents == (cause,):
            return cause, outcome, "b"
        if mech_parents == (outcome,):
            return cause, outcome, "c"
        raise UnmatchedPattern(
            f"indicator {r_y!r} has unsupported parents {mech_parents}"
        )
    if partial == {cause, outcome}:
        r_x = mg.indicator_of(cause)
        r_y = mg.indicator_of(outcome)
        if g.parents(r_x) == () and g.parents(r_y) == (cause,):
            return cause, outcome, "d"
        raise UnmatchedPattern("two-sided pattern requires X -> R_y and root R_x")
    raise UnmatchedPattern(f"unsupported partial set {sorted(partial)}")


def recover_joint(
    mg: MGraph, ds: DiscreteDataset, variables: Sequence[str]
) -> ProbTable | NotRecoverable:
    """Estimate P(variables) from masked data when the m-graph allows it.

    Supports the four canonical one-edge families; self-masking (the
    outcome causing its own indicator) returns NOT_RECOVERABLE. Graphs
    outside the families raise UnmatchedPattern.
    """
    from .data import ProbTable, marginal_counts

    cause, outcome, family = _match_two_var_family(mg, variables)
    if family == "c":
        return NOT_RECOVERABLE

    r_y = mg.indicator_of(outcome)
    x_states = ds.column_states(cause)
    y_states = ds.column_states(outcome)

    entries: dict[tuple[str, str], float] = {}
    if family == "a":
        xy = ds.counts([cause, outcome], where={r_y: "0"})
        total = xy.total()
        if total == 0:
            raise EmptyStratum({r_y: "0"})
        for key, c in xy.items():
            entries[key] = c / total
    else:
        if family == "b":
            x_counts = ds.counts([cause])
            if not x_counts:
                raise EmptySelection(f"no complete rows over {[cause]}")
            xy = ds.counts([cause, outcome], where={r_y: "0"})
        else:  # family d
            r_x = mg.indicator_of(cause)
            x_counts = ds.counts([cause], where={r_x: "0"})
            if not x_counts:
                raise EmptyStratum({r_x: "0"})
            xy = ds.counts([cause, outcome], where={r_x: "0", r_y: "0"})
        n = x_counts.total()
        x_totals = marginal_counts(xy, [0])
        for xv in x_states:
            p_x = x_counts[(xv,)] / n
            if p_x == 0.0:
                continue
            total = x_totals[(xv,)]
            if not total:
                raise EmptyStratum({cause: xv})
            for yv in y_states:
                if xy[(xv, yv)]:
                    entries[(xv, yv)] = p_x * (xy[(xv, yv)] / total)

    variables = tuple(variables)
    if variables == (cause, outcome):
        return ProbTable(variables, entries)
    return ProbTable(
        variables, {(yv, xv): p for (xv, yv), p in entries.items()}
    )


@dataclass(frozen=True)
class TestabilityResult:
    testable: bool
    condition1: bool
    condition2: bool
    condition3: bool
    r_x: frozenset[str]
    r_y: frozenset[str]
    r_z: frozenset[str]


def is_ci_testable(
    mg: MGraph, x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()
) -> TestabilityResult:
    """Syntactic testability of the statement (x ⫫ y | z) under missingness.

    With R_Xm the indicators of partially observed members of x (likewise
    for y, z), the statement is testable iff: (1) y has a member outside
    R_Xm ∪ R_Zm; (2) R_Xm ⊆ x ∪ y ∪ z; (3) R_Ym ∪ R_Zm ⊆ y ∪ z.
    Statement members may be substantive variables or indicators.
    """
    xs, ys, zs = frozenset(x), frozenset(y), frozenset(z)
    legal = set(mg.substantive_vars()) | set(mg.indicators()) | set(
        mg.graph.nodes_of_kind(NodeKind.LATENT)
    )
    for name in xs | ys | zs:
        if name not in legal:
            raise UnknownNode(name)
    overlap = (xs & ys) | (xs & zs) | (ys & zs)
    if overlap:
        raise OverlappingSets(overlap)

    def indicators_of(part: frozenset[str]) -> frozenset[str]:
        return frozenset(
            mg.indicator_of(v) for v in part if v in mg.partial
        )

    r_x = indicators_of(xs)
    r_y = indicators_of(ys)
    r_z = indicators_of(zs)

    cond1 = bool(ys - (r_x | r_z))
    cond2 = r_x <= (xs | ys | zs)
    cond3 = (r_y | r_z) <= (ys | zs)
    return TestabilityResult(
        testable=cond1 and cond2 and cond3,
        condition1=cond1,
        condition2=cond2,
        condition3=cond3,
        r_x=r_x,
        r_y=r_y,
        r_z=r_z,
    )
