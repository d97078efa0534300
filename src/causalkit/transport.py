"""Selection-bias detection, stratified de-biasing, and effect transport.

Selection into a study is modeled as conditioning on Selection-kind nodes.
`detect_selection_bias` reports backdoor paths that run through a selection
node and whether conditioning on selection unblocks them (collider opening).
`stratified_debias` re-weights stratum conditionals measured under selection
by stratum frequencies measured on everyone; `transport_estimate` carries a
per-stratum effect from a source population to a target via target stratum
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import (
    EmptySelection,
    EmptyStratum,
    WeightMismatch,
    WeightsNotNormalized,
)
from .graph import CausalGraph, NodeKind, Path

if TYPE_CHECKING:  # imported where used, so selection checks load no numpy
    from .data import DiscreteDataset


@dataclass(frozen=True)
class PathAssessment:
    path: Path
    blocked_unconditioned: bool
    blocked_under_selection: bool


@dataclass(frozen=True)
class SelectionReport:
    """Backdoor paths from x to y that pass through selection nodes.

    `biased` is set when at least one such path is open once all selection
    nodes are conditioned on (i.e. within the selected sample).
    """

    x: str
    y: str
    selection_nodes: tuple[str, ...]
    paths: tuple[PathAssessment, ...]
    biased: bool


def detect_selection_bias(graph: CausalGraph, x: str, y: str) -> SelectionReport:
    """Every backdoor path from x to y with a selection node inside it,
    judged once with nothing conditioned on and once with every selection
    node conditioned on.

    Selection nodes have no children, so each one sits on a reported path
    as a collider, and `blocked_unconditioned` is always true. The report is
    `biased` when some path is open under selection. Raises GraphTooLarge
    when listing the backdoor paths runs past the fixed step budget
    (`graph.PATH_STEP_BUDGET`).
    """
    selection = graph.nodes_of_kind(NodeKind.SELECTION)
    assessments = []
    for path in graph.backdoor_paths(x, y):
        if not any(node in selection for node in path.nodes[1:-1]):
            continue
        assessments.append(
            PathAssessment(
                path=path,
                blocked_unconditioned=graph.is_path_blocked(path, ()),
                blocked_under_selection=graph.is_path_blocked(path, selection),
            )
        )
    biased = any(not a.blocked_under_selection for a in assessments)
    return SelectionReport(
        x=x,
        y=y,
        selection_nodes=selection,
        paths=tuple(assessments),
        biased=biased,
    )


def stratified_debias(
    ds: DiscreteDataset,
    x: str,
    x_val: str,
    y: str,
    y_val: str,
    strata: Sequence[str],
) -> float:
    """Σ over strata of P(y | x, strata) · P(strata | x).

    Each factor is complete-case over exactly the columns it mentions, so on
    a selection-masked dataset (outcome Missing off-study, covariates always
    observed) the conditionals come from the study sample while the weights
    come from the whole population. On fully observed data this reduces to
    the plain conditional P(y | x).
    """
    from .data import marginal_counts
    from .estimation import _check_value, check_roles

    check_roles(x, y, strata)
    _check_value(ds, x, x_val)
    _check_value(ds, y, y_val)
    scols = list(strata)
    treated = {x: x_val}

    weight_counts = ds.counts(scols, where=treated)
    if not weight_counts:
        raise EmptySelection(f"no rows with {x}={x_val} complete over {scols}")
    n_base = weight_counts.total()

    cond_counts = ds.counts([y] + scols, where=treated)
    cond_totals = marginal_counts(cond_counts, range(1, 1 + len(scols)))

    total = 0.0
    for sv in sorted(weight_counts):
        if cond_totals[sv] == 0:
            raise EmptyStratum({x: x_val} | dict(zip(scols, sv)))
        conditional = cond_counts[(y_val, *sv)] / cond_totals[sv]
        total += conditional * (weight_counts[sv] / n_base)
    return total


@dataclass(frozen=True)
class StratumEffects:
    """A stratified effect in a source population plus target-population
    stratum weights."""

    stratum: str
    effects: Mapping[str, float]
    weights: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "effects", dict(self.effects))
        object.__setattr__(self, "weights", dict(self.weights))

    def to_dict(self) -> dict:
        return {
            "stratum": self.stratum,
            "effects": dict(sorted(self.effects.items())),
            "weights": dict(sorted(self.weights.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StratumEffects":
        return cls(payload["stratum"], payload["effects"], payload["weights"])


def transport_estimate(se: StratumEffects) -> float:
    """Weighted recombination Σ_s effect(s) · weight(s).

    Weights must already be the target population's distribution: they are
    validated (nonnegative, summing to 1 within 1e-9), never renormalized.
    """
    if set(se.effects) != set(se.weights):
        raise WeightMismatch(
            f"effect strata {sorted(se.effects)} != weight strata {sorted(se.weights)}"
        )
    if any(w < 0 for w in se.weights.values()):
        raise WeightsNotNormalized("negative weight")
    total_w = sum(se.weights.values())
    if not abs(total_w - 1.0) <= 1e-9:  # NaN fails too
        raise WeightsNotNormalized(f"weights sum to {total_w}, not 1")
    return sum(se.effects[k] * se.weights[k] for k in sorted(se.effects))
