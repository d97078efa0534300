"""Adjustment-based effect estimation from categorical data.

All estimators are complete-case: a record is used only when every column the
estimator touches is observed. `backdoor_adjust` computes the adjustment sum
Σ_z P(y|x,z)·P(z); `backdoor_adjust_ratio` computes the algebraically equal
joint-count route Σ_z P(x,y,z)/P(x|z) so the two can cross-check each other.
Both are full double precision; nothing is rounded internally. The treatment
and the outcome must be two columns outside the adjustment set or strata;
`check_roles` refuses any other query before a row is counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .data import DiscreteDataset, marginal_counts
from .errors import (
    EmptySelection,
    EmptyStratum,
    PositivityViolation,
    SchemaMismatch,
    UnknownState,
)

Sign = int  # +1, -1, or 0


def _check_value(ds: DiscreteDataset, column: str, value: str) -> None:
    if value not in ds.column_states(column):
        raise UnknownState(column, value)


def check_roles(x: str, y: str, z: Sequence[str]) -> None:
    """Raise SchemaMismatch unless treatment x and outcome y are distinct
    columns and neither is among the conditioning columns z."""
    if x == y:
        raise SchemaMismatch(f"treatment and outcome are the same column {x!r}")
    # a string is a sequence of names to Python: "ZY" would adjust for Y, Z
    if isinstance(z, str):
        raise SchemaMismatch(f"conditioning columns {z!r} are a string, not names")
    for role, name in (("treatment", x), ("outcome", y)):
        if name in z:
            raise SchemaMismatch(
                f"{role} column {name!r} is also among the conditioning columns {list(z)}"
            )


def empirical_conditional(
    ds: DiscreteDataset, target: str, given: Mapping[str, str]
) -> dict[str, float]:
    """P(target | given) as a dict over the target column's declared states."""
    for col, val in given.items():
        _check_value(ds, col, val)
    hits = ds.counts([target], where=given)
    if not hits:
        raise EmptyStratum(dict(given))
    total = hits.total()
    return {s: hits[(s,)] / total for s in ds.column_states(target)}


def _stratum_counts(
    ds: DiscreteDataset, x: str, y: str, z: Sequence[str]
):
    """Complete-case counts over (x, y, z...), their z totals and their
    (z..., x) totals."""
    joint = ds.counts([x, y, *z])
    if not joint:
        raise EmptySelection(f"no complete rows over {[x, y, *z]}")
    zpos = range(2, 2 + len(z))
    return joint, marginal_counts(joint, zpos), marginal_counts(joint, [*zpos, 0])


def backdoor_adjust(
    ds: DiscreteDataset,
    x: str,
    x_val: str,
    y: str,
    y_val: str,
    z: Sequence[str],
    laplace: bool = False,
) -> float:
    """Backdoor adjustment Σ_z P(y=y_val | x=x_val, z) · P(z).

    Every z-stratum present in the data must contain at least one record with
    x = x_val (positivity); otherwise PositivityViolation names the stratum.
    With `laplace` a +1 smoothing is applied to the stratum conditionals and
    stratum weights instead (exploratory use only).
    """
    check_roles(x, y, z)
    _check_value(ds, x, x_val)
    _check_value(ds, y, y_val)
    zcols = list(z)
    joint, per_stratum, per_stratum_x = _stratum_counts(ds, x, y, zcols)
    n = joint.total()

    if laplace:
        from itertools import product

        combos = sorted(product(*(ds.column_states(c) for c in zcols)))
        n_y = len(ds.column_states(y))
        total = 0.0
        for zv in combos:
            c_z = per_stratum[zv]
            c_xz = per_stratum_x[(*zv, x_val)]
            c_xyz = joint[(x_val, y_val, *zv)]
            p_y_given = (c_xyz + 1) / (c_xz + n_y)
            p_z = (c_z + 1) / (n + len(combos))
            total += p_y_given * p_z
        return total

    total = 0.0
    for zv in sorted(per_stratum):
        c_xz = per_stratum_x[(*zv, x_val)]
        if c_xz == 0:
            raise PositivityViolation(dict(zip(zcols, zv)) | {x: x_val})
        c_xyz = joint[(x_val, y_val, *zv)]
        total += (c_xyz / c_xz) * (per_stratum[zv] / n)
    return total


def backdoor_adjust_ratio(
    ds: DiscreteDataset,
    x: str,
    x_val: str,
    y: str,
    y_val: str,
    z: Sequence[str],
) -> float:
    """The same adjustment via joint frequencies, Σ_z P(x,y,z) / P(x|z).

    Algebraically identical to `backdoor_adjust`; kept as an independent
    computational route for cross-checking.
    """
    check_roles(x, y, z)
    _check_value(ds, x, x_val)
    _check_value(ds, y, y_val)
    zcols = list(z)
    joint, per_stratum, per_stratum_x = _stratum_counts(ds, x, y, zcols)
    n = joint.total()
    total = 0.0
    for zv in sorted(per_stratum):
        c_xz = per_stratum_x[(*zv, x_val)]
        if c_xz == 0:
            raise PositivityViolation(dict(zip(zcols, zv)) | {x: x_val})
        p_xyz = joint[(x_val, y_val, *zv)] / n
        p_x_given_z = (c_xz / n) / (per_stratum[zv] / n)
        total += p_xyz / p_x_given_z
    return total


def compute_ace(
    ds: DiscreteDataset,
    x: str,
    treat_val: str,
    control_val: str,
    y: str,
    y_val: str,
    z: Sequence[str],
) -> float:
    """Average causal effect P(y|do(x=treat)) - P(y|do(x=control)) via
    backdoor adjustment over z."""
    return backdoor_adjust(ds, x, treat_val, y, y_val, z) - backdoor_adjust(
        ds, x, control_val, y, y_val, z
    )


@dataclass(frozen=True)
class SimpsonReport:
    """Aggregate-vs-stratified comparison of a binary treatment.

    Rates are P(y = y_val | x = arm). Signs compare the first declared
    treatment state against the second (+1 when the first is higher).
    `reversal` is set when every stratum agrees on a nonzero sign and the
    aggregate sign differs; `mixed` when strata disagree among themselves.
    """

    x: str
    y: str
    y_val: str
    strata: tuple[str, ...]
    arms: tuple[str, str]
    aggregate_rates: dict[str, float]
    aggregate_sign: Sign
    stratum_rates: dict[tuple[str, ...], dict[str, float]]
    stratum_signs: dict[tuple[str, ...], Sign]
    reversal: bool
    mixed: bool


def _sign(delta: float) -> Sign:
    if delta > 0:
        return 1
    if delta < 0:
        return -1
    return 0


def detect_simpson_reversal(
    ds: DiscreteDataset, x: str, y: str, y_val: str, z: Sequence[str]
) -> SimpsonReport:
    """Check whether stratifying on z flips the direction of a binary
    treatment comparison.

    Every stratum present in the data must contain both treatment arms;
    a one-armed stratum raises EmptyStratum.
    """
    check_roles(x, y, z)
    arms = ds.column_states(x)
    if len(arms) != 2:
        raise SchemaMismatch(
            f"treatment column {x!r} must be binary, has states {arms}"
        )
    _check_value(ds, y, y_val)
    a, b = arms
    zcols = list(z)
    joint, per_stratum, per_stratum_x = _stratum_counts(ds, x, y, zcols)
    per_xy, per_x = marginal_counts(joint, [0, 1]), marginal_counts(joint, [0])

    def rate(x_val: str, zv: tuple | None) -> float:
        if zv is None:
            hit, tot = per_xy[(x_val, y_val)], per_x[(x_val,)]
        else:
            hit, tot = joint[(x_val, y_val, *zv)], per_stratum_x[(*zv, x_val)]
        if tot == 0:
            raise EmptyStratum({x: x_val} | (dict(zip(zcols, zv)) if zv else {}))
        return hit / tot

    aggregate = {a: rate(a, None), b: rate(b, None)}
    agg_sign = _sign(aggregate[a] - aggregate[b])

    stratum_rates: dict[tuple[str, ...], dict[str, float]] = {}
    stratum_signs: dict[tuple[str, ...], Sign] = {}
    for zv in sorted(per_stratum):
        rates = {a: rate(a, zv), b: rate(b, zv)}
        stratum_rates[zv] = rates
        stratum_signs[zv] = _sign(rates[a] - rates[b])

    signs = set(stratum_signs.values())
    unanimous = len(signs) == 1 and 0 not in signs
    reversal = unanimous and agg_sign != next(iter(signs))
    mixed = not unanimous

    return SimpsonReport(
        x=x,
        y=y,
        y_val=y_val,
        strata=tuple(zcols),
        arms=(a, b),
        aggregate_rates=aggregate,
        aggregate_sign=agg_sign,
        stratum_rates=stratum_rates,
        stratum_signs=stratum_signs,
        reversal=reversal,
        mixed=mixed,
    )
