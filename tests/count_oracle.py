"""Slow reference routes for the count kernel, kept to cross-check it.

Each function walks `DiscreteDataset.rows`, the label view, in Python and
counts records one at a time with a `Counter`: the way the library counted
before datasets were stored as integer-coded columns. Nothing here calls
`counts`, and the chi-square tail comes from `scipy.stats.chi2.sf` rather
than the library's port of Cephes `chdtrc` (`causalkit._chi2`), so agreement
with the library is a genuine two-route check. The estimator
routes raise the library's errors with the library's messages and combine
their counts in the library's order (sorted strata), so their floats must
equal the library's bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product
from typing import Mapping, Optional, Sequence

from scipy.stats import chi2

from causalkit import (
    CiResult,
    DiscreteDataset,
    EmptySelection,
    EmptyStratum,
    InsufficientData,
    PositivityViolation,
    SchemaMismatch,
    SimpsonReport,
    UnknownState,
)


def project(
    ds: DiscreteDataset,
    names: Sequence[str],
    where: Optional[Mapping[str, str]] = None,
) -> list[tuple]:
    """Label tuples over `names` of the rows observed in all of them and
    holding every state in `where`."""
    idx = [ds.columns.index(n) for n in names]
    want = [(ds.columns.index(c), v) for c, v in (where or {}).items()]
    out = []
    for row in ds.rows:
        vals = tuple(row[i] for i in idx)
        if any(v is None for v in vals) or any(row[i] != v for i, v in want):
            continue
        out.append(vals)
    return out


def counts(
    ds: DiscreteDataset,
    names: Sequence[str],
    where: Optional[Mapping[str, str]] = None,
) -> Counter:
    return Counter(project(ds, names, where))


def ci_test(
    ds: DiscreteDataset,
    x: str,
    y: str,
    z: Sequence[str] = (),
    alpha: float = 0.05,
    min_expected: float = 5.0,
) -> CiResult:
    """Stratified Pearson chi-square test, one stratum Counter per row."""
    zcols = sorted(z)
    rows = project(ds, [x, y] + zcols)
    if not rows:
        raise EmptySelection(f"no complete rows over {[x, y] + zcols}")
    strata: dict[tuple, Counter] = {}
    for r in rows:
        strata.setdefault(r[2:], Counter())[(r[0], r[1])] += 1
    statistic = 0.0
    dof = 0
    for zv in sorted(strata):
        table = strata[zv]
        xs = sorted({k[0] for k in table})
        ys = sorted({k[1] for k in table})
        if len(xs) < 2 or len(ys) < 2:
            continue
        n_s = sum(table.values())
        row_tot = {xv: sum(table[(xv, yv)] for yv in ys) for xv in xs}
        col_tot = {yv: sum(table[(xv, yv)] for xv in xs) for yv in ys}
        for xv in xs:
            for yv in ys:
                expected = row_tot[xv] * col_tot[yv] / n_s
                if expected < min_expected:
                    raise InsufficientData(
                        f"expected count {expected:.2f} < {min_expected} for "
                        f"({x}={xv}, {y}={yv}) in stratum {dict(zip(zcols, zv))}"
                    )
                statistic += (table[(xv, yv)] - expected) ** 2 / expected
        dof += (len(xs) - 1) * (len(ys) - 1)
    p_value = float(chi2.sf(statistic, dof)) if dof > 0 else 1.0
    return CiResult(
        x, y, tuple(zcols), statistic, dof, p_value, alpha, p_value > alpha
    )


class BicCache:
    """Σ c·ln c per variable subset, marginalized from one Counter of the
    complete rows over every column; same interface as the library's cache,
    so `greedy_score_search` can run on either."""

    def __init__(self, ds: DiscreteDataset):
        names = sorted(ds.columns)
        rows = project(ds, names)
        if not rows:
            raise EmptySelection("no complete rows")
        self.names = names
        self.n = len(rows)
        self.states = {v: ds.column_states(v) for v in names}
        self.full = Counter(rows)
        self._cache: dict[frozenset, float] = {}

    def log_count_sum(self, subset: frozenset) -> float:
        if subset not in self._cache:
            idx = [self.names.index(v) for v in sorted(subset)]
            marginal: Counter = Counter()
            for key, c in self.full.items():
                marginal[tuple(key[i] for i in idx)] += c
            self._cache[subset] = sum(
                c * math.log(c) for _, c in sorted(marginal.items())
            )
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


# -- estimators ------------------------------------------------------------------


def _check(ds: DiscreteDataset, column: str, value: str) -> None:
    if value not in ds.column_states(column):
        raise UnknownState(column, value)


def _strata(ds: DiscreteDataset, x: str, y: str, z: Sequence[str]):
    """Complete rows over (x, y, z...) tallied one at a time: (x, y, z...)
    cells, z totals, (z..., x) totals and the row count."""
    rows = project(ds, [x, y, *z])
    if not rows:
        raise EmptySelection(f"no complete rows over {[x, y, *z]}")
    joint, per_z, per_zx = Counter(), Counter(), Counter()
    for xv, yv, *zv in rows:
        joint[(xv, yv, *zv)] += 1
        per_z[tuple(zv)] += 1
        per_zx[(*zv, xv)] += 1
    return joint, per_z, per_zx, len(rows)


def backdoor_adjust(ds, x, x_val, y, y_val, z, laplace=False) -> float:
    _check(ds, x, x_val)
    _check(ds, y, y_val)
    z = list(z)
    joint, per_z, per_zx, n = _strata(ds, x, y, z)
    total = 0.0
    if laplace:
        combos = sorted(product(*(ds.column_states(c) for c in z)))
        n_y = len(ds.column_states(y))
        for zv in combos:
            p_y = (joint[(x_val, y_val, *zv)] + 1) / (per_zx[(*zv, x_val)] + n_y)
            total += p_y * ((per_z[zv] + 1) / (n + len(combos)))
        return total
    for zv in sorted(per_z):
        c_xz = per_zx[(*zv, x_val)]
        if c_xz == 0:
            raise PositivityViolation(dict(zip(z, zv)) | {x: x_val})
        total += (joint[(x_val, y_val, *zv)] / c_xz) * (per_z[zv] / n)
    return total


def backdoor_adjust_ratio(ds, x, x_val, y, y_val, z) -> float:
    _check(ds, x, x_val)
    _check(ds, y, y_val)
    z = list(z)
    joint, per_z, per_zx, n = _strata(ds, x, y, z)
    total = 0.0
    for zv in sorted(per_z):
        c_xz = per_zx[(*zv, x_val)]
        if c_xz == 0:
            raise PositivityViolation(dict(zip(z, zv)) | {x: x_val})
        total += (joint[(x_val, y_val, *zv)] / n) / ((c_xz / n) / (per_z[zv] / n))
    return total


def empirical_conditional(ds, target, given) -> dict[str, float]:
    for col, val in given.items():
        _check(ds, col, val)
    hits = Counter(r[0] for r in project(ds, [target], given))
    if not hits:
        raise EmptyStratum(dict(given))
    total = sum(hits.values())
    return {s: hits[s] / total for s in ds.column_states(target)}


def stratified_debias(ds, x, x_val, y, y_val, strata) -> float:
    _check(ds, x, x_val)
    _check(ds, y, y_val)
    s = list(strata)
    weights = Counter(r[1:] for r in project(ds, [x, *s]) if r[0] == x_val)
    if not weights:
        raise EmptySelection(f"no rows with {x}={x_val} complete over {s}")
    n = sum(weights.values())
    hits, totals = Counter(), Counter()
    for xv, yv, *sv in project(ds, [x, y, *s]):
        if xv == x_val:
            totals[tuple(sv)] += 1
            hits[tuple(sv)] += yv == y_val
    total = 0.0
    for sv in sorted(weights):
        if totals[sv] == 0:
            raise EmptyStratum({x: x_val} | dict(zip(s, sv)))
        total += (hits[sv] / totals[sv]) * (weights[sv] / n)
    return total


def detect_simpson_reversal(ds, x, y, y_val, z) -> SimpsonReport:
    arms = ds.column_states(x)
    if len(arms) != 2:
        raise SchemaMismatch(
            f"treatment column {x!r} must be binary, has states {arms}"
        )
    _check(ds, y, y_val)
    a, b = arms
    z = list(z)
    rows = project(ds, [x, y, *z])
    if not rows:
        raise EmptySelection(f"no complete rows over {[x, y, *z]}")

    def rate(x_val, zv):
        arm = [r for r in rows if r[0] == x_val and (zv is None or r[2:] == zv)]
        if not arm:
            raise EmptyStratum({x: x_val} | (dict(zip(z, zv)) if zv else {}))
        return sum(r[1] == y_val for r in arm) / len(arm)

    def sign(delta):
        return (delta > 0) - (delta < 0)

    aggregate = {a: rate(a, None), b: rate(b, None)}
    stratum_rates = {
        zv: {a: rate(a, zv), b: rate(b, zv)} for zv in sorted({r[2:] for r in rows})
    }
    stratum_signs = {zv: sign(r[a] - r[b]) for zv, r in stratum_rates.items()}
    signs = set(stratum_signs.values())
    unanimous = len(signs) == 1 and 0 not in signs
    return SimpsonReport(
        x=x,
        y=y,
        y_val=y_val,
        strata=tuple(z),
        arms=(a, b),
        aggregate_rates=aggregate,
        aggregate_sign=sign(aggregate[a] - aggregate[b]),
        stratum_rates=stratum_rates,
        stratum_signs=stratum_signs,
        reversal=unanimous and sign(aggregate[a] - aggregate[b]) != next(iter(signs)),
        mixed=not unanimous,
    )
