"""Slow reference routes for the count kernel, kept to cross-check it.

Each function walks `DiscreteDataset.rows`, the label view, in Python and
counts records one at a time with a `Counter`: the way the library counted
before datasets were stored as integer-coded columns. Nothing here calls
`counts`, and the chi-square tail comes from
`scipy.stats.chi2.sf` rather than the library's `scipy.special.chdtrc`, so
agreement with the library is a genuine two-route check.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from scipy.stats import chi2

from causalkit import CiResult, DiscreteDataset, EmptySelection, InsufficientData


def project(ds: DiscreteDataset, names: Sequence[str]) -> list[tuple]:
    """Label tuples over `names` of the rows observed in all of them."""
    idx = [ds.columns.index(n) for n in names]
    out = []
    for row in ds.rows:
        vals = tuple(row[i] for i in idx)
        if any(v is None for v in vals):
            continue
        out.append(vals)
    return out


def counts(ds: DiscreteDataset, names: Sequence[str]) -> Counter:
    return Counter(project(ds, names))


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
