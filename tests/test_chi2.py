"""The chi-square tail `ci_test` uses, against mpmath at 40 digits.

`discovery._chi2_sf` sums the finite series for P(chi2(dof) > x) at integer
dof. Its reference here is mpmath's regularized upper incomplete gamma
function Q(dof/2, x/2), which shares no code with it. The relative error is
bounded wherever the true tail is above 1e-290, with a wider bound for more
degrees of freedom, since the series then sums more rounded terms.
"""

from __future__ import annotations

import math
import random

import mpmath
import pytest

from causalkit.discovery import _chi2_sf

FLOOR = 1e-290

# (lowest dof, highest dof, bound on the relative error, draws)
BANDS = {
    "dof <= 60": (1, 60, 1e-13, 400),
    "dof <= 1,000": (61, 1_000, 2e-12, 120),
    "dof <= 100,000": (1_001, 100_000, 2e-10, 24),
}


def reference(dof: int, x: float) -> float:
    with mpmath.workdps(40):
        return float(
            mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True)
        )


def inputs(lo: int, hi: int, draws: int, seed: int) -> list[tuple[int, float]]:
    """`draws` (dof, x) pairs: dof log-uniform in [lo, hi], odd or even so
    that each kind of x below meets both parities. x is, in turn: twice
    within a few standard deviations of dof, once spread from far below dof
    to a dozen times it, and once deep in the upper tail, where the true
    value falls towards the floor."""
    rng = random.Random(seed)
    pairs = []
    for i in range(draws):
        dof = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if dof % 2 != (i + i // 4) % 2:
            dof = dof + 1 if dof < hi else dof - 1
        if i % 4 < 2:
            x = dof + rng.uniform(-4, 4) * math.sqrt(2 * dof)
        elif i % 4 == 2:
            x = dof * math.exp(rng.uniform(-6, 2.5))
        else:
            x = dof + rng.uniform(0, 1) * (1300 + 40 * math.sqrt(2 * dof))
        pairs.append((dof, max(x, 1e-3)))
    return pairs


@pytest.mark.parametrize("band", BANDS)
def test_series_matches_mpmath_within_the_band_bound(band):
    lo, hi, bound, draws = BANDS[band]
    pairs = inputs(lo, hi, draws, seed=lo)
    # a near-tail and a far-tail point at each end of the band, both parities
    for dof in (lo, lo + 1, hi - 1, hi):
        pairs += [(dof, float(dof)), (dof, dof / 50), (dof, 3.0 * dof + 40)]
    checked = {0: 0, 1: 0}
    worst = 0.0
    for dof, x in pairs:
        want = reference(dof, x)
        if want <= FLOOR:
            continue
        got = _chi2_sf(dof, x)
        worst = max(worst, abs(got - want) / want)
        checked[dof % 2] += 1
    assert worst <= bound, (band, worst)
    # both parities take part, each well past a handful of points
    assert min(checked.values()) >= 10, checked


@pytest.mark.parametrize(
    "dof, x",
    [(1, 0.9), (1, 3.841458820694124), (2, 5.991464547107979), (7, 1e-300),
     (10, 3.0), (1, 1280.0), (2, 1300.0), (30, 1200.0),
     (6, 1176.3), (14, 1346.9), (23, 1409.9), (52, 1338.0)],
)
def test_series_at_named_points(dof, x):
    # the 5 % critical values at dof 1 and 2, a tiny x, and deep tails
    # still above the floor. On the last four, subtracting h inside each
    # log term instead of once misses the bound by up to 6 %.
    want = reference(dof, x)
    assert want > FLOOR
    assert _chi2_sf(dof, x) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("dof", [1, 2, 3, 60, 1_000, 100_000])
def test_edges(dof):
    assert _chi2_sf(dof, 0.0) == 1.0
    # half the least subnormal rounds to 0, whose log is undefined
    assert _chi2_sf(dof, 5e-324) == 1.0
    assert _chi2_sf(dof, 1e7) == 0.0
