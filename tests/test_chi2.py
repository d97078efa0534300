"""The chi-square tail port against scipy, bit for bit.

`causalkit._chi2.chdtrc` ports `scipy.special.chdtrc` (Cephes `igamc`)
operation for operation, so every p-value `ci_test` reports is the double
scipy would give. Values are compared by `repr`, which tells apart any two
doubles, 0.0 and -0.0 included.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import _chi2


def same(ours: float, scipys) -> bool:
    return repr(ours) == repr(float(scipys))


# igamc's routes, each with (df, x) pairs that take it (a = df/2 at x/2) and
# the set of spied functions below that those pairs call
SPIED = (
    "_igamc_series", "_igam_series", "_igamc_continued_fraction",
    "_asymptotic_series", "_lanczos_sum_expg_scaled", "lgam", "lgam1p", "log1pmx",
)
LANCZOS = {"_lanczos_sum_expg_scaled"}
BRANCHES = {
    "x = 0": (set(), [(1, 0.0), (3, 0.0), (100000, 0.0)]),
    "igamc_series (a = 1/2, 1 and fractional)": (
        {"_igamc_series", "lgam", "lgam1p"},
        [(1, 0.9), (1, 2.0), (1, 0.95), (2, 1.9), (2, 2.0), (1.7, 2.0), (0.3, 0.5)],
    ),
    "1 - igam_series, lgam route": (
        {"_igam_series", "lgam"}, [(1, 0.2), (10, 3.0), (60, 30.0), (7, 1e-300)]
    ),
    "1 - igam_series, Lanczos route": (
        {"_igam_series"} | LANCZOS,
        [(2, 1.2), (3, 2.0), (10, 8.0), (40, 30.0), (15, 14.306191218805747)],
    ),
    "continued fraction, lgam route": (
        {"_igamc_continued_fraction", "lgam"}, [(2, 10.0), (1, 3.2), (6, 40.0)]
    ),
    "continued fraction, Lanczos route": (
        {"_igamc_continued_fraction"} | LANCZOS,
        [(4, 5.0), (30, 40.0), (31, 39.549400645733), (19, 19.75898055826257)],
    ),
    "continued fraction, Lanczos route past a or x = 200": (
        {"_igamc_continued_fraction", "log1pmx"} | LANCZOS,
        [(380, 500.0), (500, 675.0)],
    ),
    "asymptotic series at a = x": (
        {"_asymptotic_series"}, [(100, 100.0), (1000, 1000.0), (100000, 100000.0)]
    ),
    "asymptotic series, 20 < a < 200": (
        {"_asymptotic_series", "log1pmx"}, [(100, 110.0), (60, 55.0), (398, 400.0)]
    ),
    "asymptotic series, a > 200": (
        {"_asymptotic_series", "log1pmx"}, [(1000, 1100.0), (100000, 99000.0)]
    ),
    "underflow to 0": (
        {"_igamc_continued_fraction", "lgam"},
        [(2, 2000.0), (2, 1e7), (100000, 1e7), (1, 1500.0), (4, 3068.3)],
    ),
}


@pytest.mark.parametrize("branch", BRANCHES)
def test_chdtrc_matches_scipy_on_each_branch(branch, monkeypatch):
    routes, pairs = BRANCHES[branch]
    reached: set[str] = set()
    for name in SPIED:
        def spy(*args, _name=name, _f=getattr(_chi2, name)):
            reached.add(_name)
            return _f(*args)

        monkeypatch.setattr(_chi2, name, spy)
    for df, x in pairs:
        reached.clear()
        ours = _chi2.chdtrc(df, x)
        assert reached == routes, (df, x)
        assert same(ours, sc.chdtrc(df, x)), (df, x)
        if branch == "underflow to 0":
            assert ours == 0.0


def test_chdtrc_edges_match_scipy():
    nan, inf = math.nan, math.inf
    for df, x in [
        (3, -1.0), (-1, 3.0), (0.0, 1.0), (0.0, 0.0), (2, inf), (inf, 3.0),
        (inf, inf), (3, nan), (nan, 3.0),
    ]:
        assert same(_chi2.chdtrc(df, x), sc.chdtrc(df, x)), (df, x)


@settings(max_examples=2000, deadline=None)
@given(
    df=st.integers(1, 10**5),
    x=st.floats(0.0, 1e7),
    near=st.floats(0.0, 3.0),
    use_near=st.booleans(),
)
def test_chdtrc_matches_scipy_bit_for_bit(df, x, near, use_near):
    # half the draws put x near df, where the asymptotic series and the
    # Lanczos route of igam_fac live
    if use_near:
        x = df * near
    assert same(_chi2.chdtrc(df, x), sc.chdtrc(df, x))


def test_lgam_matches_gammaln_on_half_integers():
    for k in range(1, 4001):
        assert same(_chi2.lgam(k / 2), sc.gammaln(k / 2)), k / 2


def test_helpers_match_scipy_bit_for_bit():
    # the Cephes helpers scipy exposes directly; math.expm1 and math.log1p
    # would differ from these in the last bit
    grid = [i / 64 - 1.0 for i in range(129)]
    for v in grid + [-math.inf, math.inf]:
        assert same(_chi2.expm1(v), sc.expm1(v)), v
        assert same(_chi2.erf(v * 3), sc.erf(v * 3)), v
        assert same(_chi2.erfc(v * 30), sc.erfc(v * 30)), v
        if v > -1.0:
            assert same(_chi2.log1p(v), sc.log1p(v)), v
    for n in range(2, 42):
        assert same(_chi2.zeta(n), sc.zeta(n, 1)), n


def test_log1pmx_matches_scipy_past_the_series():
    # |x| >= 0.5 goes through the ported log1p, which chdtrc's own routes
    # never reach; scipy exposes its log1pmx only privately
    ref = getattr(sc._ufuncs, "_log1pmx", None)
    if ref is None:
        pytest.skip("this scipy has no _log1pmx")
    for i in range(1, 400):
        v = i / 100 - 0.995
        assert same(_chi2.log1pmx(v), ref(v)), v


def test_temme_table_is_the_one_scipy_compiles():
    # the table's documented source: 625 consecutive doubles in scipy's
    # compiled special functions, starting -1/3, 1/12
    ours = [v for row in _chi2._D for v in row]
    assert len(_chi2._D) == 25 and len(ours) == 625
    blob = struct.pack("<625d", *ours)
    for lib in Path(sc.__file__).parent.glob("_ufuncs.*"):
        data = lib.read_bytes()
        if struct.pack("<2d", -1 / 3, 1 / 12) in data:
            assert blob in data
            return
    pytest.skip("no compiled scipy table found")
