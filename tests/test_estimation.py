"""Adjustment estimators, the paradox detector, and their failure modes."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalkit import (
    DiscreteDataset,
    EmptySelection,
    EmptyStratum,
    PositivityViolation,
    SchemaMismatch,
    UnknownState,
    backdoor_adjust,
    backdoor_adjust_ratio,
    compute_ace,
    detect_simpson_reversal,
    empirical_conditional,
)
from causalkit import fixtures as fx

KIDNEY_A_ADJUSTED = (81 / 87) * (357 / 700) + (192 / 263) * (343 / 700)
KIDNEY_B_ADJUSTED = (234 / 270) * (357 / 700) + (55 / 80) * (343 / 700)


def dataset_from_counts(counts, columns):
    rows = []
    for combo, c in counts.items():
        rows.extend([combo] * c)
    return DiscreteDataset(columns, rows)


# -- empirical conditionals -----------------------------------------------------


def test_empirical_conditional_kidney_cells():
    ds = fx.kidney_dataset()
    small_a = empirical_conditional(
        ds, "recovery", {"treatment": "A", "severity": "small"}
    )
    assert small_a["1"] == pytest.approx(81 / 87, abs=1e-15)
    large_b = empirical_conditional(
        ds, "recovery", {"treatment": "B", "severity": "large"}
    )
    assert large_b["1"] == pytest.approx(55 / 80, abs=1e-15)
    assert sum(small_a.values()) == pytest.approx(1.0)


def test_empirical_conditional_aggregates():
    ds = fx.kidney_dataset()
    assert empirical_conditional(ds, "recovery", {"treatment": "A"})[
        "1"
    ] == pytest.approx(273 / 350, abs=1e-15)
    assert empirical_conditional(ds, "recovery", {"treatment": "B"})[
        "1"
    ] == pytest.approx(289 / 350, abs=1e-15)


def test_empirical_conditional_errors():
    ds = fx.kidney_dataset()
    with pytest.raises(UnknownState):
        empirical_conditional(ds, "recovery", {"treatment": "C"})
    tiny = DiscreteDataset(
        ["x", "y"], [("0", "0")], states={"x": ("0", "1"), "y": ("0", "1")}
    )
    with pytest.raises(EmptyStratum):
        empirical_conditional(tiny, "y", {"x": "1"})


# -- backdoor adjustment -----------------------------------------------------------


def test_kidney_adjusted_recovery_exact():
    ds = fx.kidney_dataset()
    a = backdoor_adjust(ds, "treatment", "A", "recovery", "1", ["severity"])
    b = backdoor_adjust(ds, "treatment", "B", "recovery", "1", ["severity"])
    assert a == pytest.approx(KIDNEY_A_ADJUSTED, abs=1e-15)
    assert b == pytest.approx(KIDNEY_B_ADJUSTED, abs=1e-15)
    # the adjusted comparison favors A even though the aggregate favors B
    assert a > b


def test_ratio_route_matches_on_kidney():
    ds = fx.kidney_dataset()
    for arm in ("A", "B"):
        direct = backdoor_adjust(ds, "treatment", arm, "recovery", "1", ["severity"])
        ratio = backdoor_adjust_ratio(
            ds, "treatment", arm, "recovery", "1", ["severity"]
        )
        assert abs(direct - ratio) <= 1e-9


def test_empty_adjustment_set_reduces_to_conditional():
    ds = fx.kidney_dataset()
    got = backdoor_adjust(ds, "treatment", "B", "recovery", "1", [])
    assert got == pytest.approx(289 / 350, abs=1e-15)
    assert backdoor_adjust_ratio(
        ds, "treatment", "B", "recovery", "1", []
    ) == pytest.approx(289 / 350, abs=1e-15)


def test_adjustment_with_two_stratifiers():
    rng = np.random.default_rng(5)
    n = 4000
    z1 = rng.integers(0, 2, n)
    z2 = rng.integers(0, 3, n)
    x = (rng.random(n) < 0.3 + 0.4 * (z1 == 1)).astype(int)
    y = (rng.random(n) < 0.2 + 0.2 * x + 0.1 * (z2 == 2)).astype(int)
    ds = DiscreteDataset(
        ["x", "y", "z1", "z2"],
        list(zip(*(map(str, c) for c in (x, y, z1, z2)))),
    )
    direct = backdoor_adjust(ds, "x", "1", "y", "1", ["z1", "z2"])
    ratio = backdoor_adjust_ratio(ds, "x", "1", "y", "1", ["z1", "z2"])
    assert abs(direct - ratio) <= 1e-9
    # hand-computed from the same counts
    strata = {}
    for xv, yv, z1v, z2v in ds.rows:
        strata.setdefault((z1v, z2v), []).append((xv, yv))
    expected = 0.0
    for zv, rows in strata.items():
        arm = [yv for xv, yv in rows if xv == "1"]
        expected += (
            sum(1 for yv in arm if yv == "1") / len(arm)
        ) * (len(rows) / n)
    assert direct == pytest.approx(expected, abs=1e-12)


def test_positivity_violation_names_stratum():
    counts = {
        ("A", "1", "s"): 5,
        ("A", "0", "s"): 5,
        ("B", "1", "s"): 5,
        ("B", "1", "t"): 5,  # stratum t has no A rows
    }
    ds = dataset_from_counts(counts, ["x", "y", "z"])
    with pytest.raises(PositivityViolation) as exc:
        backdoor_adjust(ds, "x", "A", "y", "1", ["z"])
    assert "t" in str(exc.value)
    with pytest.raises(PositivityViolation):
        backdoor_adjust_ratio(ds, "x", "A", "y", "1", ["z"])


def test_laplace_smoothing_hand_computed():
    counts = {("A", "1", "s"): 1, ("A", "0", "s"): 1, ("B", "1", "s"): 1}
    ds = DiscreteDataset(
        ["x", "y", "z"],
        [k for k, c in counts.items() for _ in range(c)],
        states={"x": ("A", "B"), "y": ("0", "1"), "z": ("s", "t")},
    )
    got = backdoor_adjust(ds, "x", "A", "y", "1", ["z"], laplace=True)
    # stratum s: (1+1)/(2+2) * (3+1)/(3+2); stratum t: (0+1)/(0+2) * (0+1)/(3+2)
    expected = 0.5 * 0.8 + 0.5 * 0.2
    assert got == pytest.approx(expected, abs=1e-15)


def test_laplace_tolerates_missing_arm():
    counts = {("A", "1", "s"): 3, ("B", "1", "t"): 2, ("B", "0", "t"): 1}
    ds = dataset_from_counts(counts, ["x", "y", "z"])
    # strict route refuses (no A rows in stratum t), smoothed one answers
    with pytest.raises(PositivityViolation):
        backdoor_adjust(ds, "x", "A", "y", "1", ["z"])
    got = backdoor_adjust(ds, "x", "A", "y", "1", ["z"], laplace=True)
    assert 0.0 < got < 1.0


def test_adjustment_input_validation():
    ds = fx.kidney_dataset()
    with pytest.raises(UnknownState):
        backdoor_adjust(ds, "treatment", "C", "recovery", "1", ["severity"])
    with pytest.raises(UnknownState):
        backdoor_adjust(ds, "treatment", "A", "recovery", "2", ["severity"])
    with pytest.raises(SchemaMismatch):
        backdoor_adjust(ds, "dose", "A", "recovery", "1", [])
    empty = DiscreteDataset(
        ["x", "y"], [("0", None)], states={"x": ("0",), "y": ("0", "1")}
    )
    with pytest.raises(EmptySelection):
        backdoor_adjust(empty, "x", "0", "y", "1", [])


# x, y, z: columns in roles an adjustment cannot give them
OVERLAPPING_ROLES = [
    ("treatment", "recovery", ["recovery"]),
    ("treatment", "recovery", ["treatment"]),
    ("treatment", "recovery", ["severity", "treatment"]),
    ("recovery", "recovery", []),
    ("treatment", "treatment", ["severity"]),
]


@pytest.mark.parametrize("x, y, z", OVERLAPPING_ROLES)
@pytest.mark.parametrize("laplace", [False, True])
def test_backdoor_adjust_refuses_overlapping_roles(x, y, z, laplace):
    ds = fx.kidney_dataset()
    with pytest.raises(SchemaMismatch, match="same column|conditioning columns"):
        backdoor_adjust(ds, x, ds.column_states(x)[0], y, "1", z, laplace=laplace)


@pytest.mark.parametrize("x, y, z", OVERLAPPING_ROLES)
def test_backdoor_adjust_ratio_refuses_overlapping_roles(x, y, z):
    ds = fx.kidney_dataset()
    with pytest.raises(SchemaMismatch, match="same column|conditioning columns"):
        backdoor_adjust_ratio(ds, x, ds.column_states(x)[0], y, "1", z)


@pytest.mark.parametrize("x, y, z", OVERLAPPING_ROLES)
def test_compute_ace_refuses_overlapping_roles(x, y, z):
    ds = fx.kidney_dataset()
    treat, control = ds.column_states(x)[:2]
    with pytest.raises(SchemaMismatch, match="same column|conditioning columns"):
        compute_ace(ds, x, treat, control, y, "1", z)


@pytest.mark.parametrize("x, y, z", OVERLAPPING_ROLES)
def test_simpson_refuses_overlapping_roles(x, y, z):
    ds = fx.kidney_dataset()
    with pytest.raises(SchemaMismatch, match="same column|conditioning columns"):
        detect_simpson_reversal(ds, x, y, "1", z)


@given(
    st.lists(
        st.integers(min_value=1, max_value=30),
        min_size=12,
        max_size=12,
    )
)
def test_route_identity_on_positive_tables(cells):
    """With every (x,y,z) cell populated, the conditional-times-marginal and
    joint-ratio routes agree to 1e-9."""
    space = list(
        itertools.product(("A", "B"), ("0", "1"), ("u", "v", "w"))
    )
    counts = dict(zip(space, cells))
    ds = dataset_from_counts(counts, ["x", "y", "z"])
    direct = backdoor_adjust(ds, "x", "A", "y", "1", ["z"])
    ratio = backdoor_adjust_ratio(ds, "x", "A", "y", "1", ["z"])
    assert abs(direct - ratio) <= 1e-9
    assert 0.0 <= direct <= 1.0


# -- average causal effect ---------------------------------------------------------


def test_ace_on_kidney():
    ds = fx.kidney_dataset()
    ace = compute_ace(ds, "treatment", "A", "B", "recovery", "1", ["severity"])
    assert ace == pytest.approx(
        KIDNEY_A_ADJUSTED - KIDNEY_B_ADJUSTED, abs=1e-15
    )
    assert ace > 0


def test_ace_antisymmetry():
    ds = fx.kidney_dataset()
    ab = compute_ace(ds, "treatment", "A", "B", "recovery", "1", ["severity"])
    ba = compute_ace(ds, "treatment", "B", "A", "recovery", "1", ["severity"])
    assert ab == pytest.approx(-ba, abs=1e-15)
    assert compute_ace(
        ds, "treatment", "A", "A", "recovery", "1", ["severity"]
    ) == 0.0


# -- paradox detection ----------------------------------------------------------------


def test_kidney_reversal_report():
    report = detect_simpson_reversal(
        fx.kidney_dataset(), "treatment", "recovery", "1", ["severity"]
    )
    assert report.reversal and not report.mixed
    assert report.arms == ("A", "B")
    assert report.strata == ("severity",)
    assert report.aggregate_rates["A"] == pytest.approx(0.78, abs=1e-15)
    assert report.aggregate_rates["B"] == pytest.approx(289 / 350, abs=1e-15)
    assert report.aggregate_sign == -1
    assert set(report.stratum_signs) == {("large",), ("small",)}
    assert all(s == 1 for s in report.stratum_signs.values())
    assert report.stratum_rates[("small",)]["A"] == pytest.approx(81 / 87)
    assert report.stratum_rates[("large",)]["B"] == pytest.approx(55 / 80)


def test_no_reversal_when_stratified_and_aggregate_agree():
    counts = {
        ("A", "1", "s"): 8, ("A", "0", "s"): 2,
        ("B", "1", "s"): 5, ("B", "0", "s"): 5,
        ("A", "1", "t"): 7, ("A", "0", "t"): 3,
        ("B", "1", "t"): 4, ("B", "0", "t"): 6,
    }
    ds = dataset_from_counts(counts, ["x", "y", "z"])
    report = detect_simpson_reversal(ds, "x", "y", "1", ["z"])
    assert not report.reversal and not report.mixed
    assert report.aggregate_sign == 1


def test_mixed_strata_block_reversal_claim():
    counts = {
        ("A", "1", "s"): 8, ("A", "0", "s"): 2,
        ("B", "1", "s"): 5, ("B", "0", "s"): 5,
        ("A", "1", "t"): 2, ("A", "0", "t"): 8,
        ("B", "1", "t"): 5, ("B", "0", "t"): 5,
    }
    ds = dataset_from_counts(counts, ["x", "y", "z"])
    report = detect_simpson_reversal(ds, "x", "y", "1", ["z"])
    assert report.mixed and not report.reversal
    assert sorted(report.stratum_signs.values()) == [-1, 1]


def test_tied_rates_are_reported_mixed_not_reversed():
    counts = {
        ("A", "1", "s"): 5, ("A", "0", "s"): 5,
        ("B", "1", "s"): 5, ("B", "0", "s"): 5,
    }
    ds = dataset_from_counts(counts, ["x", "y", "z"])
    report = detect_simpson_reversal(ds, "x", "y", "1", ["z"])
    assert not report.reversal
    assert report.stratum_signs[("s",)] == 0


def test_reversal_input_validation():
    three_arm = dataset_from_counts(
        {("A", "1", "s"): 2, ("B", "1", "s"): 2, ("C", "0", "s"): 2},
        ["x", "y", "z"],
    )
    with pytest.raises(SchemaMismatch):
        detect_simpson_reversal(three_arm, "x", "y", "1", ["z"])
    counts = {
        ("A", "1", "s"): 5, ("B", "1", "s"): 5,
        ("A", "1", "t"): 5,  # no B arm in stratum t
    }
    lopsided = dataset_from_counts(counts, ["x", "y", "z"])
    with pytest.raises(EmptyStratum):
        detect_simpson_reversal(lopsided, "x", "y", "1", ["z"])
