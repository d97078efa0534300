"""Dataset container, CSV interchange, and probability tables."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalkit import (
    MISSING,
    DiscreteDataset,
    EmptySelection,
    ProbTable,
    SchemaMismatch,
    empirical_joint,
)


def small_ds():
    return DiscreteDataset(
        ["x", "y"],
        [("0", "0"), ("0", "1"), ("1", None), ("1", "1")],
    )


# -- dataset construction ------------------------------------------------------


def test_duplicate_columns_rejected():
    with pytest.raises(SchemaMismatch):
        DiscreteDataset(["x", "x"], [])


def test_ragged_row_rejected():
    with pytest.raises(SchemaMismatch):
        DiscreteDataset(["x", "y"], [("0",)])


def test_states_inferred_from_observed_cells():
    ds = small_ds()
    assert ds.states == {"x": ("0", "1"), "y": ("0", "1")}
    assert ds.column_states("y") == ("0", "1")


def test_declared_states_checked():
    with pytest.raises(SchemaMismatch):
        DiscreteDataset(
            ["x"], [("2",)], states={"x": ("0", "1")}
        )
    # missing cells are exempt from the state check
    ds = DiscreteDataset(["x"], [(None,)], states={"x": ("0", "1")})
    assert ds.rows == [(None,)]


def test_duplicate_declared_states_rejected():
    with pytest.raises(SchemaMismatch):
        DiscreteDataset(["x"], [("0",)], {"x": ("0", "0", "1")})
    with pytest.raises(SchemaMismatch):
        DiscreteDataset.from_csv("x\n0\n", {"x": ("1", "0", "1")})


def test_declared_states_must_cover_all_columns():
    with pytest.raises(SchemaMismatch):
        DiscreteDataset(["x", "y"], [], states={"x": ("0",)})


def test_unknown_column_lookup():
    with pytest.raises(SchemaMismatch):
        small_ds().column_index("z")


def test_project_complete_only_drops_missing():
    ds = small_ds()
    assert ds.project(["x", "y"]) == [("0", "0"), ("0", "1"), ("1", "1")]
    # only the projected columns matter for completeness
    assert ds.project(["x"]) == [("0",), ("0",), ("1",), ("1",)]


def test_counts():
    assert small_ds().counts(["x"]) == {("0",): 2, ("1",): 2}


def test_with_columns_appends():
    ds = small_ds().with_columns(
        {"z": ["a", "a", "b", "b"]}, {"z": ("a", "b")}
    )
    assert ds.columns == ("x", "y", "z")
    assert ds.rows[2] == ("1", None, "b")
    with pytest.raises(SchemaMismatch):
        small_ds().with_columns({"z": ["a"]}, {"z": ("a",)})


# -- CSV interchange -----------------------------------------------------------


def test_csv_roundtrip_with_missing_cells():
    ds = small_ds()
    back = DiscreteDataset.from_csv(ds.to_csv())
    assert back == ds


def test_csv_missing_spellings():
    ds = DiscreteDataset.from_csv("x,y\nNA,1\n,0\n")
    assert ds.rows == [(None, "1"), (None, "0")]


def test_csv_empty_and_ragged_errors():
    with pytest.raises(SchemaMismatch):
        DiscreteDataset.from_csv("")
    with pytest.raises(SchemaMismatch):
        DiscreteDataset.from_csv("x,y\n1\n")


def test_csv_file_roundtrip(tmp_path):
    path = tmp_path / "ds.csv"
    ds = small_ds()
    ds.save_csv(path)
    assert DiscreteDataset.load_csv(path) == ds


def test_missing_constant_is_none():
    assert MISSING is None


# -- probability tables ----------------------------------------------------------


def test_prob_table_validation():
    with pytest.raises(SchemaMismatch):
        ProbTable(("x",), {("0",): 0.5, ("1",): 0.6})
    with pytest.raises(SchemaMismatch):
        ProbTable(("x",), {("0", "1"): 1.0})
    with pytest.raises(SchemaMismatch):
        ProbTable(("x",), {("0",): -0.5, ("1",): 1.5})
    with pytest.raises(SchemaMismatch):
        ProbTable(("x",), {("0",): math.nan})


def test_prob_lookup_defaults_to_zero():
    table = ProbTable(("x",), {("0",): 1.0})
    assert table.prob(("0",)) == 1.0
    assert table.prob(("1",)) == 0.0


def test_marginalization():
    table = ProbTable(
        ("x", "y"),
        {
            ("0", "0"): 0.1,
            ("0", "1"): 0.2,
            ("1", "0"): 0.3,
            ("1", "1"): 0.4,
        },
    )
    mx = table.marginal(["x"])
    assert mx.prob(("0",)) == pytest.approx(0.3)
    assert mx.prob(("1",)) == pytest.approx(0.7)
    # reordering variables is a permutation, not an error
    yx = table.marginal(["y", "x"])
    assert yx.prob(("1", "0")) == pytest.approx(0.2)


def test_l1_distance():
    a = ProbTable(("x",), {("0",): 0.5, ("1",): 0.5})
    b = ProbTable(("x",), {("0",): 0.75, ("1",): 0.25})
    assert a.l1_distance(b) == pytest.approx(0.5)
    assert a.l1_distance(a) == 0.0
    with pytest.raises(SchemaMismatch):
        a.l1_distance(ProbTable(("y",), {("0",): 1.0}))


def test_prob_table_json_roundtrip():
    table = ProbTable(
        ("x", "y"), {("0", "0"): 0.25, ("0", "1"): 0.25, ("1", "1"): 0.5}
    )
    back = ProbTable.from_json(table.to_json())
    assert back.variables == table.variables
    assert back.entries == table.entries


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=6,
    )
)
def test_marginal_of_full_table_preserves_mass(weights):
    total = sum(weights)
    entries = {
        (str(i), "c"): w / total for i, w in enumerate(weights)
    }
    table = ProbTable(("x", "k"), entries)
    marg = table.marginal(["x"])
    assert math.isclose(sum(marg.entries.values()), 1.0, abs_tol=1e-9)
    for i, w in enumerate(weights):
        assert math.isclose(marg.prob((str(i),)), w / total, rel_tol=1e-12)


# -- empirical joints ------------------------------------------------------------


def test_empirical_joint_uniform():
    ds = DiscreteDataset(
        ["x", "y"],
        [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")],
    )
    joint = empirical_joint(ds, ["x", "y"])
    assert all(p == 0.25 for p in joint.entries.values())


def test_empirical_joint_point_mass():
    ds = DiscreteDataset(["x"], [("a",)] * 5)
    assert empirical_joint(ds, ["x"]).prob(("a",)) == 1.0


def test_empirical_joint_skips_incomplete_rows():
    joint = empirical_joint(small_ds(), ["x", "y"])
    assert joint.prob(("1", "1")) == pytest.approx(1 / 3)


def test_empirical_joint_marginal_consistency():
    ds = small_ds()
    direct = empirical_joint(ds, ["x"])
    # x has no missing cells, so marginalizing the x-only selection matches
    assert direct.prob(("0",)) == pytest.approx(0.5)


def test_empirical_joint_empty_selection():
    ds = DiscreteDataset(["x"], [(None,)])
    with pytest.raises(EmptySelection):
        empirical_joint(ds, ["x"])
