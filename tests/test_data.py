"""Dataset container, CSV interchange, and probability tables."""

import argparse
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from causalkit import cli
from causalkit import fixtures as fx
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
    # named as such, before any cell is checked against the other column
    with pytest.raises(SchemaMismatch, match="^duplicate column names$"):
        DiscreteDataset.from_csv("X,X\n1,2\n")


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
    # a blank first line is no header, not a 0-column one
    for text in ("", "\n", "\n1,2\n", "\r\n"):
        with pytest.raises(SchemaMismatch, match="^empty CSV: no header row$"):
            DiscreteDataset.from_csv(text)
    with pytest.raises(SchemaMismatch):
        DiscreteDataset.from_csv("x,y\n1\n")


NAMES = ["X", "Y", "Z", "NA"]
LABELS = ["0", "1", "a", "b", "X", "NA"]
PLAIN_CELLS = ["0", "1", "a", "X", "NA", ""]
QUOTED_CELLS = ['"x,y"', '"p\nq"', '"1"', '""', '"NA"']


def _mostly(yes, no):
    """A value from `yes` nine times in ten, else one from `no`."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: yes if ok else no)


@st.composite
def csv_cases(draw):
    """(text, states) for `from_csv`. The text is a header, then rows mostly
    as wide as it, with blank lines and copies of the header line among
    them, and a final line end or none. Half of the texts hold no quote and
    no carriage return; the other half have quoted cells, some holding a
    comma or a newline, and CRLF or, rarely, lone CR line ends. The states
    are inferred, or declared for most columns, with unseen labels, labels
    a cell falls outside of, and now and then a label listed twice."""
    plain = draw(st.booleans())
    cell = st.sampled_from(PLAIN_CELLS + ([] if plain else QUOTED_CELLS))
    names = draw(
        _mostly(
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
        )
    )
    header = ",".join(n if plain or draw(st.booleans()) else f'"{n}"' for n in names)
    width = len(names)
    row = _mostly(
        st.lists(cell, min_size=width, max_size=width),
        st.lists(cell, max_size=width + 1),
    ).map(",".join)
    body = draw(st.lists(_mostly(row, st.sampled_from([header, ""])), max_size=8))
    end = st.just("\n")
    if not plain:
        end = _mostly(st.sampled_from(["\n", "\r\n"]), st.just("\r"))
    text = header + "".join(draw(end) + line for line in body)
    text += draw(st.sampled_from(["", draw(end)]))
    labels = _mostly(
        st.lists(st.sampled_from(LABELS), max_size=4, unique=True),
        st.lists(st.sampled_from(LABELS), max_size=4),
    )
    keep = _mostly(st.just(True), st.just(False))
    declared = {n: draw(labels) for n in names + ["W"] if draw(keep)}
    return text, draw(st.sampled_from([None, declared]))


def _outcome(read, text, states):
    """The dataset `read` builds, as comparable values, or its error."""
    try:
        ds = read(text, states)
    except Exception as exc:
        return type(exc), str(exc)
    codes = {c: (ds.codes[c].dtype, ds.codes[c].tolist()) for c in ds.columns}
    return ds.columns, ds.states, len(ds), codes


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        csv_cases(),
        st.tuples(st.text(alphabet='01aNAXY,"\r\n ', max_size=30), st.none()),
    )
)
def test_from_csv_matches_the_whole_text_oracle(case):
    text, states = case
    assert _outcome(DiscreteDataset.from_csv, text, states) == _outcome(
        csv_oracle.from_csv, text, states
    )


def test_csv_file_roundtrip(tmp_path):
    path = tmp_path / "ds.csv"
    ds = small_ds()
    ds.save_csv(path)
    assert DiscreteDataset.load_csv(path) == ds


def test_line_ends_read_alike_in_load_csv_and_the_cli(tmp_path):
    """The covid table with "\n", "\r\n" and lone "\r" line ends loads to
    one dataset through load_csv and through the CLI's file loader."""
    text = fx.covid_study_dataset(fx.STUDY_SAMPLE_SIZE, fx.STUDY_SEED).to_csv()
    want = DiscreteDataset.from_csv(text)
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.replace("\n", end).encode())
        assert DiscreteDataset.load_csv(path) == want, name
        assert cli._load(argparse.Namespace(data=str(path)), cli._DATA) == want, name


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


def test_marginal_on_an_unknown_variable_names_it():
    table = ProbTable(("x", "y"), {("0", "0"): 0.5, ("1", "1"): 0.5})
    with pytest.raises(SchemaMismatch, match="no variable named 'C'"):
        table.marginal(["x", "C"])


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
    back = ProbTable.from_dict(json.loads(json.dumps(table.to_dict())))
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
