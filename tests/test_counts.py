"""The count kernel against the retained row-by-row Counter route.

`tests/count_oracle.py` keeps the pre-kernel way of counting: walk the label
rows, count with a Counter. Every count-derived result here must equal the
oracle's bit for bit: joint counts on random tables (missing cells, unsorted
declared states, declared-but-unseen states, all-missing columns, no complete
rows), with and without a `where` row filter, chi-square tests, BIC count
sums, whole greedy traces, and every adjustment estimator's value or error.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import count_oracle as oracle
import causalkit
from causalkit import (
    CausalKitError,
    DiscreteDataset,
    EmptySelection,
    InsufficientData,
    ci_test,
    discovery,
    greedy_score_search,
)
from causalkit import fixtures as fx

LABELS = ["b", "a", "10", "9", "c"]


@st.composite
def tables(draw):
    columns = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    states, cells = {}, []
    for c in columns:
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
        seen = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        states[c] = labels
        cells.append(st.sampled_from(seen + [None]))
    if draw(st.booleans()):
        columns.append("gone")  # no observed cell
        states["gone"] = draw(st.lists(st.sampled_from(LABELS), max_size=2, unique=True))
        cells.append(st.none())
    rows = draw(st.lists(st.tuples(*cells), max_size=40))
    return DiscreteDataset(columns, rows, states if draw(st.booleans()) else None)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EmptySelection, InsufficientData) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_equals_counter_route_on_random_tables(data):
    ds = data.draw(tables())
    names = data.draw(st.lists(st.sampled_from(ds.columns), max_size=4))
    got = ds.counts(names)
    assert got == oracle.counts(ds, names)
    assert 0 not in got.values()
    assert ds.project(names) == oracle.project(ds, names)

    # "zz" is no column's state, and LABELS holds states of other columns
    where = data.draw(
        st.dictionaries(st.sampled_from(ds.columns), st.sampled_from(LABELS + ["zz"]))
    )
    assert ds.counts(names, where=where) == oracle.counts(ds, names, where)

    distinct = list(dict.fromkeys(names))
    if len(distinct) >= 2:
        x, y, *z = distinct
        min_expected = data.draw(st.sampled_from([0.0, 1.0, 5.0]))
        assert outcome(ci_test, ds, x, y, z, min_expected=min_expected) == outcome(
            oracle.ci_test, ds, x, y, z, min_expected=min_expected
        )


def test_no_complete_rows_is_an_empty_selection():
    ds = DiscreteDataset(
        ["x", "y"], [("1", None), (None, "0")], {"x": ("1", "0"), "y": ("0",)}
    )
    assert ds.counts(["x", "y"]) == oracle.counts(ds, ["x", "y"]) == {}
    assert outcome(ci_test, ds, "x", "y") == outcome(oracle.ci_test, ds, "x", "y")
    assert outcome(ci_test, ds, "x", "y")[0] is EmptySelection


def test_where_keeps_rows_in_the_given_states():
    ds = DiscreteDataset(
        ["x", "y", "r", "gone"],
        [("1", "0", "0", None), ("1", None, "0", None), ("0", "1", "1", None),
         ("1", "1", "0", None), (None, "0", "0", None)],
        {"x": ("1", "0"), "y": ("0", "1"), "r": ("0", "1"), "gone": ("a",)},
    )
    assert ds.counts(["y"], where={"x": "1"}) == {("0",): 1, ("1",): 1}
    assert ds.counts(["x", "y"], where={"r": "0", "y": "0"}) == {("1", "0"): 1}
    assert ds.counts([], where={"x": "1"}) == {(): 3}
    # a state outside the column, and a column with no observed cell
    assert ds.counts(["y"], where={"x": "2"}) == {}
    assert ds.counts(["y"], where={"gone": "a"}) == {}
    for where in ({"x": "1"}, {"x": "2"}, {"gone": "a"}, {"r": "0", "x": "0"}):
        assert ds.counts(["y"], where=where) == oracle.counts(ds, ["y"], where)


@pytest.mark.parametrize("seed", range(6))
def test_ci_tests_match_oracle_bitwise_on_collider_chain(seed):
    ds = fx.collider_chain_scm().sample(10_000, seed)
    for x, y in combinations(ds.columns, 2):
        rest = [v for v in ds.columns if v not in (x, y)]
        for size in range(3):
            for z in combinations(rest, size):
                got = outcome(ci_test, ds, x, y, z)
                want = outcome(oracle.ci_test, ds, x, y, z)
                assert got == want
                if not isinstance(got, tuple):
                    assert repr(got.statistic) == repr(want.statistic)
                    assert repr(got.p_value) == repr(want.p_value)


@pytest.mark.parametrize("seed", range(5))
def test_bic_counts_and_greedy_trace_match_oracle_bitwise(seed, monkeypatch):
    ds = fx.collider_chain_scm().sample(10_000, seed)
    cache, slow = discovery._BicCache(ds), oracle.BicCache(ds)
    for size in range(1, len(ds.columns) + 1):
        for subset in map(frozenset, combinations(ds.columns, size)):
            assert repr(cache.log_count_sum(subset)) == repr(slow.log_count_sum(subset))

    graph, trace = greedy_score_search(ds)
    monkeypatch.setattr(discovery, "_BicCache", oracle.BicCache)
    slow_graph, slow_trace = greedy_score_search(ds)
    assert graph == slow_graph
    assert repr(trace) == repr(slow_trace)


def test_counts_over_a_wide_table_allocate_no_dense_table():
    rng = np.random.default_rng(7)
    columns = [f"v{i:02d}" for i in range(70)]
    rows = [
        tuple(None if rng.random() < 0.002 else str(b) for b in bits)
        for bits in rng.integers(0, 2, size=(400, 70))
    ]
    ds = DiscreteDataset(columns, rows, {c: ("0", "1") for c in columns})

    tracemalloc.start()
    try:
        got = ds.counts(columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == oracle.counts(ds, columns)
    # the joint space has 2**70 cells; the counting stays within the data's size
    assert peak < 4 * 2**20

    every = frozenset(columns)
    assert discovery._BicCache(ds).log_count_sum(every) == oracle.BicCache(
        ds
    ).log_count_sum(every)


ROUTES = [
    "backdoor_adjust",
    "laplace",
    "backdoor_adjust_ratio",
    "stratified_debias",
    "empirical_conditional",
    "detect_simpson_reversal",
]


def estimate(m, route, ds, x, xv, y, yv, z, zv):
    """One estimator call through module m, the library or the oracle."""
    if route == "laplace":
        return m.backdoor_adjust(ds, x, xv, y, yv, z, laplace=True)
    if route == "empirical_conditional":
        return m.empirical_conditional(ds, y, dict(zip([x, *z], [xv, *zv])))
    if route == "detect_simpson_reversal":
        return m.detect_simpson_reversal(ds, x, y, yv, z)
    return getattr(m, route)(ds, x, xv, y, yv, z)


@st.composite
def estimator_tables(draw):
    """Four columns of 1-3 states, many missing cells, and declared states
    that the rows may leave unseen, so strata go empty or one-armed."""
    columns = ["x", "y", "z", "w"]
    states, cells = {}, []
    for c in columns:
        size = draw(st.sampled_from([2, 3, 1]))
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=size, max_size=size, unique=True))
        seen = draw(st.sampled_from([labels, labels, labels[:1], labels[1:] or labels]))
        states[c] = labels
        cells.append(st.sampled_from(seen * 3 + [None]))
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=40))
    declared = draw(st.sampled_from([True, True, False]))
    return DiscreteDataset(columns, rows, states if declared else None)


def settled(fn, *args):
    """The repr of fn's result, exact to the last bit of every float, or the
    type and message of the library error it raised."""
    try:
        return repr(fn(*args))
    except CausalKitError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_estimators_equal_row_walking_routes_bit_for_bit(data):
    ds = data.draw(estimator_tables())
    x, y = data.draw(st.permutations(ds.columns))[:2]
    rest = [c for c in ds.columns if c not in (x, y)]
    z = data.draw(st.sampled_from([[], rest[:1], rest]))

    def value(col):
        # now and then a state the column lacks
        return data.draw(st.sampled_from([*ds.column_states(col)] * 9 + ["zz"]))

    args = (ds, x, value(x), y, value(y), z, [value(c) for c in z])
    for route in ROUTES:
        assert settled(estimate, causalkit, route, *args) == settled(
            estimate, oracle, route, *args
        ), route


@pytest.mark.parametrize("seed", range(4))
def test_estimators_equal_row_walking_routes_on_seeded_tables(seed):
    # fuller tables than the hypothesis test tends to draw: many strata are
    # nonempty at once, so a sum taken in another order shows in the last bit
    rng = np.random.default_rng(seed)
    states = {"x": ("0", "1"), "y": ("0", "1"), "z": ("0", "1", "2"), "w": ("0", "1")}
    for _ in range(50):
        rows = [
            tuple(None if rng.random() < 0.1 else str(rng.choice(s)) for s in states.values())
            for _ in range(rng.integers(5, 40))
        ]
        ds = DiscreteDataset(list(states), rows, states)
        for z in ([], ["z"], ["z", "w"]):
            args = (ds, "x", "0", "y", "1", z, ["0"] * len(z))
            for route in ROUTES:
                assert settled(estimate, causalkit, route, *args) == settled(
                    estimate, oracle, route, *args
                ), route
