"""The count kernel against the retained row-by-row Counter route.

`tests/count_oracle.py` keeps the pre-kernel way of counting: walk the label
rows, count with a Counter. Every count-derived result here must equal the
oracle's bit for bit: joint counts on random tables (missing cells, unsorted
declared states, declared-but-unseen states, all-missing columns, no complete
rows), with and without a `where` row filter, chi-square statistics, BIC
count sums, whole greedy traces, and every adjustment estimator's value or
error; chi-square p-values, from another tail routine, to a relative 1e-13.
The counts' keys must also come in raveled-code order, on which the
estimators' float sums depend, on edge-case, derived, nearly-all-distinct
and very wide tables as well.
"""

import math
import tracemalloc
from dataclasses import replace
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
    SchemaMismatch,
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


def code_order(ds, names, counts):
    """The keys of `counts` in raveled-code order over `names`: by the first
    name's state index, then the second's, and so on."""
    states = [ds.column_states(n) for n in names]
    return sorted(counts, key=lambda key: [s.index(v) for s, v in zip(states, key)])


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EmptySelection, InsufficientData) as exc:
        return type(exc), str(exc)


def assert_same_ci(got, want) -> None:
    """A CI test's outcome against the oracle's: the same error, or the same
    result. The statistic is summed in the oracle's order, so it is the same
    double; the tail comes from another route (scipy's Cephes against the
    finite series), which may differ in the last bits but not in the
    decision. Cephes flushes tails below e^-709.78 to 0.0, where the series
    keeps the subnormal: no relative error is defined there."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    assert replace(got, p_value=want.p_value) == want
    assert repr(got.statistic) == repr(want.statistic)
    assert got.independent == want.independent
    assert math.isclose(got.p_value, want.p_value, rel_tol=1e-13, abs_tol=1e-300)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_equals_counter_route_on_random_tables(data):
    ds = data.draw(tables())
    names = data.draw(st.lists(st.sampled_from(ds.columns), max_size=4))
    got = ds.counts(names)
    assert got == oracle.counts(ds, names)
    assert list(got) == code_order(ds, names, oracle.counts(ds, names))
    assert 0 not in got.values()
    assert ds.project(names) == oracle.project(ds, names)

    # "zz" is no column's state, and LABELS holds states of other columns
    where = data.draw(
        st.dictionaries(st.sampled_from(ds.columns), st.sampled_from(LABELS + ["zz"]))
    )
    got = ds.counts(names, where=where)
    want = oracle.counts(ds, names, where)
    assert got == want
    assert list(got) == code_order(ds, names, want)

    distinct = list(dict.fromkeys(names))
    if len(distinct) >= 2:
        x, y, *z = distinct
        min_expected = data.draw(st.sampled_from([0.0, 1.0, 5.0]))
        assert_same_ci(
            outcome(ci_test, ds, x, y, z, min_expected=min_expected),
            outcome(oracle.ci_test, ds, x, y, z, min_expected=min_expected),
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


def probe():
    return DiscreteDataset(
        ["A", "B"],
        [("1", "y"), ("0", "x"), ("0", None)],
        {"A": ("0", "1"), "B": ("y", "x", "w")},
    )


def test_edge_cases_keep_their_counts():
    ds = probe()
    twice = ds.counts(["A", "A"])
    assert list(twice.items()) == [(("0", "0"), 2), (("1", "1"), 1)]
    # keys follow the declared state order, not the label order
    assert list(ds.counts(["B", "A"]).items()) == [(("y", "1"), 1), (("x", "0"), 1)]
    assert ds.counts([]) == {(): 3}
    assert ds.counts([], where={"B": "x"}) == {(): 1}
    assert ds.counts([], where={"B": "w"}) == {}
    # where on a column that is also counted
    assert ds.counts(["A", "B"], where={"A": "0"}) == {("0", "x"): 1}
    assert ds.counts(["A"], where={"A": "1", "B": "y"}) == {("1",): 1}
    # a state B does not declare, another column's or no column's, selects no row
    assert ds.counts(["A"], where={"B": "1"}) == {}
    assert ds.counts(["A"], where={"B": "zz"}) == {}
    for names, where in [
        (["A", "A"], None), ([], None), ([], {"B": "x"}), (["A", "B"], {"A": "0"}),
        (["A"], {"B": "1"}),
    ]:
        assert ds.counts(names, where) == oracle.counts(ds, names, where)


def test_empty_tables_count_alike():
    no_rows = DiscreteDataset(["A", "B"], [], {"A": ("0", "1"), "B": ("x",)})
    assert no_rows.counts(["A", "B"]) == {}
    assert no_rows.counts([]) == {}
    assert no_rows.counts(["A"], where={"B": "x"}) == {}
    no_columns = DiscreteDataset([], [(), (), ()])
    assert no_columns.counts([]) == {(): 3}
    assert DiscreteDataset([], []).counts([]) == {}
    for ds in (no_rows, no_columns):
        assert ds.counts([]) == oracle.counts(ds, [])


def test_unknown_columns_are_schema_errors():
    ds = probe()
    ds.counts(["A"])
    with pytest.raises(SchemaMismatch, match="no column named 'C'"):
        ds.counts(["A", "C"])
    with pytest.raises(SchemaMismatch, match="no column named 'C'"):
        ds.counts(["A"], where={"C": "0"})
    with pytest.raises(SchemaMismatch, match=r"no column named \['A'\]"):
        ds.counts([["A"]])
    # a bare string is not a list of names: "AB" would count A and B
    with pytest.raises(SchemaMismatch, match="not the string 'AB'"):
        ds.counts("AB")
    with pytest.raises(SchemaMismatch, match="not the string 'AB'"):
        causalkit.empirical_joint(ds, "AB")
    with pytest.raises(SchemaMismatch, match="not the string 'A'"):
        ds._ranked("A")


def test_a_derived_dataset_counts_its_own_rows():
    parent = probe()
    assert parent.counts(["A", "B"]) == {("0", "x"): 1, ("1", "y"): 1}
    child = parent.with_columns({"C": ["a", None, "b"]}, {"C": ("b", "a")})
    for names in (["C"], ["A", "C"], ["C", "B"], ["A", "B", "C"]):
        assert child.counts(names) == oracle.counts(child, names)
        assert list(child.counts(names)) == code_order(
            child, names, oracle.counts(child, names)
        )
    assert child.counts(["A"], where={"C": "a"}) == {("1",): 1}
    # the parent's grouping is its own, before and after the child's
    assert parent.counts(["A", "B"]) == oracle.counts(parent, ["A", "B"])
    with pytest.raises(SchemaMismatch):
        parent.counts(["C"])


def test_nearly_all_distinct_records_count_as_the_oracle_does():
    rng = np.random.default_rng(11)
    columns = [f"v{i}" for i in range(6)]
    labels = tuple(str(s) for s in range(10))
    codes = rng.integers(-1, 10, size=(100_000, 6))
    rows = [tuple(labels[c] if c >= 0 else None for c in r) for r in codes.tolist()]
    ds = DiscreteDataset(columns, rows, {c: labels for c in columns})
    assert len(set(rows)) > 90_000
    for names, where in [
        (columns, None),
        (columns[::-1], None),
        (["v2", "v0"], None),
        (columns[:4], {"v5": "3"}),
        ([], {"v1": "0", "v2": "9"}),
    ]:
        got, want = ds.counts(names, where), oracle.counts(ds, names, where)
        assert got == want
        assert list(got) == code_order(ds, names, want)
    # the cached records keep each column's code dtype, not the id's
    records, _ = ds._records()
    assert all(records[c].dtype == ds.codes[c].dtype for c in columns)


def test_repeated_records_keep_their_counts_past_an_int64_overflow():
    # four ids per three-state column (missing is one), so the running id
    # space passes 2**63 at the 32nd column and is relabelled, twice over 80
    rng = np.random.default_rng(5)
    columns = [f"v{i:02d}" for i in range(80)]
    labels = ("a", "b", "c")
    distinct = [
        tuple(None if c < 0 else labels[c] for c in row)
        for row in rng.integers(-1, 3, size=(60, 80)).tolist()
    ]
    rows = [r for r in distinct for _ in range(rng.integers(1, 6))]
    rng.shuffle(rows)
    ds = DiscreteDataset(columns, rows, {c: labels for c in columns})
    for names, where in [
        (columns, None),
        (["v79"], None),
        (["v31", "v32", "v00"], None),
        (["v70", "v05"], {"v40": "b"}),
        ([], {"v33": "c"}),
    ]:
        got, want = ds.counts(names, where), oracle.counts(ds, names, where)
        assert got == want
        assert list(got) == code_order(ds, names, want)
    # the cached records keep each column's code dtype, not the id's
    records, _ = ds._records()
    assert all(records[c].dtype == ds.codes[c].dtype for c in columns)


@pytest.mark.parametrize("seed", range(6))
def test_ci_tests_match_oracle_bitwise_on_collider_chain(seed):
    ds = fx.collider_chain_scm().sample(10_000, seed)
    for x, y in combinations(ds.columns, 2):
        rest = [v for v in ds.columns if v not in (x, y)]
        for size in range(3):
            for z in combinations(rest, size):
                assert_same_ci(
                    outcome(ci_test, ds, x, y, z), outcome(oracle.ci_test, ds, x, y, z)
                )


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


@settings(max_examples=300, deadline=None)
@given(tables())
def test_bic_counts_and_greedy_trace_match_oracle_on_random_tables(ds):
    cache, slow = outcome(discovery._BicCache, ds), outcome(oracle.BicCache, ds)
    if isinstance(slow, tuple):
        assert cache == slow
    else:
        for size in range(len(ds.columns) + 1):
            for subset in map(frozenset, combinations(ds.columns, size)):
                assert repr(cache.log_count_sum(subset)) == repr(
                    slow.log_count_sum(subset)
                )

    got = outcome(greedy_score_search, ds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discovery, "_BicCache", oracle.BicCache)
        want = outcome(greedy_score_search, ds)
    # a graph and its trace, or an error's type and message
    assert got[0] == want[0]
    assert repr(got[1]) == repr(want[1])


def seeded_tables(seed, count):
    """`count` random tables of up to 400 rows over 2-5 columns, each column
    with up to 4 states declared out of label order (or inferred) and some
    cells missing: enough cells per stratum that a sum taken in another
    order than label order shows in the last bits."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        columns = [f"c{i}" for i in range(rng.integers(2, 6))]
        states = {
            c: tuple(rng.choice(LABELS, size=rng.integers(1, 5), replace=False))
            for c in columns
        }
        weights = {c: rng.dirichlet(np.ones(len(states[c]))) for c in columns}
        missing = rng.choice([0.0, 0.05, 0.3])
        rows = [
            tuple(
                None if rng.random() < missing
                else states[c][rng.choice(len(states[c]), p=weights[c])]
                for c in columns
            )
            for _ in range(rng.integers(0, 400))
        ]
        yield DiscreteDataset(columns, rows, states if rng.random() < 0.5 else None)


@pytest.mark.parametrize("seed", range(3))
def test_ci_tests_and_bic_sums_match_oracle_on_seeded_tables(seed):
    rng = np.random.default_rng(100 + seed)
    for ds in seeded_tables(seed, 60):
        for x, y in combinations(ds.columns, 2):
            rest = [c for c in ds.columns if c not in (x, y)]
            z = list(rng.permutation(rest)[: rng.integers(0, len(rest) + 1)])
            min_expected = rng.choice([0.0, 1.0, 5.0])
            assert_same_ci(
                outcome(ci_test, ds, y, x, z, min_expected=min_expected),
                outcome(oracle.ci_test, ds, y, x, z, min_expected=min_expected),
            )
        cache, slow = outcome(discovery._BicCache, ds), outcome(oracle.BicCache, ds)
        if isinstance(slow, tuple):
            assert cache == slow
            continue
        for size in range(1, len(ds.columns) + 1):
            for subset in map(frozenset, combinations(ds.columns, size)):
                assert repr(cache.log_count_sum(subset)) == repr(
                    slow.log_count_sum(subset)
                )


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
