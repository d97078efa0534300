"""The count kernel against the retained row-by-row Counter route.

`tests/count_oracle.py` keeps the pre-kernel way of counting: walk the label
rows, count with a Counter. Every count-derived result here must equal the
oracle's bit for bit: joint counts on random tables (missing cells, unsorted
declared states, declared-but-unseen states, no complete rows), chi-square
tests, BIC count sums and whole greedy traces.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import count_oracle as oracle
from causalkit import (
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
