"""Structure learning: the CI test, PC search, and greedy BIC hill-climb."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import causalkit
from causalkit import (
    CausalGraph,
    DiscreteDataset,
    EmptySelection,
    InsufficientData,
    Pattern,
    SchemaMismatch,
    ci_test,
    discovery,
    dsep_ci_fn,
    greedy_score_search,
    markov_equivalent,
    orient,
    pattern_of_dag,
    pc,
    pc_skeleton,
    vstructures,
)
from causalkit import fixtures as fx
from test_scm import cpu_bounded


def dataset_from_counts(counts, columns):
    rows = []
    for combo, c in counts.items():
        rows.extend([combo] * c)
    return DiscreteDataset(columns, rows)


DEPENDENT_2X2 = {
    ("0", "0"): 30,
    ("0", "1"): 10,
    ("1", "0"): 10,
    ("1", "1"): 30,
}


# -- conditional-independence test ------------------------------------------------


def test_chi_square_hand_arithmetic():
    ds = dataset_from_counts(DEPENDENT_2X2, ["x", "y"])
    res = ci_test(ds, "x", "y")
    # uniform margins of 40/40 give expected 20 per cell: 4 * (10^2 / 20)
    assert res.statistic == pytest.approx(20.0, abs=1e-12)
    assert res.dof == 1
    assert res.p_value == pytest.approx(float(chi2.sf(20.0, 1)), abs=1e-15)
    assert not res.independent


def test_chi_square_uniform_table_is_independent():
    counts = {k: 20 for k in DEPENDENT_2X2}
    res = ci_test(dataset_from_counts(counts, ["x", "y"]), "x", "y")
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0)
    assert res.independent


def test_chi_square_stratified_sums_over_strata():
    counts = {}
    for zv in ("a", "b"):
        for (xv, yv), c in DEPENDENT_2X2.items():
            counts[(xv, yv, zv)] = c
    res = ci_test(dataset_from_counts(counts, ["x", "y", "z"]), "x", "y", ["z"])
    assert res.statistic == pytest.approx(40.0, abs=1e-12)
    assert res.dof == 2
    assert res.z == ("z",)


def test_chi_square_conditioning_set_is_sorted():
    counts = {
        (xv, yv, "a", "b"): c for (xv, yv), c in DEPENDENT_2X2.items()
    }
    ds = dataset_from_counts(counts, ["x", "y", "u", "v"])
    res = ci_test(ds, "x", "y", ["v", "u"])
    assert res.z == ("u", "v")


def test_chi_square_insufficient_data():
    tiny = dataset_from_counts({k: 1 for k in DEPENDENT_2X2}, ["x", "y"])
    with pytest.raises(InsufficientData):
        ci_test(tiny, "x", "y")
    # lowering the expected-count floor lets the same table through
    res = ci_test(tiny, "x", "y", min_expected=0.5)
    assert res.independent


def test_chi_square_degenerate_strata_are_vacuous():
    constant_x = dataset_from_counts(
        {("0", "0"): 10, ("0", "1"): 10}, ["x", "y"]
    )
    res = ci_test(constant_x, "x", "y")
    assert res.dof == 0
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.independent


def test_chi_square_input_errors():
    ds = dataset_from_counts(DEPENDENT_2X2, ["x", "y"])
    with pytest.raises(SchemaMismatch):
        ci_test(ds, "x", "x")
    for z in (["x"], ["y", "x"]):
        with pytest.raises(SchemaMismatch):
            ci_test(ds, "x", "y", z)
    # a repeated name used to be recorded twice in the result's z
    with_z = dataset_from_counts(
        {(xv, yv, "0"): c for (xv, yv), c in DEPENDENT_2X2.items()}, ["x", "y", "z"]
    )
    with pytest.raises(SchemaMismatch):
        ci_test(with_z, "x", "y", ["z", "z"])
    # a bare string was split into characters, each conditioned on
    chain = fx.collider_chain_scm().sample(500, seed=0)
    with pytest.raises(SchemaMismatch, match="string 'ZW'"):
        ci_test(chain, "X", "Y", "ZW")
    empty = DiscreteDataset(
        ["x", "y"], [(None, "0")], states={"x": ("0",), "y": ("0",)}
    )
    with pytest.raises(EmptySelection):
        ci_test(empty, "x", "y")


def test_chi_square_detects_collider_dependence():
    ds = fx.collider_chain_scm().sample(10000, seed=2)
    assert ci_test(ds, "X", "Y").independent
    assert not ci_test(ds, "X", "Y", ["Z"]).independent
    assert not ci_test(ds, "X", "Z").independent
    assert ci_test(ds, "X", "W", ["Z"]).independent


# -- patterns ------------------------------------------------------------------------


def test_pattern_validation():
    with pytest.raises(SchemaMismatch):
        Pattern(("a", "b"), frozenset({("b", "a")}), frozenset())
    with pytest.raises(SchemaMismatch):
        Pattern(
            ("a", "b"),
            frozenset({("a", "b")}),
            frozenset({("b", "a")}),
        )


def test_pattern_helpers():
    p = Pattern(
        ("a", "b", "c"),
        frozenset({("a", "b")}),
        frozenset({("c", "b")}),
    )
    assert p.skeleton() == frozenset({("a", "b"), ("b", "c")})
    assert p.adjacent("b", "a") and p.adjacent("b", "c")
    assert not p.adjacent("a", "c")


def test_pattern_json_roundtrip():
    p = Pattern(
        ("a", "b", "c", "d"),
        frozenset({("b", "c")}),
        frozenset({("a", "b"), ("d", "c")}),
        conflicts=(("b", "c"),),
    )
    back = Pattern.from_dict(json.loads(json.dumps(p.to_dict())))
    assert back == p


def test_pattern_dot_rendering():
    p = Pattern(
        ("a", "b", "c"),
        frozenset({("a", "c")}),
        frozenset({("a", "b")}),
    )
    dot = p.to_dot()
    assert dot.startswith("digraph")
    assert "  a -> b;" in dot
    assert "  a -> c [dir=none];" in dot


# -- PC with an independence oracle -----------------------------------------------------


def test_pc_oracle_recovers_collider_chain():
    graph = fx.collider_chain_graph()
    pattern = pc(ci_fn=dsep_ci_fn(graph), variables=graph.node_names())
    assert pattern.directed == frozenset({("X", "Z"), ("Y", "Z"), ("Z", "W")})
    assert pattern.undirected == frozenset()
    assert pattern.conflicts == ()


def test_pc_oracle_sepsets():
    graph = fx.collider_chain_graph()
    _, sepsets = pc_skeleton(
        ci_fn=dsep_ci_fn(graph), variables=graph.node_names()
    )
    assert sepsets[frozenset(("X", "Y"))] == frozenset()
    assert sepsets[frozenset(("X", "W"))] == frozenset({"Z"})
    assert sepsets[frozenset(("Y", "W"))] == frozenset({"Z"})


def test_pc_oracle_chain_stays_undirected():
    graph = CausalGraph(["X", "Z", "W"], [("X", "Z"), ("Z", "W")])
    pattern = pc(ci_fn=dsep_ci_fn(graph), variables=graph.node_names())
    assert pattern.undirected == frozenset({("X", "Z"), ("W", "Z")})
    assert pattern.directed == frozenset()


def test_pc_oracle_pure_collider():
    graph = CausalGraph(["A", "B", "C"], [("A", "B"), ("C", "B")])
    pattern = pc(ci_fn=dsep_ci_fn(graph), variables=graph.node_names())
    assert pattern.directed == frozenset({("A", "B"), ("C", "B")})


def test_pc_oracle_complete_graph_unoriented():
    graph = fx.kidney_graph()
    pattern = pc(ci_fn=dsep_ci_fn(graph), variables=graph.node_names())
    assert pattern.directed == frozenset()
    assert pattern.skeleton() == frozenset(
        {
            ("recovery", "severity"),
            ("recovery", "treatment"),
            ("severity", "treatment"),
        }
    )


def test_pattern_of_dag_matches_oracle_pc():
    graphs = [
        fx.collider_chain_graph(),
        fx.kidney_graph(),
        CausalGraph(["X", "Z", "W"], [("X", "Z"), ("Z", "W")]),
        CausalGraph(["A", "B", "C"], [("A", "B"), ("C", "B")]),
        CausalGraph(
            ["A", "B", "C", "D", "E"],
            [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")],
        ),
    ]
    for graph in graphs:
        assert pattern_of_dag(graph) == pc(
            ci_fn=dsep_ci_fn(graph), variables=graph.node_names()
        )


def test_pc_asks_each_statement_once():
    graphs = [
        fx.collider_chain_graph(),
        fx.kidney_graph(),
        CausalGraph(["X", "Z", "W"], [("X", "Z"), ("Z", "W")]),
        CausalGraph(
            ["A", "B", "C", "D", "E"],
            [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")],
        ),
    ]
    for graph in graphs:
        asked = []
        oracle = dsep_ci_fn(graph)

        def recording(a, b, cond):
            asked.append((a, b, cond))
            return oracle(a, b, cond)

        pattern = pc(ci_fn=recording, variables=graph.node_names())
        assert len(asked) == len(set(asked))
        assert pattern == pattern_of_dag(graph)

    # on data: every (a, b, cond) once, e.g. the empty set for each pair
    # is not re-tested from the second endpoint
    asked = []
    for seed in range(5):
        ds = fx.collider_chain_scm().sample(10000, seed)

        def recording(a, b, cond):
            asked.append((seed, a, b, cond))
            return ci_test(ds, a, b, cond).independent

        assert pc(ci_fn=recording, variables=ds.columns) == pc(ds)
    assert len(asked) == len(set(asked)) == 90


def test_pc_stops_once_no_adjacency_set_is_large_enough():
    # a level larger than every adjacency set runs no test, nor does any
    # level after it; the cap must not make PC walk through them
    ds = fx.kidney_dataset()
    expected = pc(ds, max_cond_size=3)
    assert cpu_bounded(lambda: pc(ds, max_cond_size=10**12), 1.0) == expected

    graph = CausalGraph(
        ["A", "B", "C", "D", "E"], [("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")]
    )
    oracle = dsep_ci_fn(graph)
    runs = {}
    for cap in (4, 10**12):
        asked = runs[cap] = []

        def recording(a, b, cond):
            asked.append((a, b, cond))
            return oracle(a, b, cond)

        cpu_bounded(lambda: pc(ci_fn=recording, variables=list("ABCDE"), max_cond_size=cap), 1.0)
    assert runs[4] == runs[10**12]


def test_import_leaves_scipy_stats_unloaded():
    # a bare `import causalkit` loads neither numpy nor scipy; then no
    # module, each imported in turn, loads scipy.stats
    src = Path(causalkit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, causalkit; print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
            "import causalkit.cli\n"
            "for name in causalkit.__all__: getattr(causalkit, name)\n"
            "print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]


def test_pc_argument_validation():
    with pytest.raises(SchemaMismatch):
        pc_skeleton()
    with pytest.raises(SchemaMismatch):
        pc_skeleton(ci_fn=lambda a, b, z: True)
    # a negative size used to run no test and return the complete skeleton
    with pytest.raises(SchemaMismatch):
        pc_skeleton(ci_fn=lambda a, b, z: True, variables=["X", "Y"], max_cond_size=-1)
    # a float failed with a bare TypeError in `combinations`, and True ran as 1
    ds = fx.collider_chain_scm().sample(500, seed=0)
    for size in (2.5, True):
        with pytest.raises(SchemaMismatch):
            pc_skeleton(ds, max_cond_size=size)
        with pytest.raises(SchemaMismatch):
            pc(ds, max_cond_size=size)
    # a repeated name used to come back as a repeated node of the pattern
    variables = ["X", "X", "Y"]
    with pytest.raises(SchemaMismatch, match="must not repeat"):
        pc_skeleton(ds, variables=variables)
    with pytest.raises(SchemaMismatch, match="must not repeat"):
        pc(ds, variables=variables)
    with pytest.raises(SchemaMismatch, match="must not repeat"):
        pc(ci_fn=lambda a, b, z: True, variables=variables)
    # a string is a sequence of names to Python: "XY" searched over X and Y
    for variables in ("XY", "XXY"):
        with pytest.raises(SchemaMismatch, match=f"not the string '{variables}'"):
            pc_skeleton(ds, variables=variables)
        with pytest.raises(SchemaMismatch, match=f"not the string '{variables}'"):
            pc(ds, variables=variables)
        with pytest.raises(SchemaMismatch, match=f"not the string '{variables}'"):
            pc(ci_fn=lambda a, b, z: True, variables=variables)


@pytest.mark.parametrize(
    "levels",
    [
        {"alpha": math.nan},
        {"alpha": -1},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"min_expected": math.nan},
        {"min_expected": -1},
    ],
)
def test_levels_the_cli_refuses_are_refused(levels):
    # a NaN alpha used to mark every pair dependent, and a NaN min_expected
    # switched the sparse-cell guard off; the CLI refuses both
    ds = fx.collider_chain_scm().sample(500, seed=0)
    with pytest.raises(SchemaMismatch):
        ci_test(ds, "X", "Y", **levels)
    with pytest.raises(SchemaMismatch):
        pc_skeleton(ds, **levels)
    with pytest.raises(SchemaMismatch):
        pc(ds, **levels)
    with pytest.raises(SchemaMismatch):
        pc(ci_fn=lambda a, b, z: True, variables=["X", "Y"], **levels)


def test_levels_the_cli_accepts_are_accepted():
    ds = fx.collider_chain_scm().sample(500, seed=0)
    assert ci_test(ds, "X", "Z", alpha=1e-300, min_expected=0.0).dof == 1
    with pytest.raises(InsufficientData):  # every expected count is below inf
        ci_test(ds, "X", "Z", alpha=0.999, min_expected=math.inf)
    pc(ci_fn=lambda a, b, z: True, variables=["X", "Y"], alpha=0.999, min_expected=math.inf)


# -- conflicting v-structures --------------------------------------------------------


def test_conflicting_demands_freeze_the_edge():
    skeleton = Pattern(
        ("a", "b", "c", "d"),
        frozenset({("a", "b"), ("b", "c"), ("c", "d")}),
        frozenset(),
    )
    sepsets = {
        frozenset(("a", "c")): frozenset(),
        frozenset(("b", "d")): frozenset(),
    }
    pattern = orient(skeleton, sepsets)
    assert pattern.directed == frozenset({("a", "b"), ("d", "c")})
    assert pattern.undirected == frozenset({("b", "c")})
    assert pattern.conflicts == (("b", "c"),)


def test_propagation_avoids_new_collider():
    # with a -> b already oriented and a, c non-adjacent, b - c must point
    # away from b or it would fabricate an unfound v-structure
    skeleton = Pattern(
        ("a", "b", "c"),
        frozenset({("b", "c")}),
        frozenset({("a", "b")}),
    )
    pattern = orient(skeleton, sepsets={})
    assert pattern.directed == frozenset({("a", "b"), ("b", "c")})
    assert pattern.undirected == frozenset()


def test_propagation_never_closes_a_directed_cycle():
    # c -> a with c, b non-adjacent asks for a -> b, but b -> d -> a is
    # already directed, so a -> b would close a cycle and a - b stays
    directed = {("c", "a"), ("b", "d"), ("d", "a")}
    skeleton = Pattern(("a", "b", "c", "d"), frozenset({("a", "b")}), frozenset(directed))
    pattern = orient(skeleton, sepsets={})
    assert pattern.directed == frozenset(directed)
    assert pattern.undirected == frozenset({("a", "b")})

    acyclic = Pattern(
        ("a", "b", "c", "d"), frozenset({("a", "b")}), frozenset(directed - {("d", "a")})
    )
    assert ("a", "b") in orient(acyclic, sepsets={}).directed


# -- PC from data -------------------------------------------------------------------------


def test_pc_recovers_pattern_from_samples():
    ds = fx.collider_chain_scm().sample(10000, seed=2)
    pattern = pc(ds)
    assert pattern.directed == frozenset({("X", "Z"), ("Y", "Z"), ("Z", "W")})
    assert pattern.undirected == frozenset()


def test_pc_output_ignores_column_order():
    ds = fx.collider_chain_scm().sample(10000, seed=2)
    order = ["W", "Y", "X", "Z"]
    idx = [ds.column_index(c) for c in order]
    shuffled = DiscreteDataset(
        order,
        [tuple(r[i] for i in idx) for r in ds.rows],
        {c: ds.states[c] for c in order},
    )
    assert pc(shuffled) == pc(ds)


def test_pc_propagates_insufficient_data():
    tiny = fx.collider_chain_scm().sample(8, seed=0)
    with pytest.raises(InsufficientData):
        pc(tiny)


# -- BIC scoring ---------------------------------------------------------------------------


def test_bic_family_score_hand_computed():
    ds = dataset_from_counts({("0",): 30, ("1",): 70}, ["Y"])
    got = discovery._BicCache(ds).family_score("Y", frozenset())
    ll = 30 * math.log(0.3) + 70 * math.log(0.7)
    assert got == pytest.approx(ll - 0.5 * math.log(100), abs=1e-12)


def test_bic_family_score_with_parent():
    counts = {("0", "0"): 40, ("0", "1"): 10, ("1", "0"): 10, ("1", "1"): 40}
    ds = dataset_from_counts(counts, ["X", "Y"])
    got = discovery._BicCache(ds).family_score("Y", frozenset({"X"}))
    ll = 2 * (40 * math.log(0.8) + 10 * math.log(0.2))
    assert got == pytest.approx(ll - math.log(100), abs=1e-12)


# -- greedy search ------------------------------------------------------------------------


def test_greedy_leaves_independent_data_empty():
    counts = {
        ("0", "0"): 25,
        ("0", "1"): 25,
        ("1", "0"): 25,
        ("1", "1"): 25,
    }
    graph, trace = greedy_score_search(dataset_from_counts(counts, ["X", "Y"]))
    assert graph.edges == frozenset()
    assert len(trace) == 1
    assert trace[0].op == "init"
    assert trace[0].edge is None


def test_greedy_breaks_exact_ties_lexicographically():
    counts = {("0", "0"): 50, ("1", "1"): 50}
    graph, trace = greedy_score_search(dataset_from_counts(counts, ["X", "Y"]))
    # both orientations score identically; the first candidate in
    # lexicographic order wins
    assert graph.edges == frozenset({("X", "Y")})
    assert [t.op for t in trace] == ["init", "add"]
    assert trace[1].edge == ("X", "Y")


def test_greedy_trace_scores_are_monotone():
    ds = fx.collider_chain_scm().sample(10000, seed=2)
    _, trace = greedy_score_search(ds)
    scores = [t.score for t in trace]
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_greedy_recovers_equivalence_class_of_fixture():
    ds = fx.collider_chain_scm().sample(10000, seed=2)
    graph, trace = greedy_score_search(ds)
    assert markov_equivalent(graph, fx.collider_chain_graph())
    assert [t.edge for t in trace[1:]] == [("X", "Z"), ("Z", "W"), ("Y", "Z")]


def test_greedy_requires_complete_rows():
    holes = DiscreteDataset(
        ["X", "Y"], [("0", None)], states={"X": ("0",), "Y": ("0", "1")}
    )
    with pytest.raises(EmptySelection):
        greedy_score_search(holes)


def test_greedy_search_on_a_wide_table_stays_fast():
    # 14 three-state columns, each copying its predecessor in half the rows:
    # about 9,000 distinct records, each subset tallied from them. Counting
    # each subset with a Python pass over those records took 1.3-1.9 s
    rng = np.random.default_rng(14)
    columns = [f"v{i:02d}" for i in range(14)]
    codes = rng.integers(0, 3, size=(10_000, 14))
    copy = rng.random((10_000, 14)) < 0.5
    for j in range(1, 14):
        codes[:, j] = np.where(copy[:, j], codes[:, j - 1], codes[:, j])
    ds = DiscreteDataset(columns, [tuple(map(str, r)) for r in codes.tolist()])
    graph, trace = cpu_bounded(lambda: greedy_score_search(ds), 0.4)
    assert {tuple(sorted(e)) for e in graph.edges} == set(zip(columns, columns[1:]))
    assert len(trace) == 14


# -- equivalence helpers ---------------------------------------------------------------------


def test_vstructures():
    assert vstructures(fx.collider_chain_graph()) == frozenset(
        {("X", "Z", "Y")}
    )
    chain = CausalGraph(["X", "Z", "W"], [("X", "Z"), ("Z", "W")])
    assert vstructures(chain) == frozenset()
    # shielded collider is not a v-structure
    shielded = CausalGraph(
        ["A", "B", "C"], [("A", "B"), ("C", "B"), ("A", "C")]
    )
    assert vstructures(shielded) == frozenset()


def test_markov_equivalence():
    chain = CausalGraph(["X", "Z", "W"], [("X", "Z"), ("Z", "W")])
    fork = CausalGraph(["X", "Z", "W"], [("Z", "X"), ("Z", "W")])
    collider = CausalGraph(["X", "Z", "W"], [("X", "Z"), ("W", "Z")])
    assert markov_equivalent(chain, fork)
    assert not markov_equivalent(chain, collider)
    other_skeleton = CausalGraph(["X", "Z", "W"], [("X", "Z")])
    assert not markov_equivalent(chain, other_skeleton)
    assert markov_equivalent(chain, chain)
