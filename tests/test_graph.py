"""Graph construction, d-separation, backdoor machinery, and rule checks."""

import itertools
import json
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalkit import (
    CausalGraph,
    CycleDetected,
    DanglingEdge,
    DuplicateNode,
    GraphTooLarge,
    InvalidNodeName,
    InvalidStructure,
    Node,
    NodeKind,
    NotSupported,
    OverlappingSets,
    UnknownNode,
    graph_from_dict,
    graph_to_dict,
)
from causalkit import fixtures as fx
from causalkit.graph import PATH_STEP_BUDGET

import dsep_oracle
from dsep_oracle import d_separated as oracle_d_separated
from test_scm import cpu_bounded


def obs(*names):
    return [Node(n, NodeKind.OBSERVED) for n in names]


def g(names, edges):
    return CausalGraph(obs(*names), edges)


CHAIN = g("XZW", [("X", "Z"), ("Z", "W")])
COLLIDER = g("ABC", [("A", "B"), ("C", "B")])
COLLIDER_DESC = g("ABCD", [("A", "B"), ("C", "B"), ("B", "D")])


# -- construction and validation ----------------------------------------------


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNode):
        CausalGraph(obs("X", "X"), [])


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge):
        g("XY", [("X", "Q")])


def test_self_loop_is_a_cycle():
    with pytest.raises(CycleDetected):
        g("X", [("X", "X")])


def test_cycle_detected_with_witness():
    with pytest.raises(CycleDetected) as exc:
        g("XYZ", [("X", "Y"), ("Y", "Z"), ("Z", "X")])
    cycle = exc.value.cycle
    assert len(cycle) >= 2
    assert set(cycle) <= {"X", "Y", "Z"}


def test_bad_names_rejected():
    with pytest.raises(InvalidNodeName):
        g(["2fast"], [])
    with pytest.raises(InvalidNodeName):
        g(["a b"], [])


def test_selection_node_cannot_have_children():
    with pytest.raises(InvalidStructure):
        CausalGraph(
            obs("X") + [Node("S", NodeKind.SELECTION)], [("S", "X")]
        )


def test_unknown_node_in_queries():
    with pytest.raises(UnknownNode):
        CHAIN.parents("nope")
    with pytest.raises(UnknownNode):
        CHAIN.is_d_separated({"X"}, {"nope"})


def test_topological_order_breaks_ties_lexicographically():
    graph = g("DCBA", [("D", "A")])
    # B and C are unconstrained; D must precede A.
    order = graph.topological_order()
    assert order.index("D") < order.index("A")
    assert order == ("B", "C", "D", "A")


def test_structure_accessors():
    assert CHAIN.parents("Z") == ("X",)
    assert CHAIN.children("Z") == ("W",)
    assert CHAIN.has_edge("X", "Z") and not CHAIN.has_edge("Z", "X")
    assert CHAIN.descendants("X") == {"Z", "W"}
    assert CHAIN.ancestors("W") == {"X", "Z"}
    assert COLLIDER_DESC.descendants("B") == {"D"}


def test_nodes_of_kind():
    assert fx.covid_graph().nodes_of_kind(NodeKind.SELECTION) == ("S",)
    assert fx.smoking_graph().nodes_of_kind(NodeKind.LATENT) == ("Genotype",)


# -- path enumeration -----------------------------------------------------------


def test_smoking_graph_paths_between_exposure_and_disease():
    paths = fx.smoking_graph().undirected_paths("Smoking", "Lung_cancer")
    rendered = [str(p) for p in paths]
    # Sorted by node sequence: the confounded route lists before the direct
    # edge because "Genotype" < "Lung_cancer".
    assert rendered == [
        "Smoking <- Genotype -> Lung_cancer",
        "Smoking -> Lung_cancer",
    ]


def test_backdoor_paths_smoking():
    paths = fx.smoking_graph().backdoor_paths("Smoking", "Lung_cancer")
    assert [str(p) for p in paths] == ["Smoking <- Genotype -> Lung_cancer"]


def test_backdoor_paths_covid():
    paths = fx.covid_graph().backdoor_paths("test", "antibody")
    assert [str(p) for p in paths] == ["test <- risk -> S <- virus -> antibody"]


def test_path_blocking_rules():
    chain_path = CHAIN.undirected_paths("X", "W")[0]
    assert CHAIN.is_path_blocked(chain_path, {"Z"})
    assert not CHAIN.is_path_blocked(chain_path, set())

    collider_path = COLLIDER.undirected_paths("A", "C")[0]
    assert COLLIDER.is_path_blocked(collider_path, set())
    assert not COLLIDER.is_path_blocked(collider_path, {"B"})

    desc_path = COLLIDER_DESC.undirected_paths("A", "C")[0]
    assert not COLLIDER_DESC.is_path_blocked(desc_path, {"D"})


def test_path_enumeration_lists_a_long_chain():
    names = [f"n{i:04d}" for i in range(2000)]
    chain = g(names, list(zip(names, names[1:])))
    (path,) = chain.undirected_paths(names[0], names[-1])
    assert path.nodes == tuple(names)
    assert path.arrows == ("->",) * 1999


def test_path_enumeration_refuses_a_complete_32_node_dag():
    names = [f"N{i:02d}" for i in range(32)]
    complete = g(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])

    def refused():
        with pytest.raises(GraphTooLarge, match=f"after {PATH_STEP_BUDGET} search steps"):
            complete.undirected_paths("N01", "N02")

    cpu_bounded(refused, 5)


def test_backdoor_paths_of_a_complete_11_node_dag_fit_the_budget():
    """The search leaves x through its parents only, so the budget counts
    the 109,601 paths it reports (219,202 steps), not the front-door paths
    a search over every neighbour of x would also walk."""
    names = [f"N{i:02d}" for i in range(11)]
    complete = g(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
    paths = cpu_bounded(lambda: complete.backdoor_paths("N01", "N02"), 5)
    assert len(paths) == 109_601
    assert (paths[0].nodes, paths[0].arrows) == (("N01", "N00", "N02"), ("<-", "->"))
    wider = g(names + ["N11"], complete.edges | {(n, "N11") for n in names})

    def refused():
        with pytest.raises(GraphTooLarge):
            wider.backdoor_paths("N01", "N02")

    cpu_bounded(refused, 5)


def test_backdoor_paths_are_the_undirected_paths_into_x():
    rng = random.Random(11)
    for n, density in [(rng.randint(2, 8), 0.6) for _ in range(150)]:
        names, edges = _random_dag(rng, n, density)
        graph = g(names, edges)
        x, y = rng.sample(names, 2)
        assert graph.backdoor_paths(x, y) == [
            p for p in graph.undirected_paths(x, y) if p.arrows[0] == "<-"
        ], (edges, x, y)


def _random_dag(rng, n, density):
    """n nodes in a causal order hidden from their names, each later node
    joined to each earlier one with probability `density`."""
    order = rng.sample([f"v{i:02d}" for i in range(n)], n)
    edges = [
        (a, b) for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < density
    ]
    return order, edges


def test_paths_come_out_in_node_sequence_order():
    """The library's paths, in the order it lists them, against the
    oracle's, sorted: dense DAGs on up to 8 nodes and sparse ones on 33 to
    60 nodes."""
    rng = random.Random(5)
    shapes = [(rng.randint(2, 8), 0.6) for _ in range(150)]
    shapes += [(n, 2 / n) for n in (rng.randint(33, 60) for _ in range(30))]
    listed = 0
    for n, density in shapes:
        names, edges = _random_dag(rng, n, density)
        graph = g(names, edges)
        x, y = rng.sample(names, 2)
        got = [p.nodes for p in graph.undirected_paths(x, y)]
        assert got == sorted(
            tuple(p) for p in dsep_oracle.undirected_paths(names, edges, x, y)
        ), (edges, x, y)
        listed += len(got) if n > 32 else 0
    assert listed > 100


# -- d-separation ---------------------------------------------------------------


def test_dsep_textbook_cases():
    assert CHAIN.is_d_separated({"X"}, {"W"}, {"Z"})
    assert not CHAIN.is_d_separated({"X"}, {"W"})
    assert COLLIDER.is_d_separated({"A"}, {"C"})
    assert not COLLIDER.is_d_separated({"A"}, {"C"}, {"B"})
    assert not COLLIDER_DESC.is_d_separated({"A"}, {"C"}, {"D"})


def test_dsep_collider_chain_fixture():
    graph = fx.collider_chain_graph()
    assert graph.is_d_separated({"X"}, {"W"}, {"Z"})
    assert graph.is_d_separated({"X"}, {"Y"})
    assert not graph.is_d_separated({"X"}, {"Y"}, {"Z"})
    assert not graph.is_d_separated({"X"}, {"Y"}, {"W"})


def test_dsep_set_arguments_and_errors():
    assert CHAIN.is_d_separated(set(), {"W"}, {"Z"})
    assert CHAIN.is_d_separated({"X"}, set())
    with pytest.raises(OverlappingSets):
        CHAIN.is_d_separated({"X"}, {"X"})
    with pytest.raises(OverlappingSets):
        CHAIN.is_d_separated({"X"}, {"W"}, {"X"})


def _all_dags(names):
    """Every labeled DAG over `names`: each pair of nodes is unlinked or
    linked one way or the other, and the cyclic choices are dropped."""
    pairs = list(itertools.combinations(names, 2))
    for choice in itertools.product((None, 0, 1), repeat=len(pairs)):
        edges = [
            (a, b) if way == 0 else (b, a)
            for (a, b), way in zip(pairs, choice)
            if way is not None
        ]
        try:
            yield g(names, edges)
        except CycleDetected:
            continue


def test_dsep_symmetry_and_adjacency_exhaustive():
    """On every 3-node DAG: symmetric in x/y, and adjacent nodes are never
    separated by any conditioning set."""
    names = ("A", "B", "C")
    for graph in _all_dags(names):
        for x, y in itertools.combinations(names, 2):
            others = [n for n in names if n not in (x, y)]
            for k in range(len(others) + 1):
                for z in itertools.combinations(others, k):
                    left = graph.is_d_separated({x}, {y}, set(z))
                    right = graph.is_d_separated({y}, {x}, set(z))
                    assert left == right
                    if graph.has_edge(x, y) or graph.has_edge(y, x):
                        assert not left


def test_dsep_matches_path_rule_oracle_on_4_node_dags():
    names = ("A", "B", "C", "D")
    count = 0
    for graph in _all_dags(names):
        edges = list(graph.edges)
        for x, y in itertools.combinations(names, 2):
            others = [n for n in names if n not in (x, y)]
            for k in range(len(others) + 1):
                for z in itertools.combinations(others, k):
                    expected = oracle_d_separated(names, edges, {x}, {y}, z)
                    assert graph.is_d_separated({x}, {y}, set(z)) == expected
                    count += 1
    assert count == 543 * 6 * 4


# -- backdoor criterion and rule checks ------------------------------------------


def test_backdoor_criterion_kidney():
    graph = fx.kidney_graph()
    assert graph.satisfies_backdoor_criterion(
        "treatment", "recovery", {"severity"}
    )
    assert not graph.satisfies_backdoor_criterion("treatment", "recovery")


def test_backdoor_criterion_rejects_descendants_of_treatment():
    graph = g("XMY", [("X", "M"), ("M", "Y")])
    assert not graph.satisfies_backdoor_criterion("X", "Y", {"M"})
    assert graph.satisfies_backdoor_criterion("X", "Y")


def test_backdoor_criterion_latent_confounder_unblockable():
    graph = fx.smoking_graph()
    assert not graph.satisfies_backdoor_criterion("Smoking", "Lung_cancer")


def test_backdoor_criterion_overlap_errors():
    graph = fx.kidney_graph()
    with pytest.raises(OverlappingSets):
        graph.satisfies_backdoor_criterion(
            "treatment", "recovery", {"treatment"}
        )


def test_backdoor_criterion_argument_errors():
    """Every argument is checked before the answer, also when z holds a
    descendant of x (recovery), which alone would decide it."""
    graph = fx.kidney_graph()
    for z in ((), {"recovery"}):
        with pytest.raises(OverlappingSets):
            graph.satisfies_backdoor_criterion("treatment", "treatment", z)
        with pytest.raises(UnknownNode):
            graph.satisfies_backdoor_criterion("treatment", "nope", z)


def _check_backdoor_routes(graph, pairs):
    """The d-separation decision against two path routes: the library's
    enumerated backdoor paths and blocking rule, and `dsep_oracle`'s."""
    names = graph.node_names()
    edges = set(graph.edges)
    for x, y in pairs:
        paths = graph.backdoor_paths(x, y)
        oracle_paths = [
            p for p in dsep_oracle.undirected_paths(names, edges, x, y) if (p[1], x) in edges
        ]
        desc = graph.descendants(x)
        oracle_desc = dsep_oracle.descendants(edges, x) - {x}
        others = [n for n in names if n not in (x, y)]
        for k in range(len(others) + 1):
            for z in map(set, itertools.combinations(others, k)):
                by_paths = not z & desc and all(graph.is_path_blocked(p, z) for p in paths)
                by_oracle = not z & oracle_desc and all(
                    dsep_oracle.path_blocked(p, edges, z) for p in oracle_paths
                )
                assert by_paths == by_oracle, (edges, x, y, z)
                assert graph.satisfies_backdoor_criterion(x, y, z) == by_paths, (
                    edges, x, y, z
                )


def test_backdoor_matches_path_routes_on_every_small_dag():
    """d-separation decision against the library's path route and the
    oracle's: on ≤ 4 nodes every labeled DAG, ordered pair and z. On 5
    nodes every labeled DAG with (x, y) = (A, B) and every z: renaming
    nodes maps any ordered pair to (A, B) and a labeled DAG to another
    labeled DAG, so this covers every 5-node statement up to names, and
    the smaller graphs check that no route depends on the names."""
    for names in ("AB", "ABC", "ABCD"):
        for graph in _all_dags(names):
            _check_backdoor_routes(graph, itertools.permutations(names, 2))
    count = 0
    for graph in _all_dags("ABCDE"):
        _check_backdoor_routes(graph, [("A", "B")])
        count += 1
    assert count == 29281


@st.composite
def _dag_and_sets(draw):
    """A DAG on 2 to 9 nodes, its causal order hidden from the names, and
    three disjoint node sets x, y, z, the first two non-empty."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 9)))]
    order = draw(st.permutations(names))
    edges = [(a, b) for i, a in enumerate(order) for b in order[i + 1:] if draw(st.booleans())]
    roles = draw(st.lists(st.sampled_from("xyz-"), min_size=len(names), max_size=len(names)))
    xs, ys, zs = ({n for n, r in zip(names, roles) if r == role} for role in "xyz")
    assume(xs and ys)
    return names, edges, xs, ys, zs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_dag_and_sets())
def test_walk_with_cuts_matches_both_oracles(case):
    """d-separation, the backdoor criterion and rule 1 against the path-rule
    and moralization oracles, each run on the edges the query keeps: all of
    them, all but x's out-edges, all but x_do's in-edges."""
    names, edges, xs, ys, zs = case
    graph = g(names, edges)
    x, y = min(xs), min(ys)
    desc = dsep_oracle.descendants(edges, x) - {x}
    without_out = [(a, b) for a, b in edges if a != x]
    do = sorted(set(names) - xs - zs - {y})
    for oracle in (oracle_d_separated, dsep_oracle.d_separated_moral):
        assert graph.is_d_separated(xs, ys, zs) == oracle(names, edges, xs, ys, zs)
        assert graph.satisfies_backdoor_criterion(x, y, zs) == (
            not desc & zs and oracle(names, without_out, {x}, {y}, zs)
        )
        if do:
            without_in = [(a, b) for a, b in edges if b != do[0]]
            assert graph.rule1_applicable(y, do[0], xs, zs) == oracle(
                names, without_in, xs, {y}, zs
            )


def test_backdoor_check_is_fast_on_a_dense_30_node_dag():
    rng = random.Random(3)
    names = [f"n{i:02d}" for i in range(30)]
    edges = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.85
    ]
    graph = g(names, edges)
    x, y = names[15], names[-1]
    parents = set(graph.parents(x))
    assert any(graph.has_edge(p, y) for p in parents)  # x <- p -> y is open
    start = time.process_time()
    assert graph.satisfies_backdoor_criterion(x, y, parents)
    assert not graph.satisfies_backdoor_criterion(x, y)
    # do(x) cuts the edges into x, but p -> y still joins a parent of x to y
    assert not graph.rule1_applicable(y, x, parents)
    elapsed = time.process_time() - start
    assert elapsed < 0.1, f"{elapsed:.3f} s of CPU time"


def test_rule3_sprinkler_and_kidney():
    sprinkler = fx.sprinkler_scm().graph
    assert sprinkler.rule3_applicable("Sprinkler", "Rain")
    assert not sprinkler.rule3_applicable("Rain", "Wet")
    kidney = fx.kidney_graph()
    assert kidney.rule3_applicable("treatment", "severity")


def test_rule1_in_mutilated_graph():
    graph = fx.collider_chain_graph()
    # Under do(Z), X is disconnected from W: observing X is droppable.
    assert graph.rule1_applicable("W", "Z", {"X"})
    # Without the intervention wiring W depends on Z's parents through Z,
    # but conditioning on Z blocks; the check is on the mutilated graph,
    # where Y -> Z was removed.
    assert graph.rule1_applicable("W", "Z", {"Y"})
    assert graph.rule1_applicable("W", "Z", set())
    with pytest.raises(OverlappingSets):
        graph.rule1_applicable("W", "Z", {"W"})


def test_mutilate_removes_incoming_edges_only():
    graph = fx.kidney_graph()
    cut = graph.mutilate({"treatment"})
    assert sorted(cut.edges) == [
        ("severity", "recovery"),
        ("treatment", "recovery"),
    ]
    # original untouched
    assert len(graph.edges) == 3


def test_mutilate_rejects_latent_targets():
    with pytest.raises(NotSupported):
        fx.smoking_graph().mutilate({"Genotype"})


def test_rule1_rejects_a_latent_do_node_whatever_w():
    for w in ((), {"Smoking"}):
        with pytest.raises(NotSupported):
            fx.smoking_graph().rule1_applicable("Lung_cancer", "Genotype", w)


def test_rule3_rejects_a_latent_do_node():
    with pytest.raises(NotSupported):
        fx.smoking_graph().rule3_applicable("Genotype", "Lung_cancer")


# -- serialization ---------------------------------------------------------------


def test_graph_json_roundtrip():
    for graph in (
        fx.kidney_graph(),
        fx.smoking_graph(),
        fx.covid_graph(),
        fx.collider_chain_graph(),
    ):
        assert graph_from_dict(graph_to_dict(graph)) == graph
        assert graph_from_dict(json.loads(json.dumps(graph_to_dict(graph)))) == graph


def test_graph_kinds_survive_roundtrip():
    graph = fx.covid_graph()
    back = graph_from_dict(graph_to_dict(graph))
    assert back.kind("S") is NodeKind.SELECTION


def test_graph_equality_and_hash():
    assert fx.kidney_graph() == fx.kidney_graph()
    assert hash(fx.kidney_graph()) == hash(fx.kidney_graph())
    assert fx.kidney_graph() != fx.smoking_graph()
