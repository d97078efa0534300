"""Discrete SCM engine: CPT validation, exact inference, surgery, sampling."""

import itertools
import json
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import (
    CausalGraph,
    Cpt,
    DiscreteScm,
    InvalidCpt,
    ModelTooLarge,
    Node,
    NodeKind,
    NotSupported,
    PartialAssignment,
    PartialOverlap,
    UnknownState,
    ZeroEvidenceProbability,
    scm_from_dict,
    scm_from_json,
    scm_to_dict,
    scm_to_json,
)
from causalkit import fixtures as fx
from causalkit.scm import MAX_NODES, MAX_STATES


def enumerate_probability(scm, event):
    """Brute-force oracle: sum full-joint products over every configuration
    consistent with `event`, with no recursion or early exits."""
    names = scm.graph.node_names()
    spaces = [scm.states(n) for n in names]
    total = 0.0
    for combo in itertools.product(*spaces):
        assign = dict(zip(names, combo))
        if any(assign[k] != v for k, v in event.items()):
            continue
        p = 1.0
        for name in names:
            cpt = scm.cpt(name)
            p *= cpt.prob(assign[name], tuple(assign[q] for q in cpt.parents))
        total += p
    return total


def latent_confounder_scm():
    """U latent, U -> X -> Y, U -> Y; exercises the latent code paths the
    shipped fixtures leave to the estimation layer."""
    graph = CausalGraph(
        [Node("U", NodeKind.LATENT), "X", "Y"],
        [("U", "X"), ("U", "Y"), ("X", "Y")],
    )
    cpts = {
        "X": Cpt(
            "X", ("U",), ("0", "1"),
            {("0",): (0.9, 0.1), ("1",): (0.1, 0.9)},
        ),
        "Y": Cpt(
            "Y", ("U", "X"), ("0", "1"),
            {
                ("0", "0"): (0.8, 0.2),
                ("0", "1"): (0.6, 0.4),
                ("1", "0"): (0.3, 0.7),
                ("1", "1"): (0.1, 0.9),
            },
        ),
    }
    return DiscreteScm(graph, cpts, latent_dists={"U": {"0": 0.5, "1": 0.5}})


# -- CPT validation ---------------------------------------------------------


def test_cpt_rejects_bad_shapes():
    with pytest.raises(InvalidCpt):
        Cpt("X", (), (), {(): ()})
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "0"), {(): (0.5, 0.5)})
    with pytest.raises(InvalidCpt):
        Cpt("X", ("P", "P"), ("0",), {("a", "a"): (1.0,)})
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "1"), {})
    with pytest.raises(InvalidCpt):
        Cpt("X", ("P",), ("0", "1"), {(): (0.5, 0.5)})
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "1"), {(): (1.0,)})


def test_cpt_rejects_bad_distributions():
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "1"), {(): (-0.1, 1.1)})
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "1"), {(): (0.5, 0.6)})
    # NaN is neither negative nor far from 1 under `<` and `>`
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "1"), {(): (float("nan"), float("nan"))})
    with pytest.raises(InvalidCpt):
        Cpt("X", (), ("0", "1"), {(): (float("nan"), 1.0)})


def test_cpt_prob_and_unknown_state():
    cpt = Cpt("X", (), ("a", "b"), {(): (0.25, 0.75)})
    assert cpt.prob("b", ()) == 0.75
    with pytest.raises(UnknownState):
        cpt.prob("c", ())


def test_point_mass():
    cpt = Cpt.point_mass("X", ("a", "b", "c"), "b")
    assert cpt.rows[()] == (0.0, 1.0, 0.0)
    with pytest.raises(UnknownState):
        Cpt.point_mass("X", ("a", "b"), "z")


# -- model construction -------------------------------------------------------


def coin(name):
    return Cpt(name, (), ("0", "1"), {(): (0.5, 0.5)})


def test_model_requires_cpt_for_every_node():
    graph = CausalGraph(["X", "Y"], [])
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": coin("X")})


def test_model_rejects_mismatched_cpt_key():
    graph = CausalGraph(["X"], [])
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": coin("Y")})


def test_model_rejects_parent_mismatch():
    graph = CausalGraph(["X", "Y"], [("X", "Y")])
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": coin("X"), "Y": coin("Y")})


def test_model_rejects_incomplete_parent_coverage():
    graph = CausalGraph(["X", "Y"], [("X", "Y")])
    partial = Cpt("Y", ("X",), ("0", "1"), {("0",): (0.5, 0.5)})
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": coin("X"), "Y": partial})


def test_model_rejects_tables_for_unknown_nodes():
    graph = CausalGraph(["X"], [])
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": coin("X"), "Z": coin("Z")})


def test_latent_nodes_take_marginals_not_cpts():
    graph = CausalGraph([Node("U", NodeKind.LATENT), "X"], [("U", "X")])
    xcpt = Cpt("X", ("U",), ("0", "1"), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)})
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"U": coin("U"), "X": xcpt})
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": xcpt})  # no distribution for U
    with pytest.raises(InvalidCpt):
        DiscreteScm(graph, {"X": xcpt}, latent_dists={"U": {"0": float("nan"), "1": 0.5}})
    scm = DiscreteScm(graph, {"X": xcpt}, latent_dists={"U": {"0": 0.3, "1": 0.7}})
    assert scm.probability({"X": "1"}) == pytest.approx(0.7)


def test_latent_nodes_must_be_roots():
    graph = CausalGraph(["X", Node("U", NodeKind.LATENT)], [("X", "U")])
    ucpt = Cpt("U", ("X",), ("0", "1"), {("0",): (1.0, 0.0), ("1",): (0.0, 1.0)})
    with pytest.raises(InvalidCpt):
        DiscreteScm(
            graph, {"X": coin("X")}, latent_dists={"U": {"0": 0.5, "1": 0.5}}
        )


def test_node_count_cap():
    names = [f"n{i:02d}" for i in range(21)]
    graph = CausalGraph(names, [])
    with pytest.raises(ModelTooLarge):
        DiscreteScm(graph, {n: coin(n) for n in names})


def test_state_count_cap():
    graph = CausalGraph(["X"], [])
    states = tuple(str(i) for i in range(6))
    wide = Cpt("X", (), states, {(): (1 / 6,) * 6})
    with pytest.raises(ModelTooLarge):
        DiscreteScm(graph, {"X": wide})


# -- exact inference -----------------------------------------------------------


def test_joint_probability_hand_computed():
    scm = fx.sprinkler_scm()
    assert scm.joint_probability(
        {"Rain": "1", "Sprinkler": "1", "Wet": "1"}
    ) == pytest.approx(0.2 * 0.01 * 0.99, abs=1e-15)
    assert scm.joint_probability(
        {"Rain": "0", "Sprinkler": "1", "Wet": "1"}
    ) == pytest.approx(0.8 * 0.4 * 0.9, abs=1e-15)


def test_joint_probability_requires_full_assignment():
    with pytest.raises(PartialAssignment):
        fx.sprinkler_scm().joint_probability({"Rain": "1"})


def test_probability_matches_enumeration_oracle():
    for scm in (fx.sprinkler_scm(), fx.confounded_scm(), fx.kidney_scm(),
                latent_confounder_scm()):
        names = scm.graph.node_names()
        for k in (1, 2):
            for subset in itertools.combinations(names, k):
                for combo in itertools.product(
                    *(scm.states(n) for n in subset)
                ):
                    event = dict(zip(subset, combo))
                    assert scm.probability(event) == pytest.approx(
                        enumerate_probability(scm, event), abs=1e-12
                    )


def test_probability_of_empty_event_is_one():
    assert fx.sprinkler_scm().probability({}) == pytest.approx(1.0)


def test_probability_unknown_state():
    with pytest.raises(UnknownState):
        fx.sprinkler_scm().probability({"Rain": "maybe"})


def test_conditional_is_ratio_of_marginals():
    scm = fx.sprinkler_scm()
    got = scm.query_conditional({"Rain": "1"}, {"Wet": "1"})
    num = enumerate_probability(scm, {"Rain": "1", "Wet": "1"})
    den = enumerate_probability(scm, {"Wet": "1"})
    assert got == pytest.approx(num / den, abs=1e-12)


def test_conditional_error_cases():
    scm = fx.sprinkler_scm()
    with pytest.raises(PartialOverlap):
        scm.query_conditional({"Rain": "1"}, {"Rain": "0"})
    with pytest.raises(PartialAssignment):
        scm.query_conditional({}, {"Wet": "1"})
    # a positive antibody test is impossible without a test having been run
    with pytest.raises(ZeroEvidenceProbability):
        fx.covid_scm().query_conditional(
            {"risk": "low"}, {"test": "0", "antibody": "1"}
        )


# -- interventions ---------------------------------------------------------------


def test_intervene_rewires_and_point_masses():
    scm = fx.kidney_scm()
    cut = scm.intervene({"treatment": "A"})
    assert sorted(cut.graph.edges) == [
        ("severity", "recovery"),
        ("treatment", "recovery"),
    ]
    assert cut.cpt("treatment").rows[()] == (1.0, 0.0)
    assert cut.probability({"treatment": "A"}) == 1.0
    # original untouched
    assert len(scm.graph.edges) == 3


def test_intervention_vs_observation_on_confounded_model():
    scm = fx.confounded_scm()
    do1 = scm.intervene({"X": "1"}).probability({"Y": "1"})
    do0 = scm.intervene({"X": "0"}).probability({"Y": "1"})
    naive = scm.query_conditional({"Y": "1"}, {"X": "1"})
    assert do1 == pytest.approx(0.65, abs=1e-12)
    assert do0 == pytest.approx(0.45, abs=1e-12)
    assert naive == pytest.approx(0.85, abs=1e-12)


def test_intervention_with_latent_confounder():
    scm = latent_confounder_scm()
    assert scm.intervene({"X": "1"}).probability({"Y": "1"}) == pytest.approx(
        0.65, abs=1e-12
    )


def test_rule3_invariance_on_sprinkler():
    scm = fx.sprinkler_scm()
    obs = scm.probability({"Rain": "1"})
    done = scm.intervene({"Sprinkler": "1"}).probability({"Rain": "1"})
    assert abs(obs - done) < 1e-9


def test_intervene_on_latent_rejected():
    with pytest.raises(NotSupported):
        latent_confounder_scm().intervene({"U": "1"})


def test_intervene_unknown_state():
    with pytest.raises(UnknownState):
        fx.sprinkler_scm().intervene({"Rain": "drizzle"})


# -- exact queries against the oracle, and their run time at the cap -----------


@st.composite
def random_scms(draw):
    """A DAG on 1-6 nodes with 2-3 states each and CPT rows drawn from small
    integer weights, so exact zeros are common. Edges run forward in a
    hidden causal order that the node names do not reveal; roots may be
    latent."""
    n = draw(st.integers(1, 6))
    names = [f"V{i}" for i in draw(st.permutations(range(n)))]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if draw(st.booleans())]
    roots = set(names) - {b for _, b in edges}
    latent = {v for v in sorted(roots) if draw(st.booleans())}
    graph = CausalGraph(
        [Node(v, NodeKind.LATENT if v in latent else NodeKind.OBSERVED) for v in names],
        edges,
    )
    states = {v: tuple("abc"[: draw(st.integers(2, 3))]) for v in names}

    def dist(k):
        w = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        return tuple(x / sum(w) for x in w)

    cpts, latent_dists = {}, {}
    for v in names:
        if v in latent:
            latent_dists[v] = dict(zip(states[v], dist(len(states[v]))))
            continue
        parents = graph.parents(v)
        cpts[v] = Cpt(v, parents, states[v], {
            combo: dist(len(states[v]))
            for combo in itertools.product(*(states[p] for p in parents))
        })
    return DiscreteScm(graph, cpts, latent_dists)


def draw_event(draw, scm, nodes):
    return {v: draw(st.sampled_from(scm.states(v))) for v in nodes}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_queries_match_the_enumeration_oracle(data):
    """probability, joint_probability and query_conditional on random models,
    before and after `intervene`, against brute-force enumeration; the zero
    evidence error exactly when the enumerated evidence probability is 0."""
    scm = data.draw(random_scms())
    names = scm.graph.node_names()
    do = draw_event(data.draw, scm, [
        v for v in names
        if scm.graph.kind(v) is not NodeKind.LATENT and data.draw(st.booleans())
    ])
    model = scm.intervene(do) if do else scm
    shuffled = data.draw(st.permutations(names))
    t = data.draw(st.integers(1, len(names)))
    e = data.draw(st.integers(0, len(names) - t))
    target = draw_event(data.draw, model, shuffled[:t])
    evidence = draw_event(data.draw, model, shuffled[t:t + e])
    close = dict(rel=1e-12, abs=1e-15)

    joint = {**evidence, **target}
    assert model.probability(joint) == pytest.approx(
        enumerate_probability(model, joint), **close)
    full = draw_event(data.draw, model, names)
    assert model.joint_probability(full) == pytest.approx(
        enumerate_probability(model, full), **close)
    den = enumerate_probability(model, evidence)
    if den == 0.0:
        with pytest.raises(ZeroEvidenceProbability):
            model.query_conditional(target, evidence)
    else:
        assert model.query_conditional(target, evidence) == pytest.approx(
            enumerate_probability(model, joint) / den, **close)


class _OverBudget(Exception):
    pass


def cpu_bounded(fn, budget):
    """fn()'s result, failing the test once the process has spent `budget`
    seconds of CPU time on it, so that a walk over 5^20 configurations
    fails instead of running for hours."""
    def stop(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGPROF, stop)
    signal.setitimer(signal.ITIMER_PROF, budget)
    start = time.process_time()
    try:
        out = fn()
    except _OverBudget:
        pytest.fail(f"call used more than {budget} s of CPU time")
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    spent = time.process_time() - start
    assert spent < budget, f"call took {spent:.3f} s of CPU time"
    return out


def test_chain_query_at_the_node_cap_is_fast():
    rng = random.Random(3)
    names = [f"C{i}" for i in range(MAX_NODES)]
    cpts = {"C0": Cpt("C0", (), ("0", "1"), {(): (0.3, 0.7)})}
    trans = []
    for child, parent in zip(names[1:], names):
        rows = {s: (1 - p, p) for s, p in zip("01", (rng.random(), rng.random()))}
        trans.append(rows)
        cpts[child] = Cpt(child, (parent,), ("0", "1"),
                          {(s,): row for s, row in rows.items()})
    scm = DiscreteScm(CausalGraph(names, list(zip(names, names[1:]))), cpts)

    got = cpu_bounded(
        lambda: scm.query_conditional({names[-1]: "1"}, {"C2": "0"}), 0.1
    )
    vec = (1.0, 0.0)  # C2 = 0, pushed through the later transition tables
    for rows in trans[2:]:
        vec = tuple(sum(vec[i] * rows["01"[i]][j] for i in (0, 1)) for j in (0, 1))
    assert got == pytest.approx(vec[1], rel=1e-12)


def polytree_edges(names):
    """A tree skeleton with random edge directions, at most two parents each."""
    rng = random.Random(5)
    parents = {v: [] for v in names}
    for i, v in enumerate(names[1:], start=1):
        u = names[rng.randrange(i)]
        if len(parents[u]) < 2 and rng.random() < 0.5:
            parents[u].append(v)
        else:
            parents[v].append(u)
    return [(p, v) for v in names for p in parents[v]]


def grid_edges(names, width=5):
    """Rows of `width` nodes, each pointing right and down: treewidth 4."""
    return [(a, b) for i, a in enumerate(names) for j, b in enumerate(names)
            if (j == i + 1 and j % width) or j == i + width]


@pytest.mark.parametrize("edges", [polytree_edges, grid_edges], ids=["polytree", "grid"])
def test_query_at_both_caps_is_fast(edges):
    rng = random.Random(5)
    names = [f"P{i}" for i in range(MAX_NODES)]
    graph = CausalGraph(names, edges(names))
    states = tuple(str(s) for s in range(MAX_STATES))

    def dist():
        w = [rng.random() for _ in states]
        return tuple(x / sum(w) for x in w)

    scm = DiscreteScm(graph, {
        v: Cpt(v, graph.parents(v), states, {
            combo: dist() for combo in itertools.product(states, repeat=len(graph.parents(v)))
        })
        for v in names
    })
    evidence = {"P0": "1", names[-1]: "3"}
    got = cpu_bounded(
        lambda: [scm.query_conditional({"P9": s}, evidence) for s in states], 0.1
    )
    assert sum(got) == pytest.approx(1.0, rel=1e-12)
    assert len(set(got)) > 1


# -- sampling ---------------------------------------------------------------------


def test_sample_is_seed_deterministic():
    scm = fx.sprinkler_scm()
    a = scm.sample(500, seed=42)
    b = scm.sample(500, seed=42)
    c = scm.sample(500, seed=43)
    assert a == b
    assert a.rows != c.rows


def test_sample_columns_and_states():
    ds = fx.sprinkler_scm().sample(10, seed=0)
    assert ds.columns == ("Rain", "Sprinkler", "Wet")
    assert ds.states["Rain"] == ("0", "1")
    assert len(ds) == 10


def test_sample_latent_columns_hidden_by_default():
    scm = latent_confounder_scm()
    ds = scm.sample(50, seed=1)
    assert ds.columns == ("X", "Y")
    full = scm.sample(50, seed=1, include_latent=True)
    assert full.columns == ("U", "X", "Y")
    # the non-latent columns agree between the two draws of the same seed
    assert [r for r in ds.rows] == [(x, y) for _, x, y in full.rows]


def test_sample_frequencies_near_truth():
    scm = fx.sprinkler_scm()
    n = 20000
    ds = scm.sample(n, seed=7)
    rain = sum(1 for r in ds.project(["Rain"]) if r[0] == "1") / n
    # 4 sigma around 0.2
    assert abs(rain - 0.2) < 4 * (0.2 * 0.8 / n) ** 0.5


def test_sample_edge_cases():
    ds = fx.sprinkler_scm().sample(0, seed=0)
    assert len(ds) == 0
    assert ds.columns == ("Rain", "Sprinkler", "Wet")
    with pytest.raises(ValueError):
        fx.sprinkler_scm().sample(-1, seed=0)


def test_declared_states_cover_unseen_labels():
    rare = DiscreteScm(
        CausalGraph(["X"], []),
        {"X": Cpt("X", (), ("0", "1"), {(): (1.0, 0.0)})},
    )
    ds = rare.sample(100, seed=0)
    assert ds.states["X"] == ("0", "1")
    assert all(r == ("0",) for r in ds.rows)


# -- serialization -----------------------------------------------------------------


def test_scm_json_roundtrip():
    for scm in (
        fx.kidney_scm(),
        fx.sprinkler_scm(),
        fx.confounded_scm(),
        fx.covid_scm(),
        fx.xy_scm(),
        fx.collider_chain_scm(),
        latent_confounder_scm(),
    ):
        back = scm_from_json(scm_to_json(scm))
        assert back == scm


def test_scm_dict_shape():
    payload = scm_to_dict(latent_confounder_scm())
    assert set(payload) == {"nodes", "edges", "cpts", "latent"}
    assert set(payload["cpts"]) == {"X", "Y"}
    assert payload["latent"]["U"]["probs"] == [0.5, 0.5]
    # row keys name the parents explicitly
    assert "U=0,X=1" in payload["cpts"]["Y"]["rows"]


def test_scm_from_dict_rejects_bad_row_keys():
    payload = scm_to_dict(fx.xy_scm())
    rows = payload["cpts"]["Y"]["rows"]
    rows["Q=0"] = rows.pop("X=0")
    with pytest.raises(InvalidCpt):
        scm_from_dict(payload)


def test_scm_json_is_valid_json():
    json.loads(scm_to_json(fx.covid_scm()))
