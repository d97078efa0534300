"""Discrete SCM engine: CPT validation, exact inference, surgery, sampling."""

import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
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
import causalkit
from causalkit import fixtures as fx
from causalkit.scm import QUERY_BUDGET, _elimination_plan, draw_codes, layout

import sample_oracle


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


def test_coverage_check_takes_time_linear_in_the_rows(tmp_path):
    """Nine 5-state parents and one CPT row: refused without walking the
    5^9 parent combinations (the old check built them all, 10 s and 0.5 GB)."""
    path = tmp_path / "nine_parent_scm.json"
    path.write_text(nine_parent_model_json())
    out, _ = cpu_bounded_child(f"""
        from causalkit import InvalidCpt, scm_from_json
        try:
            scm_from_json(open({str(path)!r}).read())
        except InvalidCpt as exc:
            print(exc)
    """, 0.1)
    assert out == ["Y: 1 CPT rows do not cover the 1953125 combinations of parent states"]


def test_model_rejects_rows_outside_the_parent_space():
    graph = CausalGraph(["X", "Y"], [("X", "Y")])
    stray = Cpt("Y", ("X",), ("0", "1"), {("0",): (0.5, 0.5), ("2",): (0.5, 0.5)})
    with pytest.raises(InvalidCpt, match=r"row \('2',\) is outside"):
        DiscreteScm(graph, {"X": coin("X"), "Y": stray})


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


def test_intervene_keeps_untouched_tables_and_answers_as_a_rebuilt_model():
    """Only the do-node's arrays are laid out again; the model queries and
    samples as one built from the mutilated graph and a point-mass CPT."""
    scm = latent_confounder_scm()
    cut = scm.intervene({"X": "1"})
    for name in ("U", "Y"):
        assert cut.cpt(name) is scm.cpt(name)
        assert cut._nodes[name] is scm._nodes[name]
    built = DiscreteScm(
        scm.graph.mutilate({"X"}),
        {"X": Cpt.point_mass("X", ("0", "1"), "1"), "Y": scm.cpt("Y")},
        {"U": {"0": 0.5, "1": 0.5}},
    )
    assert cut == built
    for event in ({"Y": "1"}, {"U": "0", "Y": "0"}, {"X": "0"}, {"X": "1", "Y": "1"}):
        assert cut.probability(event) == built.probability(event)
    assert cut.sample(500, seed=4, include_latent=True) == built.sample(
        500, seed=4, include_latent=True)


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


def cpu_bounded_child(code, budget, setup=""):
    """(stdout lines, stderr) of the Python `code` run in a child process,
    failing the test once `code` has spent `budget` seconds of CPU time.
    The child caps its own CPU time (RLIMIT_CPU, whole seconds, counted
    after its imports and the untimed `setup` code), so the kernel also
    stops a loop inside one C call, which cpu_bounded's signal cannot
    interrupt. The package loads its modules on first use, so the untimed
    preamble imports every module behind `causalkit.__all__` as well as the
    CLI: a budget covers the call, not the imports it would trigger."""
    script = textwrap.dedent("""
        import math, resource, time
        import causalkit.cli
        for name in causalkit.__all__:
            getattr(causalkit, name)
    """) + textwrap.dedent(setup) + textwrap.dedent(f"""
        start = time.process_time()
        hard = resource.getrlimit(resource.RLIMIT_CPU)[1]
        resource.setrlimit(resource.RLIMIT_CPU, (math.ceil(start + {budget}), hard))
    """) + textwrap.dedent(code) + "\nprint(time.process_time() - start)\n"
    src = str(Path(causalkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    if proc.returncode == -signal.SIGXCPU:
        pytest.fail(f"call used more than {budget} s of CPU time")
    assert proc.returncode == 0, proc.stderr
    *out, spent = proc.stdout.splitlines()
    assert float(spent) < budget, f"call took {float(spent):.3f} s of CPU time"
    return out, proc.stderr


def chain_scm(n):
    """A binary chain C0 -> ... -> C(n-1) with random transition tables
    (random.Random(3)), and those tables as (state -> row) dicts."""
    rng = random.Random(3)
    names = [f"C{i}" for i in range(n)]
    cpts = {"C0": Cpt("C0", (), ("0", "1"), {(): (0.3, 0.7)})}
    trans = []
    for child, parent in zip(names[1:], names):
        rows = {s: (1 - p, p) for s, p in zip("01", (rng.random(), rng.random()))}
        trans.append(rows)
        cpts[child] = Cpt(child, (parent,), ("0", "1"),
                          {(s,): row for s, row in rows.items()})
    return DiscreteScm(CausalGraph(names, list(zip(names, names[1:]))), cpts), trans


def pushed(trans, start):
    """The distribution of a chain's last node, given start = C(k) = 0,
    pushed through the transition tables after C(k)."""
    vec = (1.0, 0.0)
    for rows in trans[start:]:
        vec = tuple(sum(vec[i] * rows["01"[i]][j] for i in (0, 1)) for j in (0, 1))
    return vec


def test_chain_query_at_the_node_cap_is_fast():
    scm, trans = chain_scm(20)
    got = cpu_bounded(
        lambda: scm.query_conditional({"C19": "1"}, {"C2": "0"}), 0.1
    )
    assert got == pytest.approx(pushed(trans, 2)[1], rel=1e-12)


def test_forty_node_chain_constructs_samples_and_queries():
    # 20 nodes was a hard cap once; a chain's queries stay cheap at any length
    scm, trans = chain_scm(40)
    ds = scm.sample(50, seed=1)
    assert sorted(ds.columns) == sorted(f"C{i}" for i in range(40)) and len(ds) == 50
    got = cpu_bounded(
        lambda: scm.query_conditional({"C39": "1"}, {"C2": "0"}), 0.1
    )
    assert got == pytest.approx(pushed(trans, 2)[1], rel=1e-12)


def test_six_state_model_constructs_samples_and_queries():
    # 5 states was a hard cap once
    states = tuple("abcdef")
    graph = CausalGraph(["X", "Y"], [("X", "Y")])
    scm = DiscreteScm(graph, {
        "X": Cpt("X", (), states, {(): (0.1, 0.2, 0.3, 0.2, 0.1, 0.1)}),
        "Y": Cpt("Y", ("X",), ("0", "1"), {
            (s,): (i / 5, 1 - i / 5) for i, s in enumerate(states)
        }),
    })
    ds = scm.sample(200, seed=2)
    assert ds.states["X"] == states and len(ds) == 200
    assert scm.probability({"Y": "0"}) == pytest.approx(
        enumerate_probability(scm, {"Y": "0"}), rel=1e-12)


def test_query_budget_is_checked_before_any_step_runs():
    """_elimination_plan's cost is the sum, over its steps, of the
    configurations each merges: a single step of exactly QUERY_BUDGET fits,
    one entry more does not."""
    assert _elimination_plan([("A",)], {"A": QUERY_BUDGET}) == [([0], ())]
    with pytest.raises(ModelTooLarge):
        _elimination_plan([("A",)], {"A": QUERY_BUDGET + 1})
    half = QUERY_BUDGET // 2
    with pytest.raises(ModelTooLarge):  # A costs 2 * half, then B costs half
        _elimination_plan([("A", "B")], {"A": 2, "B": half})


def test_hub_query_sums_the_leaves_out_first():
    """A root H with 30 children C_i, each observed through a child D_i:
    summing H out first would merge H and every C_i, 2^31 entries, past the
    budget; min-weight order sums each C_i out on its own. With 61 kept
    nodes the query also needs more variables than einsum has labels."""
    rng = random.Random(7)
    kids = [f"C{i:02d}" for i in range(30)]
    cpts = {"H": Cpt("H", (), ("0", "1"), {(): (0.4, 0.6)})}
    flip = {}
    for c in kids:
        d = "D" + c[1:]
        flip[c] = [rng.random() for _ in "01"]
        cpts[c] = Cpt(c, ("H",), ("0", "1"),
                      {(h,): (1 - p, p) for h, p in zip("01", flip[c])})
        cpts[d] = Cpt(d, (c,), ("0", "1"), {("0",): (0.9, 0.1), ("1",): (0.2, 0.8)})
    graph = CausalGraph(list(cpts),
                        [("H", c) for c in kids] + [(c, "D" + c[1:]) for c in kids])
    scm = DiscreteScm(graph, cpts)
    event = {"D" + c[1:]: "1" for c in kids}
    got = cpu_bounded(lambda: scm.probability(event), 0.1)
    want = sum(
        ph * math.prod((1 - flip[c][h]) * 0.1 + flip[c][h] * 0.8 for c in kids)
        for h, ph in enumerate((0.4, 0.6))
    )
    assert got == pytest.approx(want, rel=1e-12)


def dense_scm(parents=4):
    """20 nodes D0..D19 with 5 states, each with `parents` earlier parents
    drawn by random.Random(0). P(D19=1) keeps every node. At 4 parents its
    min-weight elimination order has induced width 11 (one step spans 5^12
    configurations) and visits 6.5e8 table entries, ten times QUERY_BUDGET;
    at 5 parents, width 7 and 5.7e5 entries."""
    rng = random.Random(0)
    names = [f"D{i}" for i in range(20)]
    states = tuple("01234")
    graph = CausalGraph(names, [
        (names[j], names[i])
        for i in range(20) for j in sorted(rng.sample(range(i), min(parents, i)))
    ])

    def dist():
        w = [rng.random() for _ in states]
        return tuple(x / sum(w) for x in w)

    return DiscreteScm(graph, {
        v: Cpt(v, graph.parents(v), states, {
            combo: dist() for combo in itertools.product(states, repeat=len(graph.parents(v)))
        })
        for v in names
    })


def nine_parent_model_json():
    """A model file of about 1.6 kB: Y with nine 5-state root parents and
    a single CPT row, where the parent space holds 5^9 combinations."""
    parents = [f"P{i}" for i in range(9)]
    cpts = {p: {"parents": [], "states": list("01234"), "rows": {"": [0.2] * 5}}
            for p in parents}
    cpts["Y"] = {"parents": parents, "states": ["0", "1"],
                 "rows": {",".join(f"{p}=0" for p in parents): [0.5, 0.5]}}
    return json.dumps({
        "nodes": [{"name": n, "kind": "observed"} for n in parents + ["Y"]],
        "edges": [[p, "Y"] for p in parents],
        "cpts": cpts,
    }, indent=2)


def test_dense_model_query_is_refused_by_its_plan(tmp_path):
    path = tmp_path / "dense_scm.json"
    path.write_text(scm_to_json(dense_scm()))
    out, _ = cpu_bounded_child(f"""
        from causalkit import ModelTooLarge, scm_from_json
        model = scm_from_json(open({str(path)!r}).read())
        try:
            model.probability({{"D19": "1"}})
        except ModelTooLarge as exc:
            print(type(exc).__name__)
    """, 5.0)
    assert out == ["ModelTooLarge"]


def test_dense_but_narrow_model_is_answered():
    scm = dense_scm(parents=5)
    got = cpu_bounded(lambda: [scm.probability({"D19": s}) for s in "01234"], 1.0)
    assert sum(got) == pytest.approx(1.0, rel=1e-12)


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
    names = [f"P{i}" for i in range(20)]
    graph = CausalGraph(names, edges(names))
    states = tuple(str(s) for s in range(5))

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


# sorted order differs from declared order: "10" < "2", "B" < "a"
LABELS = ("2", "10", "a", "B", "1", "x")


@st.composite
def sampler_cases(draw):
    """A CPT with 0-3 parents and 1-4 states each, some entries zero, whose
    rows may cover parent states the records' columns do not declare, and
    records whose parent codes leave some declared states unheld."""
    def labels():
        return tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                                   unique=True)))

    declared = [labels() for _ in range(draw(st.integers(0, 3)))]
    extra = [draw(st.lists(st.sampled_from([s for s in LABELS if s not in d]),
                           max_size=1)) for d in declared]
    states = labels()

    def dist():
        w = [draw(st.sampled_from([0, 0, 1, 3])) for _ in states]
        w[draw(st.integers(0, len(w) - 1))] += 1
        return tuple(x / sum(w) for x in w)

    cpt = Cpt("V", tuple(f"P{i}" for i in range(len(declared))), states, {
        combo: dist()
        for combo in itertools.product(*(d + tuple(e) for d, e in zip(declared, extra)))
    })
    n = draw(st.sampled_from([0, 1, 2, 3000]) | st.integers(0, 3000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    dtype = draw(st.sampled_from([np.int8, np.int64]))
    codes = [
        gen.choice(draw(st.lists(st.integers(0, len(d) - 1), min_size=1, unique=True)),
                   size=n).astype(dtype)
        for d in declared
    ]
    return cpt, declared, codes, n, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(sampler_cases())
def test_sampler_matches_the_per_row_oracle(case):
    """Codes and the generator's next draw agree with the per-row loop."""
    cpt, declared, codes, n, seed = case
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = sample_oracle.draw_codes(cpt, codes, declared, n, want_rng)
    got = draw_codes(layout(cpt, declared), codes, n, got_rng)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_rng.random() == want_rng.random()


WIDE_MODEL = """
    import itertools
    from causalkit import CausalGraph, Cpt, DiscreteScm
    parents = tuple(f"P{i}" for i in range(7))
    five = tuple("01234")
    cpts = {p: Cpt(p, (), five, {(): (0.2,) * 5}) for p in parents}
    cpts["Y"] = Cpt("Y", parents, ("0", "1"), {
        combo: (1 - i % 7 / 8, i % 7 / 8)
        for i, combo in enumerate(itertools.product(five, repeat=7))
    })
    graph = CausalGraph([*parents, "Y"], [(p, "Y") for p in parents])
    scm = DiscreteScm(graph, cpts)
"""


def test_wide_table_samples_and_queries_in_time():
    """Seven 5-state roots feeding a binary Y, 78,125 CPT rows. Sampling
    reads the CDF and queries slice the table built at construction; the
    per-row sampler spent 1 s on sample(10) alone."""
    out, _ = cpu_bounded_child("""
        scm.sample(10, seed=0)
        scm.sample(1000, seed=1)
        print(repr([scm.probability({"Y": "1"}) for _ in range(20)][-1]))
    """, 0.25, setup=WIDE_MODEL)
    want = sum(i % 7 / 8 for i in range(5**7)) / 5**7
    assert float(out[0]) == pytest.approx(want, rel=1e-12)


def test_wide_table_draws_many_records_in_time():
    """sample(100_000) on the wide model sorts the records by configuration
    once; one mask and one choice per configuration present took about 4 s."""
    out, _ = cpu_bounded_child("""
        ds = scm.sample(100_000, seed=2)
        print(len(ds), int(ds.codes["Y"].sum()))
    """, 0.5, setup=WIDE_MODEL)
    n, ones = map(int, out[0].split())
    want = sum(i % 7 / 8 for i in range(5**7)) / 5**7
    assert n == 100_000
    assert abs(ones / n - want) < 4 * (want * (1 - want) / n) ** 0.5


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
