"""M-graphs: mechanism classification, masking, recovery, testability."""

import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import (
    CausalGraph,
    Cpt,
    DiscreteDataset,
    EmptySelection,
    EmptyStratum,
    InvalidCpt,
    Mechanism,
    MGraph,
    NOT_RECOVERABLE,
    Node,
    NodeKind,
    NotRecoverable,
    OverlappingSets,
    ProbTable,
    SchemaMismatch,
    UnknownNode,
    UnmatchedPattern,
    apply_missingness,
    classify_mechanism,
    empirical_joint,
    is_ci_testable,
    mgraph_from_dict,
    mgraph_to_dict,
    recover_joint,
)
from causalkit import fixtures as fx
from causalkit.missing import (
    mask_cpts_from_dict,
    mask_cpts_to_dict,
)

import sample_oracle
from count_oracle import project as oracle_project

XY_TRUTH = ProbTable(
    ("X", "Y"),
    {
        ("0", "0"): 0.6 * 0.7,
        ("0", "1"): 0.6 * 0.3,
        ("1", "0"): 0.4 * 0.2,
        ("1", "1"): 0.4 * 0.8,
    },
)

BIN = ("0", "1")


def masked_ds(columns, rows):
    return DiscreteDataset(columns, rows, states={c: BIN for c in columns})


# -- mechanism classification -----------------------------------------------------


def test_four_canonical_mechanisms():
    assert classify_mechanism(fx.mgraph_mcar()) is Mechanism.MCAR
    assert classify_mechanism(fx.mgraph_mar()) is Mechanism.MAR
    assert classify_mechanism(fx.mgraph_self_masking()) is Mechanism.MNAR
    assert classify_mechanism(fx.mgraph_two_sided()) is Mechanism.MNAR


def test_no_partial_variables_is_vacuously_mcar():
    mg = MGraph(CausalGraph(["X", "Y"], [("X", "Y")]), {})
    assert classify_mechanism(mg) is Mechanism.MCAR


def test_latent_cause_of_indicator_is_mnar():
    # a hidden factor driving both the outcome and its indicator
    graph = CausalGraph(
        [
            "X",
            "Y",
            Node("U", NodeKind.LATENT),
            Node("Ry", NodeKind.MISS_INDICATOR),
            Node("Ystar", NodeKind.PROXY),
        ],
        [
            ("X", "Y"),
            ("U", "Y"),
            ("U", "Ry"),
            ("Y", "Ystar"),
            ("Ry", "Ystar"),
        ],
    )
    mg = MGraph(graph, {"Y": ("Ry", "Ystar")})
    assert classify_mechanism(mg) is Mechanism.MNAR


# -- m-graph validation -------------------------------------------------------------


def test_mgraph_validation_errors():
    base = fx.mgraph_mar()
    with pytest.raises(UnknownNode):
        MGraph(base.graph, {"Q": ("Ry", "Ystar")})
    with pytest.raises(SchemaMismatch):
        # indicator bound as if it were the partial variable
        MGraph(base.graph, {"Ry": ("Y", "Ystar")})
    with pytest.raises(SchemaMismatch, match="'Ystar' must be a miss_indicator node"):
        MGraph(base.graph, {"Y": ("Ystar", "Ry")})
    with pytest.raises(SchemaMismatch, match="'X' must be a proxy node"):
        MGraph(base.graph, {"Y": ("Ry", "X")})
    # stray (unbound) indicator/proxy nodes are rejected
    with pytest.raises(SchemaMismatch):
        MGraph(base.graph, {})


def test_mgraph_proxy_wiring_checked():
    graph = CausalGraph(
        [
            "X",
            "Y",
            Node("Ry", NodeKind.MISS_INDICATOR),
            Node("Ystar", NodeKind.PROXY),
        ],
        [("X", "Y"), ("Y", "Ystar")],  # proxy missing its indicator parent
    )
    with pytest.raises(SchemaMismatch):
        MGraph(graph, {"Y": ("Ry", "Ystar")})


def test_mgraph_rejects_indicator_causing_substance():
    graph = CausalGraph(
        [
            "X",
            "Y",
            Node("Ry", NodeKind.MISS_INDICATOR),
            Node("Ystar", NodeKind.PROXY),
        ],
        [
            ("X", "Y"),
            ("Y", "Ystar"),
            ("Ry", "Ystar"),
            ("Ry", "X"),  # indicators must not cause substantive variables
        ],
    )
    with pytest.raises(SchemaMismatch):
        MGraph(graph, {"Y": ("Ry", "Ystar")})


def test_mgraph_rejects_shared_indicator():
    graph = CausalGraph(
        [
            "X",
            "Y",
            Node("R", NodeKind.MISS_INDICATOR),
            Node("Xstar", NodeKind.PROXY),
            Node("Ystar", NodeKind.PROXY),
        ],
        [
            ("X", "Y"),
            ("X", "Xstar"),
            ("R", "Xstar"),
            ("Y", "Ystar"),
            ("R", "Ystar"),
        ],
    )
    with pytest.raises(SchemaMismatch):
        MGraph(graph, {"X": ("R", "Xstar"), "Y": ("R", "Ystar")})


def test_mgraph_accessors():
    mg = fx.mgraph_two_sided()
    assert mg.partially_observed() == ("X", "Y")
    assert mg.fully_observed() == ()
    assert mg.indicators() == ("Rx", "Ry")
    assert mg.indicator_of("Y") == "Ry"
    mar = fx.mgraph_mar()
    assert mar.fully_observed() == ("X",)


def test_mgraph_json_roundtrip():
    for mg in (
        fx.mgraph_mcar(),
        fx.mgraph_mar(),
        fx.mgraph_self_masking(),
        fx.mgraph_two_sided(),
    ):
        assert mgraph_from_dict(json.loads(json.dumps(mgraph_to_dict(mg)))) == mg
        assert mgraph_from_dict(mgraph_to_dict(mg)) == mg


# -- masking --------------------------------------------------------------------------


def test_apply_missingness_deterministic_and_consistent():
    ds = fx.xy_scm().sample(2000, seed=11)
    mg = fx.mgraph_mar()
    cpts = fx.mask_cpts(mg)
    a = apply_missingness(ds, mg, cpts, seed=5)
    b = apply_missingness(ds, mg, cpts, seed=5)
    c = apply_missingness(ds, mg, cpts, seed=6)
    assert a == b
    assert a.rows != c.rows
    assert a.columns == ("X", "Y", "Ry")
    assert a.states["Ry"] == BIN
    yi, ri = a.column_index("Y"), a.column_index("Ry")
    for row in a.rows:
        assert (row[yi] is None) == (row[ri] == "1")


def test_mask_rates_follow_the_mechanism():
    ds = fx.xy_scm().sample(20000, seed=3)
    mar = apply_missingness(ds, fx.mgraph_mar(), fx.mask_cpts(fx.mgraph_mar()), seed=9)
    xi, ri = mar.column_index("X"), mar.column_index("Ry")
    by_x = {"0": [0, 0], "1": [0, 0]}
    for row in mar.rows:
        by_x[row[xi]][row[ri] == "1"] += 1
    rate0 = by_x["0"][1] / sum(by_x["0"])
    rate1 = by_x["1"][1] / sum(by_x["1"])
    assert abs(rate0 - 0.05) < 0.01
    assert abs(rate1 - 0.60) < 0.02


def test_apply_missingness_input_checks():
    ds = fx.xy_scm().sample(100, seed=0)
    mg = fx.mgraph_mar()
    cpts = fx.mask_cpts(mg)
    with pytest.raises(SchemaMismatch):
        apply_missingness(ds, mg, {}, seed=0)
    bad_states = {
        "Ry": Cpt("Ry", ("X",), ("no", "yes"),
                  {("0",): (0.9, 0.1), ("1",): (0.5, 0.5)})
    }
    with pytest.raises(InvalidCpt):
        apply_missingness(ds, mg, bad_states, seed=0)
    bad_parents = {
        "Ry": Cpt("Ry", (), BIN, {(): (0.75, 0.25)})
    }
    with pytest.raises(SchemaMismatch):
        apply_missingness(ds, mg, bad_parents, seed=0)
    misfiled = {"Ry": Cpt("Rx", ("X",), BIN, {("0",): (0.9, 0.1), ("1",): (0.5, 0.5)})}
    with pytest.raises(SchemaMismatch, match="CPT under key 'Ry' is for node 'Rx'"):
        apply_missingness(ds, mg, misfiled, seed=0)
    # Ry's parent X is not a column of a table that holds only Y
    only_y = DiscreteDataset(["Y"], [("0",), ("1",)])
    with pytest.raises(SchemaMismatch, match="indicator parent 'X' is not a dataset column"):
        apply_missingness(only_y, mg, cpts, seed=0)
    already_masked = apply_missingness(ds, mg, cpts, seed=0)
    with pytest.raises(SchemaMismatch):
        apply_missingness(already_masked, mg, cpts, seed=0)


def test_masking_needs_a_row_for_every_declared_parent_state():
    """mgraph_mar's Ry table has rows for X = 0 and 1 only. Records with
    X = 2 were once never masked, and nothing said so."""
    ds = DiscreteDataset(["X", "Y"], [("2", "0"), ("0", "1"), ("2", "1")] * 20)
    mg = fx.mgraph_mar()
    with pytest.raises(InvalidCpt, match=r"^Ry: no CPT row for parent states \('2',\)$"):
        apply_missingness(ds, mg, fx.mask_cpts(mg), seed=0)
    # declared is enough: no record needs to hold the state
    unheld = DiscreteDataset(["X", "Y"], [("0", "1")], states={"X": ("0", "1", "2"), "Y": BIN})
    with pytest.raises(InvalidCpt, match="no CPT row"):
        apply_missingness(unheld, mg, fx.mask_cpts(mg), seed=0)


def test_mask_rows_for_undeclared_parent_states_go_unused():
    ds = fx.xy_scm().sample(500, seed=1)
    mg = fx.mgraph_mar()
    cpts = fx.mask_cpts(mg)
    masked = apply_missingness(ds, mg, cpts, seed=4)
    # one label sorts before the declared ones, one after
    extra = {**cpts["Ry"].rows, ("+",): (0.0, 1.0), ("2",): (0.5, 0.5)}
    wider = {"Ry": Cpt("Ry", ("X",), BIN, extra)}
    assert apply_missingness(ds, mg, wider, seed=4) == masked


def test_mask_positions_ignore_outcome_for_mcar_and_mar():
    """Flipping outcome values at to-be-masked cells changes nothing the
    indicators can see, so the masked datasets coincide exactly."""
    src = fx.xy_scm().sample(3000, seed=21)
    for mg in (fx.mgraph_mcar(), fx.mgraph_mar()):
        cpts = fx.mask_cpts(mg)
        masked = apply_missingness(src, mg, cpts, seed=13)
        ri = masked.column_index("Ry")
        yi = src.column_index("Y")
        flipped_rows = [
            tuple(
                ("1" if v == "0" else "0") if (j == yi and m[ri] == "1") else v
                for j, v in enumerate(row)
            )
            for row, m in zip(src.rows, masked.rows)
        ]
        poisoned = DiscreteDataset(src.columns, flipped_rows, src.states)
        assert apply_missingness(poisoned, mg, cpts, seed=13) == masked


@st.composite
def masking_cases(draw):
    """One of the fixture m-graphs; X and Y declaring 1-4 states each in an
    order that need not be sorted ("10" < "2"), some of them held by no
    record; and indicator rates, some 0 or 1, with a row for a parent state
    the data does not declare."""
    mg = draw(st.sampled_from([fx.mgraph_mcar, fx.mgraph_mar, fx.mgraph_self_masking,
                               fx.mgraph_two_sided]))()
    states = {v: tuple(draw(st.lists(st.sampled_from(["1", "0", "10", "2"]), min_size=1,
                                     max_size=4, unique=True)))
              for v in ("X", "Y")}
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    cpts = {}
    for r in mg.indicators():
        parents = mg.graph.parents(r)
        combos = itertools.product(*(states[p] + ("9",) for p in parents))
        cpts[r] = Cpt(r, parents, BIN, {combo: (1 - p, p) for combo in combos
                                        for p in [draw(rate)]})
    n = draw(st.integers(0, 400))
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    held = {v: draw(st.lists(st.sampled_from(s), min_size=1, unique=True))
            for v, s in states.items()}
    rows = zip(*(gen.choice(held[v], size=n).tolist() for v in ("X", "Y")))
    ds = DiscreteDataset(["X", "Y"], rows, states=states)
    return mg, cpts, ds, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(masking_cases())
def test_masking_matches_the_per_row_oracle(case):
    """Each indicator column is the per-row loop's draw, taken in
    topological order from one generator, which both leave in the same
    state; exactly the cells whose indicator reads "1" are blank."""
    mg, cpts, ds, seed = case
    # default_rng hands a Generator back unaltered, so the test can see
    # where the masking left the stream
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    masked = apply_missingness(ds, mg, cpts, got_rng)
    for r in (n for n in mg.graph.topological_order() if n in mg.indicators()):
        parents = cpts[r].parents
        want = sample_oracle.draw_codes(
            cpts[r], [ds.codes[p] for p in parents], [ds.states[p] for p in parents],
            len(ds), want_rng)
        assert masked.states[r] == BIN and masked.codes[r].tolist() == want.tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for v, (r, _) in mg.partial.items():
        fired = masked.codes[r] == 1
        assert ((masked.codes[v] == -1) == fired).all()
        assert (masked.codes[v][~fired] == ds.codes[v][~fired]).all()


# -- recovery ---------------------------------------------------------------------------


def test_recover_family_a_hand_computed():
    ds = masked_ds(
        ["X", "Y", "Ry"],
        [
            ("0", "0", "0"),
            ("0", "1", "0"),
            ("1", "1", "0"),
            ("1", None, "1"),
        ],
    )
    table = recover_joint(fx.mgraph_mcar(), ds, ["X", "Y"])
    assert table.prob(("0", "0")) == pytest.approx(1 / 3)
    assert table.prob(("0", "1")) == pytest.approx(1 / 3)
    assert table.prob(("1", "1")) == pytest.approx(1 / 3)
    assert table.prob(("1", "0")) == 0.0


def test_recover_family_a_is_count_ratio():
    # each cell is its complete-row count divided once by the total, so the
    # result is the correctly rounded c / total, not a running sum of 1/total
    mg = fx.mgraph_mcar()
    masked = apply_missingness(fx.xy_scm().sample(100_000, 3), mg, fx.mask_cpts(mg), 5)
    cells = Counter(
        (x, y) for x, y, r in oracle_project(masked, ["X", "Y", "Ry"]) if r == "0"
    )
    total = sum(cells.values())
    table = recover_joint(mg, masked, ["X", "Y"])
    assert table.entries == {key: c / total for key, c in cells.items()}
    assert table.prob(("0", "0")) == 0.41884363171082795


def test_recover_family_b_hand_computed():
    ds = masked_ds(
        ["X", "Y", "Ry"],
        [
            ("0", "0", "0"),
            ("0", "1", "0"),
            ("1", "1", "0"),
            ("1", None, "1"),
        ],
    )
    table = recover_joint(fx.mgraph_mar(), ds, ["X", "Y"])
    # weights use all rows: P(X=1) = 1/2 even though one Y cell is hidden
    assert table.prob(("0", "0")) == pytest.approx(0.25)
    assert table.prob(("0", "1")) == pytest.approx(0.25)
    assert table.prob(("1", "1")) == pytest.approx(0.5)


def test_recover_on_a_table_without_rows_is_an_empty_selection():
    empty = masked_ds(["X", "Y", "Ry"], [])
    with pytest.raises(EmptySelection, match=r"no complete rows over \['X'\]"):
        recover_joint(fx.mgraph_mar(), empty, ["X", "Y"])
    for mg in (fx.mgraph_mcar(), fx.mgraph_two_sided()):
        with pytest.raises(EmptyStratum):
            recover_joint(mg, masked_ds(["X", "Y", "Rx", "Ry"], []), ["X", "Y"])


def test_recover_refuses_a_bare_string_of_names():
    # a string is a sequence of names to Python: "XY" matched family a over X, Y
    ds = masked_ds(["X", "Y", "Ry"], [("0", "0", "0"), ("1", None, "1")])
    for mg in (fx.mgraph_mcar(), fx.mgraph_mar(), fx.mgraph_self_masking()):
        with pytest.raises(SchemaMismatch, match="not the string 'XY'"):
            recover_joint(mg, ds, "XY")


def test_recover_skips_a_declared_cause_state_no_row_holds():
    rows = [("0", "0", "0"), ("0", "1", "0"), ("1", "1", "0"), ("1", None, "1")]
    declared = DiscreteDataset(
        ["X", "Y", "Ry"], rows, states={"X": ("0", "1", "2"), "Y": BIN, "Ry": BIN}
    )
    table = recover_joint(fx.mgraph_mar(), declared, ["X", "Y"])
    assert table == recover_joint(fx.mgraph_mar(), masked_ds(["X", "Y", "Ry"], rows),
                                  ["X", "Y"])
    assert table.prob(("2", "0")) == table.prob(("2", "1")) == 0.0


def test_recover_family_d_hand_computed():
    ds = masked_ds(
        ["X", "Y", "Rx", "Ry"],
        [
            ("0", "0", "0", "0"),
            ("0", "1", "0", "0"),
            ("1", "1", "0", "0"),
            (None, None, "1", "1"),
        ],
    )
    table = recover_joint(fx.mgraph_two_sided(), ds, ["X", "Y"])
    assert table.prob(("0", "0")) == pytest.approx(1 / 3)
    assert table.prob(("0", "1")) == pytest.approx(1 / 3)
    assert table.prob(("1", "1")) == pytest.approx(1 / 3)


def test_recover_respects_requested_variable_order():
    ds = masked_ds(
        ["X", "Y", "Ry"],
        [("0", "0", "0"), ("0", "1", "0"), ("1", "1", "0")],
    )
    fwd = recover_joint(fx.mgraph_mar(), ds, ["X", "Y"])
    rev = recover_joint(fx.mgraph_mar(), ds, ["Y", "X"])
    assert rev.variables == ("Y", "X")
    assert rev.prob(("1", "0")) == fwd.prob(("0", "1"))


def test_self_masking_not_recoverable():
    ds = masked_ds(["X", "Y", "Ry"], [("0", "0", "0")])
    result = recover_joint(fx.mgraph_self_masking(), ds, ["X", "Y"])
    assert result is NOT_RECOVERABLE
    assert isinstance(result, NotRecoverable)
    assert repr(result) == "NOT_RECOVERABLE"
    assert NotRecoverable() is NOT_RECOVERABLE


def test_recovery_close_to_truth_on_sampled_data():
    ds = fx.xy_scm().sample(20000, seed=11)
    for mg in (fx.mgraph_mcar(), fx.mgraph_mar(), fx.mgraph_two_sided()):
        masked = apply_missingness(ds, mg, fx.mask_cpts(mg), seed=5)
        table = recover_joint(mg, masked, ["X", "Y"])
        assert table.l1_distance(XY_TRUTH) <= 0.05


def test_complete_case_bias_under_mar():
    ds = fx.xy_scm().sample(20000, seed=11)
    mg = fx.mgraph_mar()
    masked = apply_missingness(ds, mg, fx.mask_cpts(mg), seed=5)
    complete = empirical_joint(masked, ["X", "Y"])
    assert complete.l1_distance(XY_TRUTH) > 0.05
    recovered = recover_joint(mg, masked, ["X", "Y"])
    assert recovered.l1_distance(XY_TRUTH) <= 0.05


def test_recovery_ignores_cell_contents_behind_the_indicator():
    """Bogus values planted where the indicator says missing must not leak
    into the estimate: the estimator reads the indicator, not the cell."""
    honest_y = masked_ds(
        ["X", "Y", "Ry"],
        [
            ("0", "0", "0"),
            ("0", "1", "0"),
            ("1", "1", "0"),
            ("1", None, "1"),
        ],
    )
    planted_y = masked_ds(
        ["X", "Y", "Ry"],
        [
            ("0", "0", "0"),
            ("0", "1", "0"),
            ("1", "1", "0"),
            ("1", "0", "1"),
        ],
    )
    for mg in (fx.mgraph_mcar(), fx.mgraph_mar()):
        a = recover_joint(mg, honest_y, ["X", "Y"])
        b = recover_joint(mg, planted_y, ["X", "Y"])
        assert a.entries == b.entries

    honest_d = masked_ds(
        ["X", "Y", "Rx", "Ry"],
        [
            ("0", "0", "0", "0"),
            ("0", "1", "0", "0"),
            ("1", "1", "0", "0"),
            ("1", None, "0", "1"),
            (None, None, "1", "1"),
        ],
    )
    planted_d = masked_ds(
        ["X", "Y", "Rx", "Ry"],
        [
            ("0", "0", "0", "0"),
            ("0", "1", "0", "0"),
            ("1", "1", "0", "0"),
            ("1", "0", "0", "1"),
            ("0", "1", "1", "1"),
        ],
    )
    d_honest = recover_joint(fx.mgraph_two_sided(), honest_d, ["X", "Y"])
    d_planted = recover_joint(fx.mgraph_two_sided(), planted_d, ["X", "Y"])
    assert d_honest.entries == d_planted.entries


def test_recover_empty_stratum():
    # X=1 rows exist, but every one of them hides its outcome
    ds = masked_ds(
        ["X", "Y", "Ry"],
        [("0", "0", "0"), ("1", None, "1"), ("1", None, "1")],
    )
    with pytest.raises(EmptyStratum):
        recover_joint(fx.mgraph_mar(), ds, ["X", "Y"])


def test_unmatched_patterns():
    ds = masked_ds(["X", "Y", "Ry"], [("0", "0", "0")])
    mg = fx.mgraph_mar()
    with pytest.raises(UnmatchedPattern):
        recover_joint(mg, ds, ["X"])
    with pytest.raises(UnmatchedPattern):
        recover_joint(mg, ds, ["X", "Ry"])

    # no edge between the two substantive variables
    graph = CausalGraph(
        [
            "X",
            "Y",
            Node("Ry", NodeKind.MISS_INDICATOR),
            Node("Ystar", NodeKind.PROXY),
        ],
        [("Y", "Ystar"), ("Ry", "Ystar")],
    )
    floating = MGraph(graph, {"Y": ("Ry", "Ystar")})
    with pytest.raises(UnmatchedPattern):
        recover_joint(floating, ds, ["X", "Y"])

    # indicator driven by both variables fits none of the families
    graph2 = CausalGraph(
        [
            "X",
            "Y",
            Node("Ry", NodeKind.MISS_INDICATOR),
            Node("Ystar", NodeKind.PROXY),
        ],
        [
            ("X", "Y"),
            ("X", "Ry"),
            ("Y", "Ry"),
            ("Y", "Ystar"),
            ("Ry", "Ystar"),
        ],
    )
    both = MGraph(graph2, {"Y": ("Ry", "Ystar")})
    with pytest.raises(UnmatchedPattern):
        recover_joint(both, ds, ["X", "Y"])

    # two-sided family requires a root R_x
    graph3 = CausalGraph(
        [
            "X",
            "Y",
            Node("Rx", NodeKind.MISS_INDICATOR),
            Node("Ry", NodeKind.MISS_INDICATOR),
            Node("Xstar", NodeKind.PROXY),
            Node("Ystar", NodeKind.PROXY),
        ],
        [
            ("X", "Y"),
            ("X", "Ry"),
            ("Y", "Ystar"),
            ("Ry", "Ystar"),
            ("X", "Rx"),
            ("X", "Xstar"),
            ("Rx", "Xstar"),
        ],
    )
    wired = MGraph(graph3, {"X": ("Rx", "Xstar"), "Y": ("Ry", "Ystar")})
    with pytest.raises(UnmatchedPattern):
        recover_joint(wired, ds, ["X", "Y"])

    # a latent node fits none of the families
    latent = CausalGraph(
        ["X", "Y", Node("U", NodeKind.LATENT), Node("Ry", NodeKind.MISS_INDICATOR),
         Node("Ystar", NodeKind.PROXY)],
        [("X", "Y"), ("U", "Y"), ("U", "Ry"), ("Y", "Ystar"), ("Ry", "Ystar")],
    )
    with pytest.raises(UnmatchedPattern, match="latent nodes present"):
        recover_joint(MGraph(latent, {"Y": ("Ry", "Ystar")}), ds, ["X", "Y"])
    # a partially observed cause needs a partially observed outcome too
    cause_only = CausalGraph(
        ["X", "Y", Node("Rx", NodeKind.MISS_INDICATOR), Node("Xstar", NodeKind.PROXY)],
        [("X", "Y"), ("X", "Xstar"), ("Rx", "Xstar")],
    )
    with pytest.raises(UnmatchedPattern, match=r"unsupported partial set \['X'\]"):
        recover_joint(MGraph(cause_only, {"X": ("Rx", "Xstar")}), ds, ["X", "Y"])


# -- testability -----------------------------------------------------------------------


def test_testability_on_two_sided_fixture():
    mg = fx.mgraph_two_sided()

    plain = is_ci_testable(mg, ["X"], ["Y"])
    assert not plain.testable
    assert plain.condition1 and not plain.condition2 and not plain.condition3
    assert plain.r_x == frozenset({"Rx"})
    assert plain.r_y == frozenset({"Ry"})

    # augmenting the statement with the right indicators restores testability
    full = is_ci_testable(mg, ["X"], ["Y", "Ry"], ["Rx"])
    assert full.testable
    assert full.condition1 and full.condition2 and full.condition3

    # only the first condition fails: y consists of x's own indicator
    c1 = is_ci_testable(mg, ["X"], ["Rx"])
    assert (c1.condition1, c1.condition2, c1.condition3) == (False, True, True)

    # only the second fails: x's indicator is outside the statement
    c2 = is_ci_testable(mg, ["X"], ["Y"], ["Ry"])
    assert (c2.condition1, c2.condition2, c2.condition3) == (True, False, True)


def test_testability_on_mar_fixture():
    mg = fx.mgraph_mar()
    assert not is_ci_testable(mg, ["X"], ["Y"]).testable
    assert is_ci_testable(mg, ["X"], ["Y", "Ry"]).testable


def test_fully_observed_statements_are_testable():
    mg = fx.mgraph_mar()
    result = is_ci_testable(mg, ["X"], ["Ry"])
    assert result.testable
    assert result.r_x == frozenset()


def test_testability_input_validation():
    mg = fx.mgraph_mar()
    with pytest.raises(UnknownNode):
        is_ci_testable(mg, ["Ystar"], ["X"])
    with pytest.raises(UnknownNode):
        is_ci_testable(mg, ["Q"], ["X"])
    with pytest.raises(OverlappingSets):
        is_ci_testable(mg, ["X"], ["X"])


# -- fixture mask CPTs ------------------------------------------------------------------


def test_mask_cpts_shapes():
    mcar = fx.mask_cpts(fx.mgraph_mcar())
    assert mcar["Ry"].parents == ()
    assert mcar["Ry"].rows[()] == (0.75, 0.25)
    mar = fx.mask_cpts(fx.mgraph_mar())
    assert mar["Ry"].parents == ("X",)
    assert mar["Ry"].rows[("0",)] == (0.95, 0.05)
    assert mar["Ry"].rows[("1",)] == (0.4, 0.6)
    two = fx.mask_cpts(fx.mgraph_two_sided())
    assert set(two) == {"Rx", "Ry"}


def test_mask_cpts_codec_roundtrip():
    for builder in (
        fx.mgraph_mcar,
        fx.mgraph_mar,
        fx.mgraph_self_masking,
        fx.mgraph_two_sided,
    ):
        cpts = fx.mask_cpts(builder())
        assert mask_cpts_from_dict(mask_cpts_to_dict(cpts)) == cpts
        assert mask_cpts_from_dict(json.loads(json.dumps(mask_cpts_to_dict(cpts)))) == cpts
