"""Selection-bias detection, stratified de-biasing, and effect transport."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalkit import (
    DiscreteDataset,
    EmptySelection,
    EmptyStratum,
    SchemaMismatch,
    StratumEffects,
    UnknownState,
    WeightMismatch,
    WeightsNotNormalized,
    detect_selection_bias,
    empirical_conditional,
    stratified_debias,
    transport_estimate,
)
from causalkit import fixtures as fx


# -- selection-bias detection ---------------------------------------------------


def test_covid_backdoor_path_flagged_under_selection():
    report = detect_selection_bias(fx.covid_graph(), "test", "antibody")
    assert report.selection_nodes == ("S",)
    assert report.biased
    assert len(report.paths) == 1
    assessment = report.paths[0]
    assert str(assessment.path) == "test <- risk -> S <- virus -> antibody"
    # the collider at S blocks the path until selection conditions on it
    assert assessment.blocked_unconditioned
    assert not assessment.blocked_under_selection


def test_no_bias_without_selection_involvement():
    report = detect_selection_bias(fx.covid_graph(), "virus", "antibody")
    assert not report.biased
    assert report.paths == ()


def test_graph_without_selection_nodes_is_clean():
    report = detect_selection_bias(fx.kidney_graph(), "treatment", "recovery")
    assert report.selection_nodes == ()
    assert not report.biased


# -- stratified de-biasing ----------------------------------------------------------


def test_debias_equals_conditional_on_fully_observed_data():
    ds = fx.kidney_dataset()
    debiased = stratified_debias(
        ds, "treatment", "A", "recovery", "1", ["severity"]
    )
    plain = empirical_conditional(ds, "recovery", {"treatment": "A"})["1"]
    assert abs(debiased - plain) <= 1e-12


def test_debias_single_stratum_is_conditional():
    ds = DiscreteDataset(
        ["x", "y", "s"],
        [("1", "1", "a"), ("1", "0", "a"), ("1", "1", "a"), ("0", "0", "a")],
    )
    got = stratified_debias(ds, "x", "1", "y", "1", ["s"])
    assert got == pytest.approx(2 / 3, abs=1e-15)


def test_debias_hand_computed_masked_dataset():
    # outcome observed only on selected rows; weights still use all rows
    rows = [
        # risk, outcome (None = off-study)
        ("low", "1"),
        ("low", None),
        ("low", None),
        ("low", None),
        ("high", "1"),
        ("high", "0"),
        ("high", None),
        ("high", None),
    ]
    x_col = [("t",) for _ in rows]
    ds = DiscreteDataset(
        ["x", "y", "r"],
        [(x[0], y, r) for (r, y), x in zip(rows, x_col)],
        states={"x": ("t",), "y": ("0", "1"), "r": ("high", "low")},
    )
    got = stratified_debias(ds, "x", "t", "y", "1", ["r"])
    # P(y=1|low, study)=1/1, weight(low)=4/8; P(y=1|high, study)=1/2, weight 4/8
    assert got == pytest.approx(1.0 * 0.5 + 0.5 * 0.5, abs=1e-15)


def test_debias_recovers_truth_on_selection_masked_study():
    scm = fx.covid_scm()
    truth = scm.intervene({"test": "1"}).probability({"antibody": "1"})
    assert truth == pytest.approx(0.23, abs=1e-12)

    study = fx.covid_study_dataset(fx.STUDY_SAMPLE_SIZE, fx.STUDY_SEED)
    naive = empirical_conditional(study, "antibody", {"test": "1"})["1"]
    debiased = stratified_debias(
        study, "test", "1", "antibody", "1", ["risk", "virus"]
    )
    assert abs(debiased - truth) <= 0.02
    assert abs(naive - truth) > 0.05


def test_debias_errors():
    ds = fx.kidney_dataset()
    with pytest.raises(UnknownState):
        stratified_debias(ds, "treatment", "C", "recovery", "1", ["severity"])
    with pytest.raises(UnknownState):
        stratified_debias(ds, "treatment", "A", "recovery", "9", ["severity"])
    missing_arm = DiscreteDataset(
        ["x", "y", "s"],
        [("1", "1", "a"), ("0", "0", "a")],
        states={"x": ("0", "1", "2"), "y": ("0", "1"), "s": ("a",)},
    )
    with pytest.raises(EmptySelection):
        stratified_debias(missing_arm, "x", "2", "y", "1", ["s"])

    # a stratum seen in the weights but with no observed outcomes
    unobserved = DiscreteDataset(
        ["x", "y", "s"],
        [("1", "1", "a"), ("1", None, "b")],
        states={"x": ("1",), "y": ("0", "1"), "s": ("a", "b")},
    )
    with pytest.raises(EmptyStratum):
        stratified_debias(unobserved, "x", "1", "y", "1", ["s"])


@pytest.mark.parametrize(
    "x, y, strata",
    [
        ("test", "antibody", ["antibody"]),
        ("test", "antibody", ["risk", "test"]),
        ("test", "test", ["risk"]),
        # a bare string is not a list of names: it would be split into letters
        ("test", "antibody", "risk"),
    ],
)
def test_debias_refuses_overlapping_roles(x, y, strata):
    ds = fx.covid_study_dataset(2_000, 3)
    with pytest.raises(SchemaMismatch, match="same column|conditioning columns"):
        stratified_debias(ds, x, "1", y, "1", strata)


def test_debias_error_for_out_of_range_x():
    ds = DiscreteDataset(["x", "y"], [("0", "1")])
    with pytest.raises(UnknownState):
        stratified_debias(ds, "x", "1", "y", "1", [])


# -- transport -------------------------------------------------------------------


def test_transport_headline_value():
    assert transport_estimate(fx.age_stratum_effects()) == pytest.approx(
        0.30, abs=1e-15
    )


def test_transport_identity_weights():
    se = StratumEffects("s", {"a": 0.4, "b": 0.7}, {"a": 1.0, "b": 0.0})
    assert transport_estimate(se) == pytest.approx(0.4)


def test_transport_validation():
    with pytest.raises(WeightMismatch):
        transport_estimate(
            StratumEffects("s", {"a": 0.5}, {"a": 0.5, "b": 0.5})
        )
    with pytest.raises(WeightsNotNormalized):
        transport_estimate(StratumEffects("s", {"a": 0.5}, {"a": 0.9}))
    with pytest.raises(WeightsNotNormalized):
        transport_estimate(
            StratumEffects("s", {"a": 0.5, "b": 0.1}, {"a": 1.5, "b": -0.5})
        )
    with pytest.raises(WeightsNotNormalized):
        transport_estimate(StratumEffects("s", {"a": 0.5}, {"a": float("nan")}))


def test_stratum_effects_json_roundtrip():
    se = fx.age_stratum_effects()
    back = StratumEffects.from_dict(json.loads(json.dumps(se.to_dict())))
    assert back.stratum == se.stratum
    assert back.effects == dict(se.effects)
    assert back.weights == dict(se.weights)


@st.composite
def stratum_effects(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    keys = [f"s{i}" for i in range(k)]
    effects = {
        key: draw(st.floats(min_value=-1.0, max_value=1.0)) for key in keys
    }
    raw = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in keys]
    total = sum(raw)
    weights = {key: w / total for key, w in zip(keys, raw)}
    # force exact normalization despite float division
    weights[keys[-1]] = 1.0 - sum(weights[k] for k in keys[:-1])
    return StratumEffects("s", effects, weights)


@given(stratum_effects())
def test_transport_bounds(se):
    """The estimate is a convex combination of the stratum effects."""
    value = transport_estimate(se)
    assert min(se.effects.values()) - 1e-9 <= value
    assert value <= max(se.effects.values()) + 1e-9


@given(stratum_effects(), st.floats(min_value=-2.0, max_value=2.0))
def test_transport_linearity(se, scale):
    scaled = StratumEffects(
        se.stratum,
        {k: v * scale for k, v in se.effects.items()},
        se.weights,
    )
    assert math.isclose(
        transport_estimate(scaled),
        scale * transport_estimate(se),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@given(stratum_effects())
def test_transport_ignores_key_order(se):
    reordered = StratumEffects(
        se.stratum,
        dict(reversed(list(se.effects.items()))),
        dict(reversed(list(se.weights.items()))),
    )
    assert transport_estimate(reordered) == transport_estimate(se)
