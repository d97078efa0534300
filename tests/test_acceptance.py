"""Acceptance gate: the eleven headline guarantees, at their stated tolerances.

One test per criterion; each prints a single `criterion NN PASS/FAIL` line
(visible with `pytest -s`, and always visible for a failing criterion).

Two criteria check a figure against what the method promises rather than a
rounded or hoped-for number; README's "Tests" section holds the derivations:

* Criterion 1 — `backdoor_adjust` is exact on the counts (0.832546 for A,
  0.778875 for B), so both arms are checked to 1e-12. The quoted 0.832 and
  0.782 recombine stratum rates and weights rounded to two decimals first,
  and are checked as exactly that display.

* Criterion 10 — PC with the pinned chi-square test at alpha=0.05 recovers
  the collider-chain pattern only when it accepts three true independences
  (X ⫫ Y, X ⫫ W | Z, Y ⫫ W | Z), each decided by one level-alpha test, so
  its promised exact-recovery rate is 0.95**3 ≈ 85.7% (measured 348/400).
  The gate checks that PC is right whenever its tests are, that false
  rejections stay within the binomial spread of alpha, and that exact
  recoveries stay within the binomial spread of 0.95**3.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import causalkit
import dsep_oracle
from causalkit import (
    CausalGraph,
    DiscreteDataset,
    NOT_RECOVERABLE,
    Node,
    NodeKind,
    Pattern,
    ProbTable,
    StratumEffects,
    apply_missingness,
    backdoor_adjust,
    backdoor_adjust_ratio,
    ci_test,
    classify_mechanism,
    detect_selection_bias,
    detect_simpson_reversal,
    dsep_ci_fn,
    empirical_conditional,
    empirical_joint,
    greedy_score_search,
    make_policy,
    markov_equivalent,
    pattern_of_dag,
    pc,
    recover_joint,
    simulate,
    stratified_debias,
    transport_estimate,
)
from causalkit import fixtures as fx
from causalkit.bandits import env_from_dict, env_to_dict
from causalkit.graph import graph_from_dict, graph_to_dict
from causalkit.missing import mgraph_from_dict, mgraph_to_dict
from causalkit.scm import scm_from_dict, scm_to_dict

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL {name}")
        raise
    print(f"criterion {num:02d} PASS {name}")


# -- 1: kidney-stone reproduction ------------------------------------------------


def test_criterion_01_kidney_reproduction():
    with criterion(1, "kidney-stone study reproduced at printed tolerances"):
        start = time.process_time()
        ds = fx.kidney_dataset()
        a = backdoor_adjust(ds, "treatment", "A", "recovery", "1", ["severity"])
        b = backdoor_adjust(ds, "treatment", "B", "recovery", "1", ["severity"])
        report = detect_simpson_reversal(
            ds, "treatment", "recovery", "1", ["severity"]
        )
        elapsed = time.process_time() - start

        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        assert report.reversal
        assert report.aggregate_rates["A"] == pytest.approx(0.78, abs=0.005)
        assert report.aggregate_rates["B"] == pytest.approx(0.83, abs=0.005)

        # The estimator is Σ_z P(y|x,z)·P(z) in full precision, so each arm
        # must equal the formula evaluated on the study's counts.
        exact_a = 81 / 87 * (357 / 700) + 192 / 263 * (343 / 700)
        exact_b = 234 / 270 * (357 / 700) + 55 / 80 * (343 / 700)
        assert abs(a - exact_a) <= 1e-12, f"treatment A estimate {a!r}"
        assert abs(b - exact_b) <= 1e-12, f"treatment B estimate {b!r}"

        # The quoted 0.832 / 0.782 are display figures: the same formula on
        # stratum rates and weights each rounded to two decimals first (see
        # README, "Reproduction script and artifacts").
        weights = empirical_joint(ds, ["severity"])
        for arm, quoted in (("A", "0.832"), ("B", "0.782")):
            display = sum(
                round(rates[arm], 2) * round(weights.prob(zv), 2)
                for zv, rates in report.stratum_rates.items()
            )
            assert f"{display:.3f}" == quoted, (
                f"treatment {arm}: two-decimal recombination gives "
                f"{display:.3f}, quoted {quoted}"
            )


# -- 2: the two adjustment routes are one formula -----------------------------------


def test_criterion_02_adjustment_route_identity():
    with criterion(2, "sum and ratio adjustment routes agree to 1e-9"):
        rng = np.random.default_rng(20240601)
        for _ in range(100):
            n_strata = int(rng.integers(1, 4))
            rows = []
            for i in range(n_strata):
                for x_val in ("0", "1"):
                    for y_val in ("0", "1"):
                        rows.extend(
                            [(f"s{i}", x_val, y_val)]
                            * int(rng.integers(1, 25))
                        )
            ds = DiscreteDataset(["z", "x", "y"], rows)
            for x_val in ("0", "1"):
                via_sum = backdoor_adjust(ds, "x", x_val, "y", "1", ["z"])
                via_ratio = backdoor_adjust_ratio(
                    ds, "x", x_val, "y", "1", ["z"]
                )
                assert abs(via_sum - via_ratio) <= 1e-9


# -- 3: interventions on non-ancestors change nothing ----------------------------------


def test_criterion_03_rule3_engine_check():
    with criterion(3, "forcing the sprinkler leaves the rain marginal fixed"):
        scm = fx.sprinkler_scm()
        for forced in ("0", "1"):
            forced_model = scm.intervene({"Sprinkler": forced})
            for rain in ("0", "1"):
                assert abs(
                    forced_model.probability({"Rain": rain})
                    - scm.probability({"Rain": rain})
                ) <= 1e-9


# -- 4: d-separation agrees with an independent path-rule oracle -----------------------


def _obs(*names):
    return [Node(n, NodeKind.OBSERVED) for n in names]


def _labeled_dags(names):
    """Every labeled DAG over `names`: all edge subsets, acyclic only."""
    pairs = [(a, b) for a in names for b in names if a != b]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, keep in zip(pairs, bits) if keep]
        try:
            yield CausalGraph(_obs(*names), edges)
        except Exception:
            continue


def _triangular_dags(names):
    """All DAGs whose edges respect the fixed order of `names` (every
    subset of forward pairs is acyclic by construction)."""
    pairs = list(itertools.combinations(names, 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, keep in zip(pairs, bits) if keep]
        yield CausalGraph(_obs(*names), edges)


def test_criterion_04_dsep_oracle_equivalence():
    with criterion(4, "d-separation matches the path-rule oracle exhaustively"):
        start = time.perf_counter()
        graphs = itertools.chain(
            _labeled_dags(("A", "B", "C")),
            _labeled_dags(("A", "B", "C", "D")),
            _triangular_dags(("A", "B", "C", "D", "E")),
        )
        checks = 0
        for graph in graphs:
            names = graph.node_names()
            edges = list(graph.edges)
            for x, y in itertools.combinations(names, 2):
                rest = [n for n in names if n not in (x, y)]
                for size in range(len(rest) + 1):
                    for z in itertools.combinations(rest, size):
                        got = graph.is_d_separated({x}, {y}, set(z))
                        want = dsep_oracle.d_separated(
                            names, edges, [x], [y], z
                        )
                        assert got == want, (
                            f"disagreement on {sorted(edges)}: "
                            f"{x} vs {y} given {z}"
                        )
                        checks += 1
        elapsed = time.perf_counter() - start
        assert checks >= 10_000, f"only {checks} checks"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- 5: adjustment estimates converge; the naive conditional does not ---------------------


def test_criterion_05_backdoor_estimator_consistency():
    with criterion(5, "adjusted estimate within 0.02 at n=1e5; naive off by >0.05"):
        scm = fx.confounded_scm()
        truth = scm.intervene({"X": "1"}).probability({"Y": "1"})
        assert truth == pytest.approx(0.65, abs=1e-12)

        ds = scm.sample(100_000, seed=7)
        adjusted = backdoor_adjust(ds, "X", "1", "Y", "1", ["U"])
        naive = empirical_conditional(ds, "Y", {"X": "1"})["1"]
        assert abs(adjusted - truth) <= 0.02
        assert abs(naive - truth) > 0.05


# -- 6: transport is the weighted sum, with its algebraic consequences ---------------------


def test_criterion_06_transport():
    with criterion(6, "transport: 0.30 exactly, plus bounds and linearity"):
        assert transport_estimate(fx.age_stratum_effects()) == pytest.approx(
            0.30, abs=1e-12
        )

        rng = np.random.default_rng(20240602)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            keys = [f"g{i}" for i in range(k)]
            raw = rng.uniform(0.05, 1.0, size=k)
            weights = dict(zip(keys, (raw / raw.sum()).tolist()))
            e1 = dict(zip(keys, rng.uniform(0.0, 1.0, size=k).tolist()))
            e2 = dict(zip(keys, rng.uniform(0.0, 1.0, size=k).tolist()))
            t1 = transport_estimate(StratumEffects("s", e1, weights))
            t2 = transport_estimate(StratumEffects("s", e2, weights))

            assert min(e1.values()) - 1e-12 <= t1 <= max(e1.values()) + 1e-12

            alpha, beta = rng.uniform(0.0, 0.5, size=2).tolist()
            combo = {
                key: alpha * e1[key] + beta * e2[key] for key in keys
            }
            t_combo = transport_estimate(StratumEffects("s", combo, weights))
            assert abs(t_combo - (alpha * t1 + beta * t2)) <= 1e-9


# -- 7: selection bias flagged and undone ----------------------------------------------


def test_criterion_07_selection_bias():
    with criterion(7, "selection flagged; stratified debias within 0.02 at n=1e5"):
        report = detect_selection_bias(fx.covid_graph(), "test", "antibody")
        assert report.biased
        (analysis,) = report.paths
        assert analysis.blocked_unconditioned
        assert not analysis.blocked_under_selection

        truth = (
            fx.covid_scm()
            .intervene({"test": "1"})
            .probability({"antibody": "1"})
        )
        assert truth == pytest.approx(0.23, abs=1e-12)
        study = fx.covid_study_dataset(fx.STUDY_SAMPLE_SIZE, fx.STUDY_SEED)
        debiased = stratified_debias(
            study, "test", "1", "antibody", "1", ["risk", "virus"]
        )
        assert abs(debiased - truth) <= 0.02


# -- 8: missingness classification and recovery ------------------------------------------


XY_TRUTH = ProbTable(
    ("X", "Y"),
    {
        ("0", "0"): 0.6 * 0.7,
        ("0", "1"): 0.6 * 0.3,
        ("1", "0"): 0.4 * 0.2,
        ("1", "1"): 0.4 * 0.8,
    },
)


def test_criterion_08_missing_data():
    with criterion(8, "mechanisms classified; recovery within L1 0.02 at n=1e5"):
        base = fx.xy_scm().sample(100_000, seed=21)
        families = (
            (fx.mgraph_mcar, "MCAR", True),
            (fx.mgraph_mar, "MAR", True),
            (fx.mgraph_self_masking, "MNAR", False),
            (fx.mgraph_two_sided, "MNAR", True),
        )
        mar_masked = None
        for builder, label, recoverable in families:
            start = time.perf_counter()
            mg = builder()
            assert classify_mechanism(mg).value == label
            masked = apply_missingness(base, mg, fx.mask_cpts(mg), seed=22)
            result = recover_joint(mg, masked, ["X", "Y"])
            if recoverable:
                assert result is not NOT_RECOVERABLE
                assert result.l1_distance(XY_TRUTH) <= 0.02
            else:
                assert result is NOT_RECOVERABLE
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"{builder.__name__} took {elapsed:.1f}s"
            if builder is fx.mgraph_mar:
                mar_masked = masked

        # complete-case analysis under cause-driven masking is visibly biased
        complete_case = empirical_joint(mar_masked, ["Y"]).prob(("1",))
        truth_y1 = XY_TRUTH.marginal(["Y"]).prob(("1",))
        assert abs(complete_case - truth_y1) > 0.05


# -- 9: bandit guarantees -----------------------------------------------------------------


def test_criterion_09_bandits():
    with criterion(9, "Thompson converges; intent-aware beats intent-blind"):
        tail_rates = []
        for seed in range(50):
            result = simulate(
                fx.two_arm_env(), make_policy("thompson"), 10_000, seed
            )
            tail_rates.append(result.arm_frequency(0, tail=0.1))
        assert sum(tail_rates) / len(tail_rates) > 0.95

        causal_regret = []
        standard_regret = []
        for seed in range(50):
            causal_regret.append(
                simulate(
                    fx.paradoxical_env(),
                    make_policy("causal_thompson"),
                    2_000,
                    seed,
                ).final_regret()
            )
            standard_regret.append(
                simulate(
                    fx.paradoxical_env(),
                    make_policy("thompson"),
                    2_000,
                    seed,
                ).final_regret()
            )
        mean_causal = sum(causal_regret) / len(causal_regret)
        mean_standard = sum(standard_regret) / len(standard_regret)
        assert mean_causal < mean_standard


# -- 10: structure discovery -------------------------------------------------------------


def test_criterion_10_discovery():
    with criterion(
        10, "PC exact with oracle; PC at its alpha rate, greedy>=80% from data"
    ):
        start = time.process_time()
        for graph in (
            fx.kidney_graph(),
            fx.smoking_graph(),
            fx.covid_graph(),
            fx.collider_chain_graph(),
        ):
            learned = pc(
                ci_fn=dsep_ci_fn(graph), variables=graph.node_names()
            )
            assert learned == pattern_of_dag(graph)

        truth = fx.collider_chain_graph()
        target = frozenset({("X", "Z"), ("Y", "Z"), ("Z", "W")})
        scm = fx.collider_chain_scm()
        pc_hits = 0
        greedy_hits = 0
        true_independences = 0
        false_rejections = 0
        for seed in range(50):
            ds = scm.sample(10_000, seed=seed)
            decisions = {}

            def ci_fn(a, b, cond):
                # the closure pc(ds, alpha=0.05) builds, recording each call;
                # a statement tested from both endpoints is counted once
                independent = ci_test(ds, a, b, cond, alpha=0.05).independent
                decisions[(a, b, cond)] = independent
                return independent

            pattern = pc(ds, ci_fn=ci_fn)
            if seed == 0:
                assert pattern == pc(ds, alpha=0.05)
            exact = pattern.directed == target and not pattern.undirected
            pc_hits += exact

            all_correct = True
            for (a, b, cond), independent in decisions.items():
                separated = truth.is_d_separated({a}, {b}, set(cond))
                all_correct &= independent == separated
                if separated:
                    true_independences += 1
                    false_rejections += not independent
            # (a) PC is sound: right decisions give the right pattern, so an
            # inexact replicate is always down to a wrong test decision
            assert exact or not all_correct, (
                f"seed {seed}: every CI decision agrees with d-separation "
                f"but PC returned {pattern}"
            )

            learned_graph, _ = greedy_score_search(ds)
            if markov_equivalent(learned_graph, truth):
                greedy_hits += 1
        elapsed = time.process_time() - start

        assert greedy_hits >= 40, f"greedy equivalent in {greedy_hits}/50"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        # (b) the test is calibrated: each true independence is falsely
        # rejected with probability alpha, so the count stays within the
        # upper 1% point of Bin(m, 0.05)
        max_false = int(binom.ppf(0.99, true_independences, 0.05))
        assert false_rejections <= max_false, (
            f"{false_rejections} false rejections in {true_independences} "
            f"true-independence decisions (> {max_false})"
        )
        # (c) exact recovery needs three true independences accepted
        # (X ⫫ Y, X ⫫ W | Z, Y ⫫ W | Z), one level-0.05 test each, so the
        # promised rate is 0.95**3 ≈ 0.857; hold the lower 1% point of
        # Bin(50, 0.95**3)
        min_hits = int(binom.ppf(0.01, 50, 0.95**3))
        assert pc_hits >= min_hits, (
            f"PC exact in {pc_hits}/50 replicates (< {min_hits})"
        )


# -- 11: the reproduction script and artifact round-trips ----------------------------------


ARTIFACT_CODECS = {
    "graph": (graph_from_dict, graph_to_dict),
    "scm": (scm_from_dict, scm_to_dict),
    "mgraph": (mgraph_from_dict, mgraph_to_dict),
    "pattern": (Pattern.from_dict, Pattern.to_dict),
    "table": (ProbTable.from_dict, ProbTable.to_dict),
    "effects": (StratumEffects.from_dict, StratumEffects.to_dict),
    "env": (env_from_dict, env_to_dict),
}


def test_criterion_11_reproduction_script(tmp_path):
    with criterion(11, "reproduction script exits 0; artifacts round-trip"):
        artifacts = tmp_path / "artifacts"
        # the child imports the package under test, installed or not
        src = str(Path(causalkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "reproduce_examples.py"),
                "--artifacts",
                str(artifacts),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout

        files = sorted(artifacts.glob("*.json"))
        assert len(files) >= 20
        for path in files:
            decode, encode = ARTIFACT_CODECS[path.name.split("_")[0]]
            payload = json.loads(path.read_text())
            again = encode(decode(payload))
            assert json.dumps(again, sort_keys=True) == json.dumps(
                payload, sort_keys=True
            ), f"{path.name} did not round-trip"
