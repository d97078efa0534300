"""Command-line interface: wiring, formats, and exit codes.

Every test drives `cli.main` in-process with capsys; handlers are compared
against direct library calls rather than re-derived arithmetic.
"""

import csv
import json

import pytest

from causalkit import (
    CausalGraph,
    DiscreteDataset,
    Pattern,
    ProbTable,
    apply_missingness,
    backdoor_adjust,
    cli,
    graph_to_json,
    greedy_score_search,
    make_policy,
    pc,
    recover_joint,
    simulate,
)
from causalkit import fixtures as fx
from test_scm import cpu_bounded


@pytest.fixture(scope="session")
def fixdir(tmp_path_factory):
    """All built-in example files, written once via the CLI itself."""
    dest = tmp_path_factory.mktemp("fixtures")
    assert cli.main(["fixtures", "--dest", str(dest)]) == 0
    return dest


@pytest.fixture(scope="session")
def datadir(tmp_path_factory):
    """Sampled CSVs used by estimator/discovery/missingness subcommands."""
    dest = tmp_path_factory.mktemp("data")
    (dest / "xy.csv").write_text(fx.xy_scm().sample(400, seed=3).to_csv())
    xy = fx.xy_scm().sample(400, seed=3)
    mar = apply_missingness(xy, fx.mgraph_mar(), fx.mask_cpts(fx.mgraph_mar()), 7)
    (dest / "xy_mar.csv").write_text(mar.to_csv())
    self_mask = apply_missingness(
        xy,
        fx.mgraph_self_masking(),
        fx.mask_cpts(fx.mgraph_self_masking()),
        7,
    )
    (dest / "xy_self.csv").write_text(self_mask.to_csv())
    (dest / "cc.csv").write_text(
        fx.collider_chain_scm().sample(10000, seed=2).to_csv()
    )
    return dest


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--out", "json"])
    assert rc == 0, err
    return json.loads(out)


# -- fixture export -----------------------------------------------------------


def test_fixtures_written(fixdir):
    names = {p.name for p in fixdir.iterdir()}
    expected = {
        "kidney.csv",
        "kidney_graph.json",
        "kidney_scm.json",
        "confounded_scm.json",
        "sprinkler_scm.json",
        "smoking_graph.json",
        "covid_graph.json",
        "covid_scm.json",
        "covid_study.csv",
        "age_strata.json",
        "xy_scm.json",
        "collider_chain_graph.json",
        "collider_chain_scm.json",
        "bandit_two_arm.json",
        "bandit_five_arm.json",
        "bandit_paradoxical.json",
        "bandit_single_intent.json",
    }
    for stem in ("mcar", "mar", "self_masking", "two_sided"):
        expected.add(f"mgraph_{stem}.json")
        expected.add(f"mgraph_{stem}_mask.json")
    assert names == expected


# -- graph subcommands ----------------------------------------------------------


def test_dsep_text_and_json(fixdir, capsys):
    graph = str(fixdir / "collider_chain_graph.json")
    rc, out, _ = run(capsys, ["dsep", "--graph", graph, "--x", "X", "--y", "Y"])
    assert rc == 0
    assert out == "d-separated: true\n"

    rc, out, _ = run(
        capsys,
        ["dsep", "--graph", graph, "--x", "X", "--y", "Y", "--given", "Z"],
    )
    assert rc == 0
    assert out == "d-separated: false\n"

    payload = run_json(
        capsys, ["dsep", "--graph", graph, "--x", "X", "--y", "Y"]
    )
    assert payload == {
        "x": ["X"],
        "y": ["Y"],
        "given": [],
        "d_separated": True,
    }


def test_backdoor_check(fixdir, capsys):
    graph = str(fixdir / "kidney_graph.json")
    base = [
        "backdoor-check",
        "--graph",
        graph,
        "--x",
        "treatment",
        "--y",
        "recovery",
    ]
    rc, out, _ = run(capsys, base + ["--adjust", "severity"])
    assert rc == 0
    assert out == "satisfies backdoor criterion: true\n"
    rc, out, _ = run(capsys, base)
    assert out == "satisfies backdoor criterion: false\n"
    payload = run_json(capsys, base + ["--adjust", "severity"])
    assert payload["satisfies_backdoor_criterion"] is True
    assert payload["adjust"] == ["severity"]


def test_identify_matches_library(fixdir, capsys):
    graph = fx.kidney_graph()
    expected_r1 = graph.rule1_applicable(
        "severity", "recovery", ["treatment"], []
    )
    expected_r3 = graph.rule3_applicable("recovery", "severity")
    payload = run_json(
        capsys,
        [
            "identify",
            "--graph",
            str(fixdir / "kidney_graph.json"),
            "--x",
            "recovery",
            "--y",
            "severity",
            "--w",
            "treatment",
        ],
    )
    assert payload["rule1_applicable"] is expected_r1
    assert payload["rule3_applicable"] is expected_r3
    assert expected_r3 is True

    rc, out, _ = run(
        capsys,
        [
            "identify",
            "--graph",
            str(fixdir / "kidney_graph.json"),
            "--x",
            "recovery",
            "--y",
            "severity",
            "--w",
            "treatment",
        ],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("rule 1 ")
    assert lines[1].endswith(
        "applicable" if expected_r3 else "not applicable"
    )


# -- model subcommands ----------------------------------------------------------


def test_scm_sample_stdout_matches_library(fixdir, capsys):
    rc, out, _ = run(
        capsys,
        [
            "scm",
            "sample",
            "--model",
            str(fixdir / "confounded_scm.json"),
            "--n",
            "6",
            "--seed",
            "4",
        ],
    )
    assert rc == 0
    assert out == fx.confounded_scm().sample(6, 4).to_csv()


def test_scm_sample_save(fixdir, tmp_path, capsys):
    target = tmp_path / "sample.csv"
    rc, out, _ = run(
        capsys,
        [
            "scm",
            "sample",
            "--model",
            str(fixdir / "confounded_scm.json"),
            "--n",
            "6",
            "--seed",
            "4",
            "--save",
            str(target),
        ],
    )
    assert rc == 0
    assert out == f"wrote 6 rows to {target}\n"
    assert target.read_text() == fx.confounded_scm().sample(6, 4).to_csv()


def test_scm_query_interventional(fixdir, capsys):
    model = str(fixdir / "covid_scm.json")
    rc, out, _ = run(
        capsys,
        [
            "scm",
            "query",
            "--model",
            model,
            "--target",
            "antibody=1",
            "--do",
            "test=1",
        ],
    )
    assert rc == 0
    assert out == "0.230\n"
    payload = run_json(
        capsys,
        [
            "scm",
            "query",
            "--model",
            model,
            "--target",
            "antibody=1",
            "--do",
            "test=1",
        ],
    )
    assert payload["probability"] == pytest.approx(0.23, abs=1e-12)
    assert payload["do"] == {"test": "1"}


def test_scm_query_conditional_matches_library(fixdir, capsys):
    expected = fx.covid_scm().query_conditional(
        {"antibody": "1"}, {"test": "1"}
    )
    payload = run_json(
        capsys,
        [
            "scm",
            "query",
            "--model",
            str(fixdir / "covid_scm.json"),
            "--target",
            "antibody=1",
            "--given",
            "test=1",
        ],
    )
    assert payload["probability"] == pytest.approx(expected, abs=1e-15)


# -- estimation subcommands -------------------------------------------------------


def test_estimate_do_text_rounding(fixdir, capsys):
    data = str(fixdir / "kidney.csv")
    base = [
        "estimate",
        "do",
        "--data",
        data,
        "--y",
        "recovery=1",
        "--adjust",
        "severity",
    ]
    rc, out, _ = run(capsys, base + ["--x", "treatment=A"])
    assert rc == 0
    assert out == "0.833\n"
    rc, out, _ = run(capsys, base + ["--x", "treatment=B"])
    assert out == "0.779\n"


def test_estimate_do_json_full_precision(fixdir, capsys):
    expected = 81 / 87 * (357 / 700) + 192 / 263 * (343 / 700)
    payload = run_json(
        capsys,
        [
            "estimate",
            "do",
            "--data",
            str(fixdir / "kidney.csv"),
            "--x",
            "treatment=A",
            "--y",
            "recovery=1",
            "--adjust",
            "severity",
        ],
    )
    assert payload["estimate"] == pytest.approx(expected, abs=1e-15)
    assert payload["route"] == "sum"


def test_estimate_do_ratio_and_smooth(fixdir, capsys):
    data = str(fixdir / "kidney.csv")
    base = [
        "estimate",
        "do",
        "--data",
        data,
        "--x",
        "treatment=A",
        "--y",
        "recovery=1",
        "--adjust",
        "severity",
    ]
    ratio = run_json(capsys, base + ["--ratio"])
    assert ratio["route"] == "ratio"
    assert ratio["estimate"] == pytest.approx(
        81 / 87 * (357 / 700) + 192 / 263 * (343 / 700), abs=1e-12
    )
    smooth = run_json(capsys, base + ["--smooth"])
    expected = backdoor_adjust(
        fx.kidney_dataset(),
        "treatment",
        "A",
        "recovery",
        "1",
        ["severity"],
        laplace=True,
    )
    assert smooth["estimate"] == pytest.approx(expected, abs=1e-15)


def test_estimate_ace(fixdir, capsys):
    payload = run_json(
        capsys,
        [
            "estimate",
            "ace",
            "--data",
            str(fixdir / "kidney.csv"),
            "--x",
            "treatment",
            "--treat",
            "A",
            "--control",
            "B",
            "--y",
            "recovery=1",
            "--adjust",
            "severity",
        ],
    )
    a = 81 / 87 * (357 / 700) + 192 / 263 * (343 / 700)
    b = 234 / 270 * (357 / 700) + 55 / 80 * (343 / 700)
    assert payload["ace"] == pytest.approx(a - b, abs=1e-15)


def test_estimate_simpson_text(fixdir, capsys):
    rc, out, _ = run(
        capsys,
        [
            "estimate",
            "simpson",
            "--data",
            str(fixdir / "kidney.csv"),
            "--x",
            "treatment",
            "--y",
            "recovery=1",
            "--strata",
            "severity",
        ],
    )
    assert rc == 0
    assert out.splitlines() == [
        "aggregate: A=0.780 B=0.826",
        "stratum large: A=0.730 B=0.688",
        "stratum small: A=0.931 B=0.867",
        "reversal: true",
        "mixed: false",
    ]


def test_estimate_simpson_json(fixdir, capsys):
    payload = run_json(
        capsys,
        [
            "estimate",
            "simpson",
            "--data",
            str(fixdir / "kidney.csv"),
            "--x",
            "treatment",
            "--y",
            "recovery=1",
            "--strata",
            "severity",
        ],
    )
    assert payload["reversal"] is True
    assert payload["mixed"] is False
    assert payload["aggregate_sign"] == -1
    assert set(payload["stratum_rates"]) == {"large", "small"}


# -- selection and transport ------------------------------------------------------


def test_selection_check_text(fixdir, capsys):
    rc, out, _ = run(
        capsys,
        [
            "selection-check",
            "--graph",
            str(fixdir / "covid_graph.json"),
            "--x",
            "test",
            "--y",
            "antibody",
        ],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "selection nodes: S"
    assert lines[1] == (
        "  test <- risk -> S <- virus -> antibody | "
        "unconditioned: blocked | under selection: open"
    )
    assert lines[-1] == "selection bias: true"


def test_selection_check_unbiased(fixdir, capsys):
    payload = run_json(
        capsys,
        [
            "selection-check",
            "--graph",
            str(fixdir / "kidney_graph.json"),
            "--x",
            "treatment",
            "--y",
            "recovery",
        ],
    )
    assert payload["biased"] is False
    assert payload["selection_nodes"] == []


def test_debias_recovers_interventional_truth(fixdir, capsys):
    payload = run_json(
        capsys,
        [
            "debias",
            "--data",
            str(fixdir / "covid_study.csv"),
            "--x",
            "test=1",
            "--y",
            "antibody=1",
            "--strata",
            "risk",
            "virus",
        ],
    )
    assert payload["estimate"] == pytest.approx(0.23, abs=0.02)


def test_transport(fixdir, capsys):
    rc, out, _ = run(
        capsys, ["transport", "--effects", str(fixdir / "age_strata.json")]
    )
    assert rc == 0
    assert out == "0.300\n"
    payload = run_json(
        capsys, ["transport", "--effects", str(fixdir / "age_strata.json")]
    )
    assert payload["stratum"] == "age"
    assert payload["estimate"] == pytest.approx(0.30, abs=1e-12)


# -- missingness subcommands --------------------------------------------------------


def test_missing_classify(fixdir, capsys):
    for stem, label in (
        ("mcar", "MCAR"),
        ("mar", "MAR"),
        ("self_masking", "MNAR"),
        ("two_sided", "MNAR"),
    ):
        rc, out, _ = run(
            capsys,
            [
                "missing",
                "classify",
                "--graph",
                str(fixdir / f"mgraph_{stem}.json"),
            ],
        )
        assert rc == 0
        assert out == f"mechanism: {label}\n"


def test_missing_mask_matches_library(fixdir, datadir, tmp_path, capsys):
    expected = apply_missingness(
        fx.xy_scm().sample(400, seed=3),
        fx.mgraph_mar(),
        fx.mask_cpts(fx.mgraph_mar()),
        7,
    ).to_csv()
    argv = [
        "missing",
        "mask",
        "--data",
        str(datadir / "xy.csv"),
        "--graph",
        str(fixdir / "mgraph_mar.json"),
        "--rcpt",
        str(fixdir / "mgraph_mar_mask.json"),
        "--seed",
        "7",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == expected

    target = tmp_path / "masked.csv"
    rc, out, _ = run(capsys, argv + ["--save", str(target)])
    assert rc == 0
    assert out == f"wrote 400 rows to {target}\n"
    assert target.read_text() == expected


def test_missing_recover(fixdir, datadir, capsys):
    ds = DiscreteDataset.from_csv((datadir / "xy_mar.csv").read_text())
    expected = recover_joint(fx.mgraph_mar(), ds, ["X", "Y"])
    payload = run_json(
        capsys,
        [
            "missing",
            "recover",
            "--data",
            str(datadir / "xy_mar.csv"),
            "--graph",
            str(fixdir / "mgraph_mar.json"),
            "--vars",
            "X",
            "Y",
        ],
    )
    assert payload["recoverable"] is True
    back = ProbTable.from_dict(payload["table"])
    assert back.l1_distance(expected) == pytest.approx(0.0, abs=1e-15)

    rc, out, _ = run(
        capsys,
        [
            "missing",
            "recover",
            "--data",
            str(datadir / "xy_mar.csv"),
            "--graph",
            str(fixdir / "mgraph_mar.json"),
            "--vars",
            "X",
            "Y",
        ],
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("X=0,Y=0: ")


def test_missing_recover_not_recoverable(fixdir, datadir, capsys):
    argv = [
        "missing",
        "recover",
        "--data",
        str(datadir / "xy_self.csv"),
        "--graph",
        str(fixdir / "mgraph_self_masking.json"),
        "--vars",
        "X",
        "Y",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == "NOT_RECOVERABLE\n"
    payload = run_json(capsys, argv)
    assert payload == {"recoverable": False, "table": None}


def test_missing_recover_header_only_csv(fixdir, tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("X,Y,Ry\n")
    rc, out, err = run(
        capsys,
        ["missing", "recover", "--data", str(data),
         "--graph", str(fixdir / "mgraph_mar.json"), "--vars", "X", "Y"],
    )
    assert (rc, out) == (1, "")
    assert err == "error: EmptySelection: no complete rows over ['X']\n"


def test_missing_testable(fixdir, capsys):
    graph = str(fixdir / "mgraph_two_sided.json")
    rc, out, _ = run(
        capsys,
        ["missing", "testable", "--graph", graph, "--x", "X", "--y", "Y"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "testable: false"

    rc, out, _ = run(
        capsys,
        [
            "missing",
            "testable",
            "--graph",
            graph,
            "--x",
            "X",
            "--y",
            "Y",
            "Ry",
            "--given",
            "Rx",
        ],
    )
    assert rc == 0
    assert out.splitlines()[0] == "testable: true"


# -- bandit subcommand ------------------------------------------------------------


def test_bandit_sim_matches_library(fixdir, tmp_path, capsys):
    expected = simulate(fx.two_arm_env(), make_policy("thompson"), 400, 5)
    log = tmp_path / "rounds.csv"
    payload = run_json(
        capsys,
        [
            "bandit",
            "sim",
            "--env",
            str(fixdir / "bandit_two_arm.json"),
            "--policy",
            "thompson",
            "--horizon",
            "400",
            "--seed",
            "5",
            "--save",
            str(log),
        ],
    )
    assert payload["policy"] == "thompson"
    assert payload["final_regret"] == pytest.approx(
        expected.final_regret(), abs=1e-12
    )
    assert payload["tail_arm_frequency"]["0"] == pytest.approx(
        expected.arm_frequency(0, tail=0.1), abs=1e-12
    )
    text = log.read_text()
    assert text == expected.to_csv()
    assert text.splitlines()[0] == "round,arm,intent,reward,cum_regret"
    assert len(text.splitlines()) == 401


def test_bandit_sim_text(fixdir, capsys):
    rc, out, _ = run(
        capsys,
        [
            "bandit",
            "sim",
            "--env",
            str(fixdir / "bandit_paradoxical.json"),
            "--policy",
            "causal_thompson",
            "--horizon",
            "300",
            "--seed",
            "1",
        ],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "policy: causal_thompson"
    assert lines[1].startswith("final cumulative regret: ")
    assert lines[2].startswith("tail arm frequency (last 10%): ")


def test_bandit_sim_requires_intent(fixdir, capsys):
    rc, out, err = run(
        capsys,
        [
            "bandit",
            "sim",
            "--env",
            str(fixdir / "bandit_two_arm.json"),
            "--policy",
            "causal_thompson",
            "--horizon",
            "50",
            "--seed",
            "1",
        ],
    )
    assert rc == 1
    assert "MissingIntent" in err


# -- discovery subcommands ----------------------------------------------------------


def test_discover_pc(datadir, capsys):
    rc, out, _ = run(
        capsys, ["discover", "pc", "--data", str(datadir / "cc.csv")]
    )
    assert rc == 0
    assert out.splitlines() == [
        "directed: X->Z, Y->Z, Z->W",
        "undirected: (none)",
        "conflicts: (none)",
    ]
    payload = run_json(
        capsys, ["discover", "pc", "--data", str(datadir / "cc.csv")]
    )
    ds = DiscreteDataset.from_csv((datadir / "cc.csv").read_text())
    assert Pattern.from_dict(payload["pattern"]) == pc(ds)


def test_discover_ges(datadir, capsys):
    rc, out, _ = run(
        capsys, ["discover", "ges", "--data", str(datadir / "cc.csv")]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "edges: X->Z, Y->Z, Z->W"
    assert lines[2] == "moves: 3"

    payload = run_json(
        capsys, ["discover", "ges", "--data", str(datadir / "cc.csv")]
    )
    ds = DiscreteDataset.from_csv((datadir / "cc.csv").read_text())
    graph, trace = greedy_score_search(ds)
    assert payload["graph"]["edges"] == [list(e) for e in sorted(graph.edges)]
    assert [step["op"] for step in payload["trace"]] == [
        "init",
        "add",
        "add",
        "add",
    ]
    assert payload["score"] == pytest.approx(trace[-1].score, abs=1e-9)


# -- exit codes and input validation ----------------------------------------------


def test_missing_file_is_exit_2(capsys):
    rc, _, err = run(
        capsys,
        ["dsep", "--graph", "/no/such/file.json", "--x", "a", "--y", "b"],
    )
    assert rc == 2
    assert err.startswith("error: cannot read")


def test_unparseable_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(
        capsys, ["dsep", "--graph", str(bad), "--x", "a", "--y", "b"]
    )
    assert rc == 2
    assert "not valid JSON" in err


def test_wrong_shape_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps({"foo": 1}))
    rc, _, err = run(
        capsys, ["dsep", "--graph", str(bad), "--x", "a", "--y", "b"]
    )
    assert rc == 2
    assert "not a valid graph" in err


def test_ragged_csv_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1\n")
    rc, _, err = run(
        capsys,
        [
            "estimate",
            "do",
            "--data",
            str(bad),
            "--x",
            "a=1",
            "--y",
            "b=1",
        ],
    )
    assert rc == 2
    assert "not a valid dataset" in err


def test_oversized_csv_field_is_exit_2(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("X,Y\n" + "1" * (csv.field_size_limit() + 1) + ",0\n")
    rc, out, err = run(
        capsys, ["estimate", "do", "--data", str(big), "--x", "X=1", "--y", "Y=0"]
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {big} is not a valid dataset: ")
    assert "Traceback" not in err


def test_invalid_effects_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "effects.json"
    bad.write_text(json.dumps({"stratum": "age", "effects": {"a": 0.1}}))
    rc, _, err = run(capsys, ["transport", "--effects", str(bad)])
    assert rc == 2
    assert "not a valid effects file" in err


def test_unnormalized_weights_are_exit_1(tmp_path, capsys):
    bad = tmp_path / "effects.json"
    bad.write_text(
        json.dumps(
            {"stratum": "age", "effects": {"a": 0.1}, "weights": {"a": 0.5}}
        )
    )
    rc, _, err = run(capsys, ["transport", "--effects", str(bad)])
    assert rc == 1
    assert "WeightsNotNormalized" in err


def test_nan_weight_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "effects.json"
    bad.write_text(
        json.dumps(
            {"stratum": "age", "effects": {"a": 0.1}, "weights": {"a": float("nan")}}
        )
    )
    rc, out, err = run(capsys, ["transport", "--effects", str(bad)])
    assert rc == 1
    assert out == ""
    assert "WeightsNotNormalized" in err


def test_invalid_env_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "env.json"
    bad.write_text(json.dumps({"arms": 3, "payout": [0.7, 0.3]}))
    rc, _, err = run(
        capsys,
        [
            "bandit",
            "sim",
            "--env",
            str(bad),
            "--policy",
            "thompson",
            "--horizon",
            "10",
            "--seed",
            "0",
        ],
    )
    assert rc == 2
    assert "not a valid bandit environment" in err


def test_invalid_mgraph_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "mg.json"
    bad.write_text(json.dumps({"x": 1}))
    rc, _, err = run(capsys, ["missing", "classify", "--graph", str(bad)])
    assert rc == 2
    assert "not a valid missingness graph" in err


def test_invalid_rcpt_file_is_exit_2(fixdir, datadir, tmp_path, capsys):
    bad = tmp_path / "rcpt.json"
    bad.write_text(
        json.dumps(
            {"Ry": {"parents": [], "states": ["0", "1"], "rows": [[[], [0.5]]]}}
        )
    )
    rc, _, err = run(
        capsys,
        [
            "missing",
            "mask",
            "--data",
            str(datadir / "xy.csv"),
            "--graph",
            str(fixdir / "mgraph_mar.json"),
            "--rcpt",
            str(bad),
            "--seed",
            "0",
        ],
    )
    assert rc == 2
    assert "not a valid indicator-table file" in err


def test_mask_without_a_row_for_a_declared_state_is_exit_1(fixdir, tmp_path, capsys):
    data = tmp_path / "xy_three_x.csv"
    data.write_text("X,Y\n0,1\n2,0\n1,1\n")
    rc, out, err = run(capsys, [
        "missing", "mask", "--data", str(data),
        "--graph", str(fixdir / "mgraph_mar.json"),
        "--rcpt", str(fixdir / "mgraph_mar_mask.json"), "--seed", "0",
    ])
    assert (rc, out) == (1, "")
    assert err == "error: InvalidCpt: Ry: no CPT row for parent states ('2',)\n"


def _with_nan(src, dest, *path):
    """Copy JSON file `src` to `dest` with the list at `path` set to NaNs."""
    payload = json.loads(src.read_text())
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = [float("nan")] * len(parent[path[-1]])
    dest.write_text(json.dumps(payload))  # written as the literal NaN
    return str(dest)


@pytest.mark.parametrize(
    "command, source, path, what",
    [
        ("scm query --model {bad} --target Y=1", "xy_scm.json",
         ("cpts", "Y", "rows", "X=1"), "model"),
        ("scm sample --model {bad} --n 5 --seed 0", "xy_scm.json",
         ("cpts", "X", "rows", ""), "model"),
        ("bandit sim --env {bad} --policy thompson --horizon 5 --seed 0",
         "bandit_paradoxical.json", ("confounder", "probs"), "bandit environment"),
        ("missing mask --data {data}/xy.csv --graph {fix}/mgraph_mar.json "
         "--rcpt {bad} --seed 0", "mgraph_mar_mask.json", ("Ry", "rows", 0, 1),
         "indicator-table file"),
    ],
    ids=["scm query", "scm sample", "bandit sim", "missing mask"],
)
def test_nan_distribution_is_exit_2(fixdir, datadir, tmp_path, capsys, command,
                                    source, path, what):
    bad = _with_nan(fixdir / source, tmp_path / source, *path)
    argv = command.format(fix=fixdir, data=datadir, bad=bad).split()
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {bad} is not a valid {what}: ")


@pytest.mark.parametrize(
    "command",
    [
        "scm sample --model {fix}/xy_scm.json --n 5 --seed 1 --save {target}",
        "missing mask --data {data}/xy.csv --graph {fix}/mgraph_mar.json "
        "--rcpt {fix}/mgraph_mar_mask.json --seed 0 --save {target}",
        "bandit sim --env {fix}/bandit_two_arm.json --policy thompson "
        "--horizon 5 --seed 0 --save {target}",
        "fixtures --dest {target}",
    ],
    ids=["scm sample", "missing mask", "bandit sim", "fixtures"],
)
def test_unwritable_output_is_exit_2(fixdir, datadir, tmp_path, capsys, command):
    # a path below a regular file cannot be created, even by a superuser
    (tmp_path / "plain").write_text("")
    target = tmp_path / "plain" / "out"
    argv = command.format(fix=fixdir, data=datadir, target=target).split()
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in err


def test_domain_error_is_exit_1(fixdir, capsys):
    rc, _, err = run(
        capsys,
        [
            "dsep",
            "--graph",
            str(fixdir / "kidney_graph.json"),
            "--x",
            "Nope",
            "--y",
            "recovery",
        ],
    )
    assert rc == 1
    assert err.startswith("error: UnknownNode")


def test_zero_evidence_is_exit_1(fixdir, capsys):
    rc, _, err = run(
        capsys,
        [
            "scm",
            "query",
            "--model",
            str(fixdir / "covid_scm.json"),
            "--target",
            "risk=low",
            "--given",
            "test=0",
            "antibody=1",
        ],
    )
    assert rc == 1
    assert "ZeroEvidenceProbability" in err


def test_unknown_state_is_exit_1(fixdir, capsys):
    rc, _, err = run(
        capsys,
        [
            "estimate",
            "do",
            "--data",
            str(fixdir / "kidney.csv"),
            "--x",
            "treatment=C",
            "--y",
            "recovery=1",
            "--adjust",
            "severity",
        ],
    )
    assert rc == 1
    assert "UnknownState" in err


def test_unmatched_missingness_pattern_is_exit_1(fixdir, datadir, capsys):
    rc, _, err = run(
        capsys,
        [
            "missing",
            "recover",
            "--data",
            str(datadir / "xy_mar.csv"),
            "--graph",
            str(fixdir / "mgraph_mar.json"),
            "--vars",
            "X",
        ],
    )
    assert rc == 1
    assert "UnmatchedPattern" in err


def test_usage_errors_are_exit_2(fixdir, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "scm",
                "sample",
                "--model",
                str(fixdir / "confounded_scm.json"),
                "--n",
                "5",
            ]
        )
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "scm",
                "query",
                "--model",
                str(fixdir / "covid_scm.json"),
                "--target",
                "antibody",
            ]
        )
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()



@pytest.mark.parametrize(
    "command, flag",
    [
        ("bandit sim --env {fix}/bandit_two_arm.json --policy thompson "
         "--horizon -1 --seed 0", "--horizon"),
        ("bandit sim --env {fix}/bandit_two_arm.json --policy thompson "
         "--horizon 5 --seed -1", "--seed"),
        ("bandit sim --env {fix}/bandit_two_arm.json --policy epsilon "
         "--epsilon 3 --horizon 5 --seed 0", "--epsilon"),
        ("scm sample --model {fix}/xy_scm.json --n -1 --seed 0", "--n"),
        ("scm sample --model {fix}/xy_scm.json --n 5 --seed -1", "--seed"),
        ("missing mask --data {data}/xy.csv --graph {fix}/mgraph_mar.json "
         "--rcpt {fix}/mgraph_mar_mask.json --seed -1", "--seed"),
        ("discover pc --data {data}/xy.csv --alpha 2", "--alpha"),
        ("discover pc --data {data}/xy.csv --alpha 0", "--alpha"),
        ("discover pc --data {data}/xy.csv --max-cond -1", "--max-cond"),
        ("discover pc --data {data}/xy.csv --min-expected nan", "--min-expected"),
        ("discover pc --data {data}/xy.csv --min-expected -1", "--min-expected"),
    ],
    ids=[
        "horizon -1", "bandit seed -1", "epsilon 3", "n -1", "sample seed -1",
        "mask seed -1", "alpha 2", "alpha 0", "max-cond -1", "min-expected nan",
        "min-expected -1",
    ],
)
def test_out_of_range_number_is_exit_2(fixdir, datadir, capsys, command, flag):
    argv = command.format(fix=fixdir, data=datadir).split()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, flag, node",
    [
        (["--target", "Wet=1", "Wet=0"], "--target", "Wet"),
        (["--target", "Wet=1", "--given", "Rain=1", "Rain=0"], "--given", "Rain"),
        (["--target", "Wet=1", "--do", "Sprinkler=1", "Sprinkler=0"], "--do", "Sprinkler"),
        (["--target", "Wet=1", "--do", "Sprinkler=1", "Sprinkler=1"], "--do", "Sprinkler"),
    ],
    ids=["target", "given", "do", "do same value"],
)
def test_scm_query_node_named_twice_is_exit_2(fixdir, capsys, flags, flag, node):
    argv = ["scm", "query", "--model", str(fixdir / "sprinkler_scm.json"), *flags]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: node '{node}' given twice" in captured.err


def test_in_range_numbers_at_their_bounds_pass(fixdir, datadir, capsys):
    rc, out, _ = run(
        capsys,
        ["bandit", "sim", "--env", str(fixdir / "bandit_two_arm.json"),
         "--policy", "epsilon", "--epsilon", "1", "--horizon", "0", "--seed", "0"],
    )
    assert rc == 0 and out.startswith("policy: epsilon")
    rc, out, _ = run(
        capsys, ["scm", "sample", "--model", str(fixdir / "xy_scm.json"),
                 "--n", "0", "--seed", "0"],
    )
    assert rc == 0
    rc, _, _ = run(
        capsys, ["discover", "pc", "--data", str(datadir / "xy.csv"), "--alpha", "0.999"]
    )
    assert rc == 0


def test_non_utf8_input_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    rc, out, err = run(
        capsys, ["dsep", "--graph", str(bad), "--x", "a", "--y", "b"]
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in err


def test_inputs_load_in_flag_order_before_the_handler(fixdir, datadir, tmp_path, capsys):
    # each run spoils one input and every input after it: the first
    # spoiled one in flag order is the one reported, and nothing is printed
    inputs = [
        ("--data", str(datadir / "xy.csv")),
        ("--graph", str(fixdir / "mgraph_mar.json")),
        ("--rcpt", str(fixdir / "mgraph_mar_mask.json")),
    ]
    for first in range(len(inputs)):
        argv = ["missing", "mask", "--seed", "0"]
        for i, (flag, path) in enumerate(inputs):
            argv += [flag, str(tmp_path / f"missing{i}") if i >= first else path]
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path / f'missing{first}'}: ")


def test_csv_inputs_go_through_the_class_attribute(fixdir, monkeypatch, capsys):
    # a wrapper bound on `DiscreteDataset.from_csv` after the CLI is
    # imported, as the benchmark's tracer binds one, sees every table read
    read = []
    original = DiscreteDataset.from_csv

    def recording(text, *args, **kwargs):
        read.append(text)
        return original(text, *args, **kwargs)

    monkeypatch.setattr(DiscreteDataset, "from_csv", staticmethod(recording))
    path = fixdir / "kidney.csv"
    rc, _, _ = run(
        capsys,
        ["estimate", "do", "--data", str(path), "--x", "treatment=A", "--y", "recovery=1"],
    )
    assert rc == 0
    assert read == [path.read_text()]


# -- requests past a fixed budget ------------------------------------------------------


def test_selection_check_refuses_a_complete_32_node_dag(tmp_path, capsys):
    names = [f"N{i:02d}" for i in range(32)]
    graph = CausalGraph(
        names[:-1] + [(names[-1], "selection")],
        [(a, b) for i, a in enumerate(names) for b in names[i + 1:]],
    )
    path = tmp_path / "complete_graph.json"
    path.write_text(graph_to_json(graph))
    argv = ["selection-check", "--graph", str(path), "--x", "N01", "--y", "N02"]
    rc, out, err = cpu_bounded(lambda: run(capsys, argv), 5)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: GraphTooLarge: ")


def test_out_of_memory_is_exit_2(fixdir, capsys):
    # 10^15 rows of codes need petabytes, more than any address space
    rc, out, err = run(
        capsys,
        ["scm", "sample", "--model", str(fixdir / "xy_scm.json"),
         "--n", str(10**15), "--seed", "0"],
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: out of memory: ")
    assert "Traceback" not in err
