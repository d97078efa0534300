"""A fuzzer over the CLI's own parser.

Each example picks a subcommand of `cli.build_parser()` and walks the flags
it declares, filling each with a drawn value: an exported fixture file of
the right or the wrong kind, a missing, unreadable or garbage file, a CSV
with quoted cells, a duplicated header name, a field past the csv module's
size limit or an X state the indicator tables have no row for, a model
past the query budget or with one CPT row for 5^9 parent states, JSON of
the wrong shape (`[]`, `null`, a list of CPTs, a number for the payouts), an
unwritable output path, node names and states the fixtures do or do not
have, and numbers in or out of range. Required flags are sometimes left
out. Every run goes through `cli.main` in-process and must return, or exit,
with 0, 1 or 2, print no traceback, and stay within a CPU-time bound.

`--n` and `--horizon` are drawn at 10^4 or below, or at one of four sizes
no host can hold (10^15, 2^60 - 1, and the refused 2^60 and 2^64): any other
valid count really asks for that many rows or rounds, and whether a few
hundred GiB is refused at allocation depends on the host's overcommit
setting. The 10^5-row covid study is never an input.
"""

import argparse
import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalkit import (
    CausalGraph, apply_missingness, cli, env_to_dict, graph_to_dict, scm_to_dict
)
from causalkit import fixtures as fx
from test_cli_golden import _subcommands
from test_scm import cpu_bounded, cpu_bounded_child, dense_scm, nine_parent_model_json

LEAVES = _subcommands(cli.build_parser())
SCMS = (
    fx.kidney_scm(),
    fx.confounded_scm(),
    fx.sprinkler_scm(),
    fx.covid_scm(),
    fx.xy_scm(),
    fx.collider_chain_scm(),
)
# every pair of nodes joined, the last a selection sink: listing the paths
# between two of its nodes runs past the step budget
COMPLETE = CausalGraph(
    [f"N{i:02d}" for i in range(11)] + [("N11", "selection")],
    [(f"N{i:02d}", f"N{j:02d}") for i in range(12) for j in range(i + 1, 12)],
)
GRAPHS = [scm.graph for scm in SCMS] + [
    fx.smoking_graph(),
    fx.mgraph_two_sided().graph,
    COMPLETE,
]
NAMES = sorted({n for g in GRAPHS for n in g.node_names()}) + ["Nope", "", "X,Y"]
STATES = sorted(
    {v for scm in SCMS for row in scm.sample(50, 0, include_latent=True).rows for v in row}
) + ["no-such-state", ""]
BAD_COUNTS = ["-1", "1.5", "1e3", "nan", "", "x"]
# too large for memory (exit 2 at allocation) or for the flag (exit 2 in argparse)
HUGE_SIZES = [str(10**15), str(2**60 - 1), str(2**60), str(2**64)]
REALS = ["0", "1", "0.5", "0.05", "1e-300", "-1", "2", "nan", "inf", "-inf", "", "x"]


def _words(text):
    """Every name a file mentions: JSON keys and strings, or CSV cells."""
    try:
        payload = json.loads(text)
    except ValueError:
        return {cell for line in text.splitlines() for cell in line.split(",")}
    words, stack = set(), [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            words.update(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            words.add(item)
    return words


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input and output paths, all under one directory, with the words each
    input file mentions."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        name: text
        for name, text in fx.fixture_files().items()
        if name != "covid_study.csv"
    }
    xy = fx.xy_scm().sample(300, seed=3)
    texts["xy.csv"] = xy.to_csv()
    texts["complete_graph.json"] = json.dumps(graph_to_dict(COMPLETE))
    texts["xy_mar.csv"] = apply_missingness(
        xy, fx.mgraph_mar(), fx.mask_cpts(fx.mgraph_mar()), 7
    ).to_csv()
    # quoted cells send the load down the whole-text route
    texts["xy_quoted.csv"] = "".join(
        ",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
        for line in texts["xy.csv"].splitlines()
    )
    texts["duplicate_header.csv"] = "X,X\n0,1\n"
    # the mask tables have rows for X = 0 and 1 only: `missing mask` exits 1
    texts["xy_three_x.csv"] = texts["xy.csv"] + "2,0\n2,1\n"
    texts["broken.json"] = '{"nodes": ['
    texts["empty.txt"] = ""
    nan_model = json.loads(texts["xy_scm.json"])
    nan_model["cpts"]["X"]["rows"][""] = [float("nan"), float("nan")]
    texts["nan_model.json"] = json.dumps(nan_model)
    # valid JSON of the wrong shape: not an object, or a list or number
    # where the codec reads a mapping
    texts["list_mask.json"] = "[]"
    texts["null_mask.json"] = "null"
    texts["list_cpts_scm.json"] = json.dumps(scm_to_dict(fx.xy_scm()) | {"cpts": []})
    texts["bandit_number_payout.json"] = json.dumps(
        env_to_dict(fx.paradoxical_env()) | {"payout": 5}
    )
    # past the query budget, and a CPT of one row for 5^9 parent states
    dense = dense_scm()
    texts["dense_scm.json"] = json.dumps(scm_to_dict(dense))
    texts["nine_parent_scm.json"] = nine_parent_model_json()
    words = {}
    for name, text in texts.items():
        (root / name).write_text(text)
        words[str(root / name)] = sorted(_words(text))
    # its nodes and states, not its 10,156 row keys
    words[str(root / "dense_scm.json")] = [*dense.graph.node_names(), *"01234"]
    # one field past the csv module's limit; its words are the header's
    big = root / "oversized_field.csv"
    big.write_text("X,Y\n" + "1" * (csv.field_size_limit() + 1) + ",0\n")
    words[str(big)] = ["X", "Y"]
    (root / "latin1.json").write_bytes(b"\xff\xfe{}")
    (root / "a_directory").mkdir()
    (root / "plain").write_text("")
    (root / "out").mkdir()
    for name in ("latin1.json", "a_directory", "no_such_file"):
        words[str(root / name)] = []
    return {
        "inputs": sorted(words),
        "words": words,
        "outputs": [str(root / "out" / "result"), str(root / "plain" / "below_a_file")],
        "drawn": str(root / "drawn.txt"),
    }


# the file names a flag's own kind of input has
KINDS = {
    "graph": ("_graph.json", "mgraph_mar.json", "mgraph_mcar.json",
              "mgraph_self_masking.json", "mgraph_two_sided.json"),
    "model": ("_scm.json", "nan_model.json"),
    "data": (".csv",),
    "env": ("bandit_",),
    "effects": ("age_strata.json",),
    "rcpt": ("_mask.json",),
}


def _input(draw, files, dest):
    """A file for input flag `dest`: mostly of its own kind, sometimes any
    file or drawn text."""
    own = [p for p in files["inputs"] if any(k in p.rsplit("/", 1)[1] for k in KINDS[dest])]
    path = draw(_mostly(st.sampled_from(own), st.sampled_from(files["inputs"] + [None])))
    if path is None:
        path = files["drawn"]
        with open(path, "w") as fh:
            fh.write(draw(st.text(max_size=200)))
    return path


def _mostly(good, bad=st.just(False)):
    """A value from `good` nine times in ten, else one from `bad`."""
    # one_of would merge the repeated strategy and draw each half the time
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else bad)


def _values(draw, action, files, vocab):
    """The words after one flag, drawn by what the flag takes."""
    if action.dest in ("save", "dest"):
        return [draw(st.sampled_from(files["outputs"]))]
    if action.nargs == 0:
        return []
    names = _mostly(st.sampled_from(vocab or NAMES), st.sampled_from(NAMES))
    if action.choices:
        one = _mostly(st.sampled_from(action.choices), st.just("bogus"))
    elif action.type is None:
        one = names
    elif action.type is cli._assignment:
        one = st.builds(
            lambda n, s, sep: f"{n}{sep}{s}",
            names,
            _mostly(names, st.sampled_from(STATES)),
            _mostly(st.just("="), st.just("")),
        )
    elif action.type is cli._SIZE:
        huge = st.sampled_from(HUGE_SIZES)
        one = _mostly(st.one_of(st.integers(0, 10**4).map(str), huge),
                      st.sampled_from(BAD_COUNTS))
    elif action.type is cli._COUNT:
        huge = st.sampled_from(["99999999999", str(2**64)])
        one = _mostly(st.one_of(st.integers(0, 5).map(str), huge), st.sampled_from(BAD_COUNTS))
    else:
        one = _mostly(st.floats(0, 1).map(repr), st.sampled_from(REALS))
    if action.nargs in ("+", "*"):
        return draw(_mostly(st.lists(one, min_size=1, max_size=3), st.just([])))
    return [draw(one)]


@st.composite
def argvs(draw, files):
    name = draw(st.sampled_from(sorted(LEAVES)))
    leaf = LEAVES[name]
    inputs = {flag[2:] for flag, *_ in leaf.get_default("inputs")}
    groups, vocab = [], set()
    for action in leaf._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not draw(_mostly(st.just(True)) if action.required else st.booleans()):
            continue
        if action.dest in inputs:
            path = _input(draw, files, action.dest)
            vocab.update(files["words"].get(path, []))
            groups.append([action.option_strings[0], path])
        else:
            groups.append([action.option_strings[0], *_values(draw, action, files, sorted(vocab))])
    groups = draw(st.permutations(groups))
    return name.split() + [word for group in groups for word in group]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_drawn_command_exits_cleanly(files, data):
    argv = data.draw(argvs(files), label="argv")
    code, err = cpu_bounded(lambda: _run(argv), 5.0)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["selection-check", "--x", "N01", "--y", "N02"],
        ["dsep", "--x", "N01", "--y", "N02", "--given", "N03"],
        ["backdoor-check", "--x", "N01", "--y", "N02", "--adjust", "N00"],
    ],
    ids=lambda argv: argv[0],
)
def test_complete_graph_commands_exit_cleanly(files, argv):
    # st.data() takes no @example, so the complete graph is pinned here
    path = next(p for p in files["inputs"] if p.endswith("complete_graph.json"))
    code, err = cpu_bounded(lambda: _run(argv + ["--graph", path]), 5.0)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("size", HUGE_SIZES)
@pytest.mark.parametrize(
    "argv",
    [
        ["scm", "sample", "--model", "xy_scm.json", "--seed", "0", "--n"],
        ["bandit", "sim", "--env", "bandit_two_arm.json", "--policy", "thompson",
         "--seed", "0", "--horizon"],
    ],
    ids=["n", "horizon"],
)
def test_huge_sizes_exit_2_at_once(files, argv, size):
    # st.data() takes no @example, so the sizes are pinned here
    paths = {p.rsplit("/", 1)[1]: p for p in files["inputs"]}
    argv = [paths.get(word, word) for word in argv] + [size]
    code, err = cpu_bounded(lambda: _run(argv), 5.0)
    assert code == 2, err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["scm", "query", "--model", "dense_scm.json", "--target", "D19=1"],
         1, "error: ModelTooLarge: "),
        (["scm", "query", "--model", "nine_parent_scm.json", "--target", "Y=1"],
         2, "is not a valid model: Y: 1 CPT rows"),
        (["scm", "sample", "--model", "nine_parent_scm.json", "--n", "10", "--seed", "0"],
         2, "is not a valid model: Y: 1 CPT rows"),
    ],
    ids=["dense-query", "nine-parent-query", "nine-parent-sample"],
)
def test_model_refusals_exit_cleanly(files, argv, code, message):
    # in a child process: a loop inside one numpy call ignores cpu_bounded
    paths = {p.rsplit("/", 1)[1]: p for p in files["inputs"]}
    argv = [paths.get(word, word) for word in argv]
    out, err = cpu_bounded_child(f"""
        try:
            code = causalkit.cli.main({argv!r})
        except SystemExit as exc:
            code = exc.code
        print(code)
    """, 5.0)
    assert out == [str(code)], err
    assert message in err and "Traceback" not in err
