"""Byte-level pins of the CLI: stdout digests and the parser's flag table.

Every README command and one invocation of each of the 19 subcommands runs
in both `--out text` and `--out json`; the sha256 of each stdout is pinned.
So is every subcommand's flag table (option strings, dest, default,
choices, required, nargs) and its `--help` text. A refactor of the CLI's
plumbing must leave all of these unchanged: the same bytes on stdout, the
same options and the same help.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

import pytest

from causalkit import cli

# README's quick-start session, in order; later commands read files that
# earlier ones wrote, relative to the session directory.
README_COMMANDS = [
    "fixtures --dest fixtures",
    "dsep --graph fixtures/smoking_graph.json --x Smoking --y Lung_cancer --given Genotype",
    "estimate do --data fixtures/kidney.csv --x treatment=A --y recovery=1 --adjust severity",
    "estimate simpson --data fixtures/kidney.csv --x treatment --y recovery=1 --strata severity",
    "selection-check --graph fixtures/covid_graph.json --x test --y antibody",
    "estimate do --data fixtures/covid_study.csv --x test=1 --y antibody=1",
    "debias --data fixtures/covid_study.csv --x test=1 --y antibody=1 --strata risk virus",
    "scm query --model fixtures/covid_scm.json --target antibody=1 --do test=1",
    "missing classify --graph fixtures/mgraph_self_masking.json",
    "scm sample --model fixtures/xy_scm.json --n 100000 --seed 21 --save xy.csv",
    "missing mask --data xy.csv --graph fixtures/mgraph_mar.json "
    "--rcpt fixtures/mgraph_mar_mask.json --seed 22 --save xy_mar.csv",
    "missing recover --data xy_mar.csv --graph fixtures/mgraph_mar.json --vars X Y",
    "bandit sim --env fixtures/bandit_paradoxical.json --policy causal_thompson "
    "--horizon 2000 --seed 7",
    "scm sample --model fixtures/collider_chain_scm.json --n 10000 --seed 2 --save cc.csv",
    "discover pc --data cc.csv",
    "discover ges --data cc.csv",
]

# One invocation per subcommand, run after the README session in the same
# directory. `scm sample` writes the small tables the later commands read.
SUBCOMMANDS = {
    "dsep": "dsep --graph fixtures/collider_chain_graph.json --x X --y Y --given W",
    "backdoor-check": "backdoor-check --graph fixtures/kidney_graph.json "
    "--x treatment --y recovery --adjust severity",
    "identify": "identify --graph fixtures/smoking_graph.json --x Smoking "
    "--y Lung_cancer --w Genotype",
    "scm sample": "scm sample --model fixtures/confounded_scm.json --n 6 --seed 1 "
    "--include-latent",
    "scm query": "scm query --model fixtures/sprinkler_scm.json --target Wet=1 "
    "--given Rain=0 --do Sprinkler=1",
    "estimate do": "estimate do --data fixtures/kidney.csv --x treatment=B "
    "--y recovery=1 --adjust severity --ratio",
    "estimate ace": "estimate ace --data fixtures/kidney.csv --x treatment --treat A "
    "--control B --y recovery=1 --adjust severity",
    "estimate simpson": "estimate simpson --data fixtures/kidney.csv --x treatment "
    "--y recovery=0 --strata severity",
    "selection-check": "selection-check --graph fixtures/covid_graph.json --x risk --y antibody",
    "debias": "debias --data fixtures/covid_study.csv --x test=1 --y antibody=0 "
    "--strata virus risk",
    "transport": "transport --effects fixtures/age_strata.json",
    "missing classify": "missing classify --graph fixtures/mgraph_mar.json",
    "missing mask": "missing mask --data xy.csv --graph fixtures/mgraph_two_sided.json "
    "--rcpt fixtures/mgraph_two_sided_mask.json --seed 3",
    "missing recover": "missing recover --data xy_mar.csv --graph fixtures/mgraph_mar.json "
    "--vars Y X",
    "missing testable": "missing testable --graph fixtures/mgraph_two_sided.json "
    "--x X --y Y",
    "bandit sim": "bandit sim --env fixtures/bandit_two_arm.json --policy epsilon "
    "--epsilon 0.2 --horizon 300 --seed 4 --benchmark marginal --save log.csv",
    "discover pc": "discover pc --data cc.csv --alpha 0.01 --max-cond 1",
    "discover ges": "discover ges --data xy_mar.csv",
    "fixtures": "fixtures --dest more/fixtures",
}


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0, argv
    return buf.getvalue()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """sha256 of stdout per (case, format), all commands run in one directory."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("session"))
    try:
        cases = [("readme: " + line, line) for line in README_COMMANDS]
        cases += list(SUBCOMMANDS.items())
        out = {}
        for name, line in cases:
            for fmt in ("text", "json"):
                text = _stdout(line.split() + ["--out", fmt])
                out[f"{name} [{fmt}]"] = hashlib.sha256(text.encode()).hexdigest()
        return out
    finally:
        os.chdir(cwd)


STDOUT_SHA256 = {
    "backdoor-check [json]": "add21baa9d5998838ac0d9cb5eacbd539ecfae4a67ab37f19b4c16aa55a535e0",
    "backdoor-check [text]": "9c595557718c560cf68e44fc90b40db5b37655713b36af5acb733dcd3a2302da",
    "bandit sim [json]": "5d043fbc6827ffd0eec4525a98d3170657d90da08c2c4f5cc236c1fa9f9184d1",
    "bandit sim [text]": "f9a6e22c7178be14311de5b56deb6c836d32245b087e1c0a69f6ff4e52c1a368",
    "debias [json]": "ab302ea755267cc78807504bebb9de536b36890a02322b856921dc53ef9466de",
    "debias [text]": "e8d56696ca62aff8fd3ba9298e26355d24140be05dfa4a30306bc30fe72076e6",
    "discover ges [json]": "2a2e8ad02ccec211e0a8de67c6b32f00eff5f39a4022432d22044984a4256ff6",
    "discover ges [text]": "0be0a9a2ef1bd1832da4ab19c840e4f870c03c1534363b3cbc57c20e94127e09",
    "discover pc [json]": "88d4f59ce100464fbe9e6b5096672b2529fba4e86c0be98049b9cb67e236f5cb",
    "discover pc [text]": "31de33a34d16945d95106969125d31c96ef9a2d2da17255f2a7704aa21bf196e",
    "dsep [json]": "12596c7120255bc2a55c0d4e34b1a7ab8509994ccef1f581247e144bce8d2b7d",
    "dsep [text]": "06c7d2949d8c1eb6d32260dbac6134f4bacbd858896397d7f65ab0c28127a5b9",
    "estimate ace [json]": "5d450f8e462fef140963d4db0f5c0756772ad357c5a5dcbc6097ee3ebeb5f487",
    "estimate ace [text]": "9c1f466634067d0a36461ce5b5ee61c243aab13254035201ab7893b01ef86359",
    "estimate do [json]": "648f07b192073ae3ac9e6e3d7301a86fef383f6529be51230aee07436cc9f187",
    "estimate do [text]": "e5fb92406a43ee98039c49dfa44b999dbc669f7a6fdbe335e9858e55da24db1b",
    "estimate simpson [json]": "b9fda8778272ecd5b3c229cfedcb46fdfa858734b680d0ae5ef6200b1e4bc473",
    "estimate simpson [text]": "93a3043434921944b844511776d7a27e92e863631a43f61b63275d2e798d952c",
    "fixtures [json]": "c113a7c7a91a2f635b604310bbc6a929d4e5eefb88da69ffa3a40670d68d7f90",
    "fixtures [text]": "d603e83ae043e1bf89771eeb8ef8bd2b3aa6ff4def9a6922f1f379e62b0cc5eb",
    "identify [json]": "7ee172fe92db1866e0284557cd2f7b177a4d0941abeea28fe52b3771cd79ab40",
    "identify [text]": "15cace9ef3e8605581e074164feb21829957b7b13dd4a485c215ab7f2b919d72",
    "missing classify [json]": "217d4d40a2e9ed18062a67c328e67340219a35aa495e7380a96a0f4da424bc98",
    "missing classify [text]": "efaefefd99055fa3678782ccbd2e7c50f712cd595058d13107f73fbf6ecaf496",
    "missing mask [json]": "a8139bfb1a93643620e88241c29195a9f45042ad8ba9668c03204af62595afd2",
    "missing mask [text]": "517a732ef21c24ab303a64ef49bf166809405f944e082026938d212af73ac6ce",
    "missing recover [json]": "b9ad6164746a664c70ad0d127f4b402fac7d9db218e83b3d917bd566d29f3274",
    "missing recover [text]": "8e5c776d93b74884c9c997bd11a61e72c4f8649d67e1e5db8f3fa2f0327e6008",
    "missing testable [json]": "3f1f250059dad4b9610cb5be2ffa325332ec207c5754b5606781bd292aaac6bb",
    "missing testable [text]": "8f778bf8e252bc32cdade7147f6c27ea77aed6ac31b207db4ffc9dfbe5d1b645",
    "readme: bandit sim --env fixtures/bandit_paradoxical.json --policy causal_thompson --horizon 2000 --seed 7 [json]": "b711bd1e134f5728c9c5b9356932ea2bdd2c4a899e74bdd76cf4a4ba3dd7043c",
    "readme: bandit sim --env fixtures/bandit_paradoxical.json --policy causal_thompson --horizon 2000 --seed 7 [text]": "9b7d906bc87b9a8153fc2a4112173c3c99b0d28a2b09b5018aa3976075067b0f",
    "readme: debias --data fixtures/covid_study.csv --x test=1 --y antibody=1 --strata risk virus [json]": "76bc2af7c6902cb6e1ee6a41fe97c6b4dda4cc8c7541d2f3824a5b37eff96694",
    "readme: debias --data fixtures/covid_study.csv --x test=1 --y antibody=1 --strata risk virus [text]": "dfa62bd4e701fea66ae583c3ec811a094010e3d6253b20944c66da6c88044bd3",
    "readme: discover ges --data cc.csv [json]": "dd087e95ec790a6e99b62bf0aa77c68dc0c817d2a7a33aa73ab19a3e7c50bffd",
    "readme: discover ges --data cc.csv [text]": "7d04d0d9ca0f8e6998f8684b1175beebf59126cab8e7837680de81b5ba3f489c",
    "readme: discover pc --data cc.csv [json]": "88d4f59ce100464fbe9e6b5096672b2529fba4e86c0be98049b9cb67e236f5cb",
    "readme: discover pc --data cc.csv [text]": "31de33a34d16945d95106969125d31c96ef9a2d2da17255f2a7704aa21bf196e",
    "readme: dsep --graph fixtures/smoking_graph.json --x Smoking --y Lung_cancer --given Genotype [json]": "6e6601c0489382a9930a4d03b9b29de14bbc96e24186c532bda5e47484e35346",
    "readme: dsep --graph fixtures/smoking_graph.json --x Smoking --y Lung_cancer --given Genotype [text]": "06c7d2949d8c1eb6d32260dbac6134f4bacbd858896397d7f65ab0c28127a5b9",
    "readme: estimate do --data fixtures/covid_study.csv --x test=1 --y antibody=1 [json]": "c31c6da142c5c0e4f073c08b4b7811a50f53f44eb5230d8f1e95ba645a6e2c82",
    "readme: estimate do --data fixtures/covid_study.csv --x test=1 --y antibody=1 [text]": "1111ee0ebc1f7e9c7b057e3db66a992e1aa2bfe23f99da2a6ba4977cd98dd7f1",
    "readme: estimate do --data fixtures/kidney.csv --x treatment=A --y recovery=1 --adjust severity [json]": "f9d690263f3ee405fd7f542b22c695b7221e2c84b01ea7b7ce619800af4e7d0b",
    "readme: estimate do --data fixtures/kidney.csv --x treatment=A --y recovery=1 --adjust severity [text]": "ae5d101e69b802a86af94c4dcd8a791042c4e3982d2d7d180637fe232b65ba6f",
    "readme: estimate simpson --data fixtures/kidney.csv --x treatment --y recovery=1 --strata severity [json]": "a2aae2df25fd464439caad4ee0564d827f84ac4756ff9e9005c0a734a273846f",
    "readme: estimate simpson --data fixtures/kidney.csv --x treatment --y recovery=1 --strata severity [text]": "cd7866a4ec164fe8b74ad262a250672b23494ce8056fc9e8727292c71b50a190",
    "readme: fixtures --dest fixtures [json]": "1f68f278df98841714904c016f80530c092991931a120856eabc1180a2264861",
    "readme: fixtures --dest fixtures [text]": "624fd69fd4ccfff63d6ff66f035fd838775168f8bef01afc6c9dbfb72719bfdb",
    "readme: missing classify --graph fixtures/mgraph_self_masking.json [json]": "ac3e9123acccfc14d41962310d4079a1f44435af4cae05b1673e7e9f0dc0a055",
    "readme: missing classify --graph fixtures/mgraph_self_masking.json [text]": "8e3bb8ffc94cf8019ce00a2f03d8de3568b4bb2057df057fde8940017e3192ce",
    "readme: missing mask --data xy.csv --graph fixtures/mgraph_mar.json --rcpt fixtures/mgraph_mar_mask.json --seed 22 --save xy_mar.csv [json]": "1ed897b502c77e8631554761708e187a43d33418467a2cd3ae96919b87e7b103",
    "readme: missing mask --data xy.csv --graph fixtures/mgraph_mar.json --rcpt fixtures/mgraph_mar_mask.json --seed 22 --save xy_mar.csv [text]": "04d2a45e90261ba6a02557fa64e7af170e89f5899b4ef5da57cdbe7b39f4dff6",
    "readme: missing recover --data xy_mar.csv --graph fixtures/mgraph_mar.json --vars X Y [json]": "8042ec418bda0b05880bd3f44f1950de2afed71e7911c32c078dbd3ab8bdf5ac",
    "readme: missing recover --data xy_mar.csv --graph fixtures/mgraph_mar.json --vars X Y [text]": "51809b8f103c281ca377a11b5b50c2106696c74b0f7f1ccd51988bddf8dbf532",
    "readme: scm query --model fixtures/covid_scm.json --target antibody=1 --do test=1 [json]": "baef5de08c6549491f91200d1513cbfe630c5e523b7261bd538fcfd31eb32cca",
    "readme: scm query --model fixtures/covid_scm.json --target antibody=1 --do test=1 [text]": "87aa4cc068795a83ab8f398031d590196980c84148e947104b4e9d54b95763be",
    "readme: scm sample --model fixtures/collider_chain_scm.json --n 10000 --seed 2 --save cc.csv [json]": "a39e1a39ed2fa0aef3c0416d9fee2876d819361fa3a8fde27c5ce079e8a0219f",
    "readme: scm sample --model fixtures/collider_chain_scm.json --n 10000 --seed 2 --save cc.csv [text]": "0a5c60badc1d143461e23041b6c7faf62d06bf2ad230160894694ce7cba1c7c0",
    "readme: scm sample --model fixtures/xy_scm.json --n 100000 --seed 21 --save xy.csv [json]": "41e074e707999328cee7a7d9d754049bde78516f9de5d7cde7ffbaa8811093b0",
    "readme: scm sample --model fixtures/xy_scm.json --n 100000 --seed 21 --save xy.csv [text]": "257527a5bb3c1e125978ebce2a58d5292d73117f90fb293e90b8a2429e561368",
    "readme: selection-check --graph fixtures/covid_graph.json --x test --y antibody [json]": "693eba54c5bcdd21ccf2f7f7060bcf28b9e5a9148e64c0934b8e68f427bfeca7",
    "readme: selection-check --graph fixtures/covid_graph.json --x test --y antibody [text]": "00feed37eef432d0875a6467ad7a6a68fe5a9aed1ec5c07e315c5b503b7bbc1e",
    "scm query [json]": "e50f83d55e540429b6886a7a97db2f458f65bc8efb8e82ff56a774b15586ce0a",
    "scm query [text]": "00ae5e86da299bf9d8703bdbbe3aaf1e380043ebfa9aad86a80b2e159207a072",
    "scm sample [json]": "413c4e00f2c347b38f84371742412ff9631a291e7f542da3ebd49f8bac959abf",
    "scm sample [text]": "f5b72cef2fadba29a189291071af463e29d62fc550e8626ac5b73f6b5665725c",
    "selection-check [json]": "e8ef64019d6825a2623de438ed066eee09114ca433802463856d720f48ceea67",
    "selection-check [text]": "cbfc64ad0a83ce7b787553b26b23eb4186e7b003567d611331cc961eeb7eecb6",
    "transport [json]": "58d486f046e9081bddfa2d389d6517cd3d02e8e456b3263b6200a6037b3cdb10",
    "transport [text]": "215859983eab26976ac3b43fdf4045c2407a16d8eff466f3b96520cbf810a57e",
}


@pytest.mark.parametrize("case", sorted(STDOUT_SHA256))
def test_stdout_digest(digests, case):
    assert digests[case] == STDOUT_SHA256[case]


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(STDOUT_SHA256)
    assert len(SUBCOMMANDS) == 19


def _subcommands(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """{subcommand: its parser} for every leaf subcommand, e.g. "scm sample"."""
    leaves = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                leaves.update(_subcommands(sub, f"{prefix}{name} "))
    return leaves or {prefix.strip(): parser}


def _flag_table(parser: argparse.ArgumentParser) -> dict:
    """{subcommand: [(options, dest, default, choices, required, nargs)]}."""
    return {
        name: [
            (
                " ".join(a.option_strings),
                a.dest,
                a.default,
                tuple(a.choices) if a.choices else None,
                a.required,
                a.nargs,
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in _subcommands(parser).items()
    }


FLAG_TABLE = {
    "backdoor-check": [
        ("--graph", "graph", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--adjust", "adjust", [], None, False, "*"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "bandit sim": [
        ("--env", "env", None, None, True, None),
        ("--policy", "policy", None, ("greedy", "epsilon", "thompson", "causal_thompson", "uniform", "oracle"), True, None),
        ("--horizon", "horizon", None, None, True, None),
        ("--seed", "seed", None, None, True, None),
        ("--epsilon", "epsilon", 0.1, None, False, None),
        ("--benchmark", "benchmark", "conditional", ("conditional", "marginal"), False, None),
        ("--save", "save", None, None, False, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "debias": [
        ("--data", "data", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--strata", "strata", None, None, True, "+"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "discover ges": [
        ("--data", "data", None, None, True, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "discover pc": [
        ("--data", "data", None, None, True, None),
        ("--alpha", "alpha", 0.05, None, False, None),
        ("--max-cond", "max_cond", 3, None, False, None),
        ("--min-expected", "min_expected", 5.0, None, False, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "dsep": [
        ("--graph", "graph", None, None, True, None),
        ("--x", "x", None, None, True, "+"),
        ("--y", "y", None, None, True, "+"),
        ("--given", "given", [], None, False, "*"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "estimate ace": [
        ("--data", "data", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--treat", "treat", None, None, True, None),
        ("--control", "control", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--adjust", "adjust", [], None, False, "*"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "estimate do": [
        ("--data", "data", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--adjust", "adjust", [], None, False, "*"),
        ("--smooth", "smooth", False, None, False, 0),
        ("--ratio", "ratio", False, None, False, 0),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "estimate simpson": [
        ("--data", "data", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--strata", "strata", None, None, True, "+"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "fixtures": [
        ("--dest", "dest", None, None, True, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "identify": [
        ("--graph", "graph", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--w", "w", [], None, False, "*"),
        ("--given", "given", [], None, False, "*"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "missing classify": [
        ("--graph", "graph", None, None, True, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "missing mask": [
        ("--data", "data", None, None, True, None),
        ("--graph", "graph", None, None, True, None),
        ("--rcpt", "rcpt", None, None, True, None),
        ("--seed", "seed", None, None, True, None),
        ("--save", "save", None, None, False, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "missing recover": [
        ("--data", "data", None, None, True, None),
        ("--graph", "graph", None, None, True, None),
        ("--vars", "vars", None, None, True, "+"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "missing testable": [
        ("--graph", "graph", None, None, True, None),
        ("--x", "x", None, None, True, "+"),
        ("--y", "y", None, None, True, "+"),
        ("--given", "given", [], None, False, "*"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "scm query": [
        ("--model", "model", None, None, True, None),
        ("--target", "target", None, None, True, "+"),
        ("--given", "given", [], None, False, "*"),
        ("--do", "do", [], None, False, "*"),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "scm sample": [
        ("--model", "model", None, None, True, None),
        ("--n", "n", None, None, True, None),
        ("--seed", "seed", None, None, True, None),
        ("--save", "save", None, None, False, None),
        ("--include-latent", "include_latent", False, None, False, 0),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "selection-check": [
        ("--graph", "graph", None, None, True, None),
        ("--x", "x", None, None, True, None),
        ("--y", "y", None, None, True, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
    "transport": [
        ("--effects", "effects", None, None, True, None),
        ("--out", "out", "text", ("text", "json"), False, None),
    ],
}


def test_parser_flag_table():
    assert _flag_table(cli.build_parser()) == FLAG_TABLE


# sha256 of each subcommand's `--help` at a fixed width of 100 columns.
# argparse's layout can differ between Python releases; these are the
# digests under CPython 3.11.
HELP_SHA256 = {
    "backdoor-check": "a6357c274003473d294a5cfbf110638d3254357c09ec52e81e325c5d721aeddb",
    "bandit sim": "d63c98bb0a03f2c232980926e7dd4198ade1968d90caec79ba67cf93904559e1",
    "debias": "0aada0f6f3b93e99d39a400dfa5ff60c4603438388f39ccce7d1b7bfd0492d75",
    "discover ges": "172579b51a14c2017284ae98296693daf77fc009492cf01fa79f39d390bd5340",
    "discover pc": "a6589209c20a592a15d7554d704252e1015f93a52b75ff7b5c1deb322825dbc3",
    "dsep": "15ad4242a982b396857c5edab058282301847609668706b19f0ed417b2a3f48f",
    "estimate ace": "34e68a0972978c62b604ce57260b712f24af96700c46e902f257916878c91443",
    "estimate do": "2e114a9a13e44d7f9ee4cc40be779e8e9cc87afb7ab20d033133a4710dbbf415",
    "estimate simpson": "f5082761f0607cdab490617f8979c2d95bd499b0df97b24bd34612380bd09659",
    "fixtures": "e14f05e72024ae0a3eea0c2f1312fb44d6b505761d42ca44a6332c54fe757088",
    "identify": "f683a1b104658f4e6f80656dc794a28332c67bbf4a6c2398b5fb982c08feec1a",
    "missing classify": "8a158a2a64e48d089aa2ae554ed28cf7c68ffbda2e1edf93ee7aff49b5a081bc",
    "missing mask": "bbe9287472496a3cf6c6f06caa6b509b2404fede009167c80049cef9dbbf1ac3",
    "missing recover": "353d31bc1d0ac75a4f173add6295739d1190276210b0c87590599f6b8adde23a",
    "missing testable": "32d453d35f8a74e8dd80f57b3cde9610f383ddc72d72f9bf729644e8bf49b0eb",
    "scm query": "ff90c89f93f078c44935cb32743f8a7faf5fb98bfa42aeb3d4582eb7adeb36a7",
    "scm sample": "6ae16dc6191958f12e066edcebf1cc50713a203116e3203519e08cf5750e21d1",
    "selection-check": "1c9c55af3a7ff8bcc889431fb8379e3eb3e7a0e5e55ec64a40ea0a20fabccc59",
    "transport": "d91659d567a92509c27f4bc202108a57bf4c33ba4ed59aa96e3f1505db3468c7",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned under CPython 3.11")
def test_help_text_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    helps = {
        name: hashlib.sha256(sub.format_help().encode()).hexdigest()
        for name, sub in _subcommands(cli.build_parser()).items()
    }
    assert helps == HELP_SHA256
