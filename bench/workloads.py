"""The four benchmark workloads and the checks on their outputs.

A workload generates its inputs from the seed in `setup`, then yields an
endless stream of `Op`s in a fixed cyclic order. `cycle_len` ops make one
pass over the list; runs always stop on a pass boundary, so every run of a
workload measures the same mix of ops, and each process of a run times at
least `min_ops` ops. An op's `run` is the timed library call; its `check`
runs afterwards, untimed, and returns None when the output is right or a
message saying what is wrong. Checks read results through
plain Python, never through causalkit, so a traced run counts only the ops.

Workload    one op
discovery   sample a collider-chain dataset (10^4 rows), run pc and the
            greedy BIC search (one criterion-10 replicate)
tabular     one library call on a 10^5-row table from a fixed list
bandits     Thompson on two_arm_env (10^4 rounds), then causal Thompson
            and Thompson on paradoxical_env (2*10^3 rounds each)
cli         one `python -m causalkit.cli` process, spawn to exit
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from causalkit import bandits, data, discovery, estimation, fixtures, missing, transport
from causalkit import cli as ck_cli
from causalkit.graph import CausalGraph, Node, NodeKind, graph_to_dict
from causalkit.scm import Cpt, DiscreteScm, scm_to_dict

BENCH_DIR = Path(__file__).resolve().parent
DIGEST_FILE = BENCH_DIR / "digests.json"

# Replicate seeds whose discovery and bandit outputs are pinned in
# digests.json. Op k of a run with seed s uses replicate (13*s + k) mod 64.
DIGEST_SEEDS = 64


def replicate_seed(seed: int, k: int) -> int:
    return (13 * seed + k) % DIGEST_SEEDS


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class Size:
    """Input sizes. FULL is the benchmark; TINY is for the harness's tests."""

    discovery_rows: int
    tabular_rows: int
    horizons: tuple[int, int]
    dag_nodes: int
    chain_nodes: int
    full_cli: bool
    pinned: bool  # outputs at this size are pinned in digests.json


FULL = Size(10_000, 100_000, (10_000, 2_000), 10, 16, True, True)
TINY = Size(3_000, 30_000, (1_000, 200), 7, 10, False, False)
SIZES = {"full": FULL, "tiny": TINY}


def load_digests() -> dict:
    with open(DIGEST_FILE) as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- discovery ---------------------------------------------------------------


def discovery_replicate(rows: int, rseed: int):
    ds = fixtures.collider_chain_scm().sample(rows, rseed)
    pattern = discovery.pc(ds, alpha=0.05)
    graph, trace = discovery.greedy_score_search(ds)
    return pattern, graph, trace


def discovery_digest(out) -> str:
    pattern, graph, trace = out
    payload = {
        "directed": sorted(pattern.directed),
        "undirected": sorted(pattern.undirected),
        "conflicts": sorted(pattern.conflicts),
        "edges": sorted(graph.edges),
        "trace": [[s.op, s.edge, repr(s.score)] for s in trace],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:20]


def discovery_invariants(out) -> Optional[str]:
    pattern, graph, trace = out
    names = {"W", "X", "Y", "Z"}
    if set(pattern.nodes) != names or set(graph.node_names()) != names:
        return "node set changed"
    if {tuple(sorted(e)) for e in pattern.directed} & set(pattern.undirected):
        return "an edge is both directed and undirected"
    for a, b in pattern.directed | pattern.undirected | set(graph.edges):
        if a not in names or b not in names or a == b:
            return f"bad edge {a}-{b}"
    scores = [s.score for s in trace]
    if not all(math.isfinite(s) for s in scores):
        return "non-finite BIC score"
    if any(later < earlier for earlier, later in zip(scores, scores[1:])):
        return "greedy search accepted a worse score"
    return None


class _Replicates:
    """One op per replicate seed; at full size every output is pinned."""

    cycle_len = 1
    trace_ops = 3
    # Three processes share a run's timed phase, so a run times at least 24
    # replicates, enough for a percentile above the median with ten beyond it.
    min_ops = 8

    def __init__(self, size: Size):
        self.size = size

    def setup(self, tmp: Path, seed: int) -> None:
        self.seed = seed
        self.digests = load_digests()[self.name] if self.size.pinned else {}

    def op(self, k: int) -> Op:
        rseed = replicate_seed(self.seed, k)

        def check(out):
            problem = self.invariants(out)
            want = self.digests.get(str(rseed))
            if problem is None and want is not None and self.digest(out) != want:
                problem = f"replicate {rseed}: output differs from the pinned digest"
            return problem

        return Op(f"replicate[{rseed}]", lambda: self.replicate(rseed), check)

    def warmup(self) -> Op:
        return self.op(-1)

    def ops(self, start: int = 0) -> Iterator[Op]:
        for k in itertools.count(start):
            yield self.op(k)


class Discovery(_Replicates):
    name = "discovery"

    def replicate(self, rseed: int):
        return discovery_replicate(self.size.discovery_rows, rseed)

    def digest(self, out) -> str:
        return discovery_digest(out)

    def invariants(self, out) -> Optional[str]:
        return discovery_invariants(out)


# -- bandits -----------------------------------------------------------------


def bandit_replicate(horizons: tuple[int, int], rseed: int):
    long_h, short_h = horizons
    return (
        bandits.simulate(fixtures.two_arm_env(), bandits.make_policy("thompson"), long_h, rseed),
        bandits.simulate(
            fixtures.paradoxical_env(), bandits.make_policy("causal_thompson"), short_h, rseed
        ),
        bandits.simulate(fixtures.paradoxical_env(), bandits.make_policy("thompson"), short_h, rseed),
    )


def bandit_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.policy.encode())
        h.update(bytes(r.arm for r in res.rounds))
        h.update(bytes(r.reward for r in res.rounds))
        h.update(bytes(255 if r.intent is None else r.intent for r in res.rounds))
        h.update(array("d", res.cum_regret).tobytes())
    return h.hexdigest()[:20]


def bandit_invariants(results, horizons: tuple[int, int]) -> Optional[str]:
    expected = (horizons[0], horizons[1], horizons[1])
    for res, horizon in zip(results, expected):
        if len(res.rounds) != horizon or len(res.cum_regret) != horizon:
            return f"{res.policy}: trace length {len(res.rounds)} != horizon {horizon}"
        regret = res.cum_regret
        if any(b < a for a, b in zip(regret, regret[1:])) or (regret and regret[0] < 0):
            return f"{res.policy}: cumulative regret decreased"
        if any(r.arm not in (0, 1) or r.reward not in (0, 1) for r in res.rounds):
            return f"{res.policy}: arm or reward out of range"
    return None


class Bandits(_Replicates):
    name = "bandits"

    def replicate(self, rseed: int):
        return bandit_replicate(self.size.horizons, rseed)

    def digest(self, results) -> str:
        return bandit_digest(results)

    def invariants(self, results) -> Optional[str]:
        return bandit_invariants(results, self.size.horizons)


# -- tabular -----------------------------------------------------------------

EST_TOL = 0.02  # estimate vs exact truth
RATIO_TOL = 1e-12  # backdoor_adjust vs backdoor_adjust_ratio
L1_TOL = 0.02  # recovered joint vs exact joint

MGRAPHS = {
    "mcar": fixtures.mgraph_mcar,
    "mar": fixtures.mgraph_mar,
    "self_masking": fixtures.mgraph_self_masking,
    "two_sided": fixtures.mgraph_two_sided,
}
RECOVERABLE = ("mcar", "mar", "two_sided")


def _spot_check(ds, spots: dict[int, tuple], n: int, columns) -> Optional[str]:
    if len(ds.rows) != n:
        return f"{len(ds.rows)} rows, expected {n}"
    if tuple(ds.columns) != tuple(columns):
        return f"columns {ds.columns}"
    for i, row in spots.items():
        if ds.rows[i] != row:
            return f"row {i} reads {ds.rows[i]}, wrote {row}"
    return None


class Tabular:
    name = "tabular"
    cycle_len = 17
    trace_ops = 17
    min_ops = 0

    def __init__(self, size: Size):
        self.size = size

    def setup(self, tmp: Path, seed: int) -> None:
        n = self.size.tabular_rows
        self.seed = seed
        self.n = n
        self.tables: dict[str, Any] = {}
        self.paths: dict[str, Path] = {}
        self.spots: dict[str, dict[int, tuple]] = {}
        self.columns: dict[str, tuple] = {}
        rng = random.Random(seed)
        generated = {
            "confounded": fixtures.confounded_scm().sample(n, seed),
            "covid": fixtures.covid_study_dataset(n, seed + 1),
            "xy": fixtures.xy_scm().sample(n, seed + 2),
        }
        for name, ds in generated.items():
            path = tmp / f"{name}.csv"
            ds.save_csv(path)
            self.paths[name] = path
            self.columns[name] = tuple(ds.columns)
            self.spots[name] = {i: ds.rows[i] for i in rng.sample(range(n), 200)}
        del generated

        conf = fixtures.confounded_scm()
        self.truth = {
            "do1": conf.intervene({"X": "1"}).probability({"Y": "1"}),
            "do0": conf.intervene({"X": "0"}).probability({"Y": "1"}),
            "cond1": conf.query_conditional({"Y": "1"}, {"X": "1"}),
            "rate": {
                x: conf.query_conditional({"Y": "1"}, {"X": x}) for x in ("0", "1")
            },
            "debias": fixtures.covid_scm().intervene({"test": "1"}).probability(
                {"antibody": "1"}
            ),
        }
        xy = fixtures.xy_scm()
        self.truth["joint"] = {
            (x, y): xy.probability({"X": x, "Y": y}) for x in "01" for y in "01"
        }
        self.mask_seeds = {m: seed * 10 + j for j, m in enumerate(MGRAPHS)}
        self.masked: dict[str, Any] = {}
        self.results: dict[str, float] = {}

    def warmup(self) -> Op:
        def run():
            for name in ("confounded", "covid", "xy"):
                self.tables[name] = data.DiscreteDataset.load_csv(self.paths[name])

        return Op("load_csv[all]", run, lambda _: None)

    # Each builder below returns one op of the cycle.

    def _load(self, name):
        def run():
            ds = data.DiscreteDataset.load_csv(self.paths[name])
            self.tables[name] = ds
            return ds

        return Op(
            f"load_csv[{name}]",
            run,
            lambda ds: _spot_check(ds, self.spots[name], self.n, self.columns[name]),
        )

    def _estimate(self, label, fn, truth_key, pair_with=None, store=None):
        def run():
            return fn(self.tables)

        def check(value):
            truth = self.truth[truth_key]
            if not _close(value, truth, EST_TOL):
                return f"{value!r} is {abs(value - truth):.4f} from the truth {truth!r}"
            if store:
                self.results[store] = value
            if pair_with and pair_with in self.results:
                other = self.results[pair_with]
                if not _close(value, other, RATIO_TOL):
                    return f"{value!r} differs from {pair_with} {other!r}"
            return None

        return Op(label, run, check)

    def _ace(self):
        def run():
            return estimation.compute_ace(
                self.tables["confounded"], "X", "1", "0", "Y", "1", ["U"]
            )

        def check(value):
            truth = self.truth["do1"] - self.truth["do0"]
            if not _close(value, truth, EST_TOL):
                return f"ace {value!r} vs truth {truth!r}"
            if "bd1" in self.results and "bd0" in self.results:
                if not _close(value, self.results["bd1"] - self.results["bd0"], RATIO_TOL):
                    return "ace differs from the difference of the two adjusted arms"
            return None

        return Op("compute_ace", run, check)

    def _simpson(self):
        def run():
            return estimation.detect_simpson_reversal(
                self.tables["confounded"], "X", "Y", "1", ["U"]
            )

        def check(report):
            for x, truth in self.truth["rate"].items():
                if not _close(report.aggregate_rates[x], truth, EST_TOL):
                    return f"aggregate rate for X={x} is {report.aggregate_rates[x]!r}"
            # X=1 raises Y=1 in every U stratum and in aggregate: no reversal.
            if report.reversal or report.mixed:
                return "reported a reversal the model does not have"
            if set(report.stratum_signs.values()) != {-1}:
                return f"stratum signs {report.stratum_signs}"
            return None

        return Op("detect_simpson_reversal", run, check)

    def _mask(self, mname):
        mg = MGRAPHS[mname]()
        cpts = fixtures.mask_cpts(mg)
        seed = self.mask_seeds[mname]

        def run():
            masked = missing.apply_missingness(self.tables["xy"], mg, cpts, seed)
            verdict = missing.recover_joint(mg, masked, ["X", "Y"]) if mname == "self_masking" else None
            return masked, verdict

        def check(out):
            masked, verdict = out
            base = self.tables["xy"]
            if len(masked.rows) != len(base.rows):
                return "row count changed"
            cols = list(masked.columns)
            for var, (r, _) in mg.partial.items():
                vi, ri = cols.index(var), cols.index(r)
                for row, orig in zip(masked.rows, base.rows):
                    hidden = row[vi] is None
                    if hidden != (row[ri] == "1"):
                        return f"{var} masking disagrees with indicator {r}"
                    if not hidden and row[vi] != orig[vi]:
                        return f"an observed {var} cell changed"
            if mname == "self_masking":
                if verdict is not missing.NOT_RECOVERABLE:
                    return f"self-masking recovery returned {verdict!r}"
            else:
                self.masked[mname] = masked
            return None

        return Op(f"apply_missingness[{mname}]", run, check)

    def _recover(self, mname):
        mg = MGRAPHS[mname]()

        def run():
            return missing.recover_joint(mg, self.masked[mname], ["X", "Y"])

        def check(table):
            entries = getattr(table, "entries", None)
            if entries is None:
                return f"returned {table!r}"
            l1 = sum(abs(entries.get(k, 0.0) - p) for k, p in self.truth["joint"].items())
            l1 += sum(abs(p) for k, p in entries.items() if k not in self.truth["joint"])
            if l1 > L1_TOL:
                return f"L1 distance {l1:.4f} to the exact joint"
            return None

        return Op(f"recover_joint[{mname}]", run, check)

    def cycle(self) -> list[Op]:
        ops = [self._load(name) for name in ("confounded", "covid", "xy")]
        ops += [
            self._estimate(
                "backdoor_adjust[X=1]",
                lambda t: estimation.backdoor_adjust(t["confounded"], "X", "1", "Y", "1", ["U"]),
                "do1",
                store="bd1",
            ),
            self._estimate(
                "backdoor_adjust[X=0]",
                lambda t: estimation.backdoor_adjust(t["confounded"], "X", "0", "Y", "1", ["U"]),
                "do0",
                store="bd0",
            ),
            self._estimate(
                "backdoor_adjust_ratio[X=1]",
                lambda t: estimation.backdoor_adjust_ratio(
                    t["confounded"], "X", "1", "Y", "1", ["U"]
                ),
                "do1",
                pair_with="bd1",
            ),
            self._ace(),
            self._simpson(),
            self._estimate(
                "empirical_conditional",
                lambda t: estimation.empirical_conditional(
                    t["confounded"], "Y", {"X": "1"}
                )["1"],
                "cond1",
            ),
            self._estimate(
                "stratified_debias",
                lambda t: transport.stratified_debias(
                    t["covid"], "test", "1", "antibody", "1", ["risk", "virus"]
                ),
                "debias",
            ),
        ]
        ops += [self._mask(m) for m in MGRAPHS]
        ops += [self._recover(m) for m in RECOVERABLE]
        assert len(ops) == self.cycle_len
        return ops

    def ops(self, start: int = 0) -> Iterator[Op]:
        while True:
            self.results.clear()
            yield from self.cycle()


# -- cli ---------------------------------------------------------------------

# README's one-liners with the output README prints for each. Paths are
# relative to the directory the command runs in.
README_COMMANDS = [
    (
        "dsep",
        "dsep --graph fixtures/smoking_graph.json --x Smoking --y Lung_cancer --given Genotype",
        "d-separated: false",
    ),
    (
        "estimate do",
        "estimate do --data fixtures/kidney.csv --x treatment=A --y recovery=1 --adjust severity",
        "0.833",
    ),
    (
        "estimate simpson",
        "estimate simpson --data fixtures/kidney.csv --x treatment --y recovery=1 --strata severity",
        "aggregate: A=0.780 B=0.826\nstratum large: A=0.730 B=0.688\n"
        "stratum small: A=0.931 B=0.867\nreversal: true\nmixed: false",
    ),
    (
        "selection-check",
        "selection-check --graph fixtures/covid_graph.json --x test --y antibody",
        "selection nodes: S\n  test <- risk -> S <- virus -> antibody | unconditioned: "
        "blocked | under selection: open\nselection bias: true",
    ),
    (
        "estimate do naive",
        "estimate do --data fixtures/covid_study.csv --x test=1 --y antibody=1",
        "0.364",
    ),
    (
        "debias",
        "debias --data fixtures/covid_study.csv --x test=1 --y antibody=1 --strata risk virus",
        "0.233",
    ),
    (
        "scm query",
        "scm query --model fixtures/covid_scm.json --target antibody=1 --do test=1",
        "0.230",
    ),
    (
        "missing classify",
        "missing classify --graph fixtures/mgraph_self_masking.json",
        "mechanism: MNAR",
    ),
    (
        "missing mask",
        "missing mask --data xy.csv --graph fixtures/mgraph_mar.json "
        "--rcpt fixtures/mgraph_mar_mask.json --seed 22 --save xy_mar_out.csv",
        None,  # checked by comparing the written file with xy_mar.csv
    ),
    (
        "missing recover",
        "missing recover --data xy_mar.csv --graph fixtures/mgraph_mar.json --vars X Y",
        "X=0,Y=0: 0.419\nX=0,Y=1: 0.179\nX=1,Y=0: 0.081\nX=1,Y=1: 0.321",
    ),
    (
        "bandit sim",
        "bandit sim --env fixtures/bandit_paradoxical.json --policy causal_thompson "
        "--horizon 2000 --seed 7",
        "policy: causal_thompson\nfinal cumulative regret: 8.000\n"
        "tail arm frequency (last 10%): 0: 0.505, 1: 0.495",
    ),
    (
        "discover pc",
        "discover pc --data cc.csv",
        "directed: X->Z, Y->Z, Z->W\nundirected: (none)\nconflicts: (none)",
    ),
    (
        "discover ges",
        "discover ges --data cc.csv",
        "edges: X->Z, Y->Z, Z->W\nscore: -24635.953\nmoves: 3",
    ),
]
TINY_COMMANDS = ("dsep", "estimate do", "missing classify")


def dense_dag(n: int, p: float, rng: random.Random):
    names = [f"V{i}" for i in range(n)]
    edges = [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return names, edges


def d_separated(parents, children, x: str, y: str, z: set) -> bool:
    """x ⫫ y | z by the reachability (Bayes-ball) rule: an independent
    route from the library's moralisation."""
    anc, stack = set(), list(z)
    while stack:
        n = stack.pop()
        if n not in anc:
            anc.add(n)
            stack.extend(parents[n])
    seen, stack = set(), [(x, True)]  # True: arrived from a child
    while stack:
        n, up = stack.pop()
        if (n, up) in seen:
            continue
        seen.add((n, up))
        if n == y and n not in z:
            return False
        if up and n not in z:
            stack.extend((p, True) for p in parents[n])
            stack.extend((c, False) for c in children[n])
        elif not up:
            if n not in z:
                stack.extend((c, False) for c in children[n])
            if n in anc:
                stack.extend((p, True) for p in parents[n])
    return True


def backdoor_reference(names, edges, x: str, y: str, z: set) -> bool:
    """No descendant of x in z, and x ⫫ y | z once x's outgoing edges go."""
    children = {n: [b for a, b in edges if a == n] for n in names}
    desc, stack = set(), list(children[x])
    while stack:
        n = stack.pop()
        if n not in desc:
            desc.add(n)
            stack.extend(children[n])
    if desc & z:
        return False
    kept = [(a, b) for a, b in edges if a != x]
    parents = {n: [a for a, b in kept if b == n] for n in names}
    children = {n: [b for a, b in kept if a == n] for n in names}
    return d_separated(parents, children, x, y, z)


def chain_model(n: int, rng: random.Random):
    """A binary chain C0 -> ... -> C{n-1} with random tables."""
    names = [f"C{i}" for i in range(n)]
    prior = rng.uniform(0.2, 0.8)
    cpts = {"C0": Cpt("C0", (), ("0", "1"), {(): (1 - prior, prior)})}
    trans = []
    for i in range(1, n):
        a, b = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        trans.append(((1 - a, a), (1 - b, b)))
        cpts[names[i]] = Cpt(
            names[i], (names[i - 1],), ("0", "1"), {("0",): (1 - a, a), ("1",): (1 - b, b)}
        )
    graph = CausalGraph(
        [Node(v, NodeKind.OBSERVED) for v in names],
        [(names[i], names[i + 1]) for i in range(n - 1)],
    )
    return DiscreteScm(graph, cpts), trans


def chain_reference(trans, k: int, value: int) -> float:
    """P(C_last = 1 | C_k = value) as a product of 2x2 transition matrices."""
    vec = [0.0, 0.0]
    vec[value] = 1.0
    for m in trans[k:]:
        vec = [vec[0] * m[0][0] + vec[1] * m[1][0], vec[0] * m[0][1] + vec[1] * m[1][1]]
    return vec[1]


def _json_probability(stdout: str, want: float) -> Optional[str]:
    got = json.loads(stdout)["probability"]
    if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
        return f"probability {got!r}, independent route gives {want!r}"
    return None


def _json_backdoor(stdout: str, want: bool) -> Optional[str]:
    got = json.loads(stdout)["satisfies_backdoor_criterion"]
    if got is not want:
        return f"backdoor check says {got}, independent route says {want}"
    return None


class Cli:
    name = "cli"
    cycle_len = len(README_COMMANDS) + 2
    trace_ops = cycle_len
    min_ops = 0  # one pass of 15 ops is as many as a run can hold

    def __init__(self, size: Size):
        self.size = size
        if not size.full_cli:
            self.cycle_len = self.trace_ops = len(TINY_COMMANDS) + 2
        self.in_process = False

    def setup(self, tmp: Path, seed: int) -> None:
        self.tmp = tmp
        fixtures.write_all(tmp / "fixtures")
        if self.size.full_cli:
            xy = fixtures.xy_scm().sample(100_000, 21)
            xy.save_csv(tmp / "xy.csv")
            mg = fixtures.mgraph_mar()
            masked = missing.apply_missingness(
                data.DiscreteDataset.load_csv(tmp / "xy.csv"), mg, fixtures.mask_cpts(mg), 22
            )
            masked.save_csv(tmp / "xy_mar.csv")
            del xy, masked
            fixtures.collider_chain_scm().sample(10_000, 2).save_csv(tmp / "cc.csv")

        rng = random.Random(seed)
        names, edges = dense_dag(self.size.dag_nodes, 0.85, rng)
        x, y = names[len(names) // 2], names[-1]
        nondesc = set(names[: len(names) // 2])
        if rng.random() < 0.5:
            z = {a for a, b in edges if b == x}
        else:
            z = {v for v in sorted(nondesc - {x, y}) if rng.random() < 0.5}
        graph = CausalGraph([Node(v, NodeKind.OBSERVED) for v in names], edges)
        (tmp / "dense_dag.json").write_text(json.dumps(graph_to_dict(graph)))
        self.backdoor = (x, y, sorted(z), backdoor_reference(names, edges, x, y, z))

        scm, trans = chain_model(self.size.chain_nodes, rng)
        (tmp / "chain_scm.json").write_text(json.dumps(scm_to_dict(scm)))
        k = rng.randrange(1, 5)
        value = rng.randrange(2)
        self.chain = (k, value, chain_reference(trans, k, value))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(Path(ck_cli.__file__).resolve().parents[1])

    def commands(self) -> list[tuple[str, list[str], Callable[[str], Optional[str]]]]:
        out = []
        for label, line, expected in README_COMMANDS:
            if not self.size.full_cli and label not in TINY_COMMANDS:
                continue
            if expected is None:
                check = self._check_mask
            else:
                check = lambda stdout, want=expected: (
                    None if stdout.strip() == want else f"printed {stdout.strip()!r}"
                )
            out.append((label, line.split(), check))
        x, y, z, want_bd = self.backdoor
        out.append(
            (
                "backdoor-check near cap",
                ["backdoor-check", "--graph", "dense_dag.json", "--x", x, "--y", y,
                 "--adjust", *z, "--out", "json"],
                lambda stdout: _json_backdoor(stdout, want_bd),
            )
        )
        k, value, want_p = self.chain
        last = f"C{self.size.chain_nodes - 1}"
        out.append(
            (
                "scm query near cap",
                ["scm", "query", "--model", "chain_scm.json", "--target", f"{last}=1",
                 "--given", f"C{k}={value}", "--out", "json"],
                lambda stdout: _json_probability(stdout, want_p),
            )
        )
        return out

    def _check_mask(self, stdout: str) -> Optional[str]:
        written = (self.tmp / "xy_mar_out.csv").read_bytes()
        if written != (self.tmp / "xy_mar.csv").read_bytes():
            return "masked CSV differs from the library's apply_missingness output"
        return None

    def _op(self, label, argv, check) -> Op:
        if self.in_process:
            def run():
                buf = io.StringIO()
                cwd = os.getcwd()
                os.chdir(self.tmp)
                try:
                    with contextlib.redirect_stdout(buf):
                        code = ck_cli.main(argv)
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
                finally:
                    os.chdir(cwd)
                return code, buf.getvalue(), ""
        else:
            def run():
                proc = subprocess.run(
                    [sys.executable, "-m", "causalkit.cli", *argv],
                    cwd=self.tmp,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                return proc.returncode, proc.stdout, proc.stderr

        def full_check(out):
            code, stdout, stderr = out
            if code != 0:
                return f"exit {code}: {stderr.strip()[-200:]}"
            return check(stdout)

        return Op(label, run, full_check)

    def warmup(self) -> Op:
        return self._op(*self.commands()[0])

    def ops(self, start: int = 0) -> Iterator[Op]:
        cmds = self.commands()
        while True:
            for cmd in cmds:
                yield self._op(*cmd)


WORKLOADS = {"discovery": Discovery, "tabular": Tabular, "bandits": Bandits, "cli": Cli}


def make(name: str, size: str = "full"):
    return WORKLOADS[name](SIZES[size])
