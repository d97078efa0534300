"""Built-in worked examples.

Every dataset, graph, and model the documentation walks through is
constructed here so the test suite, the `causalkit fixtures` subcommand,
and the reproduction script all operate on identical objects. All builders
are deterministic; sampling-based builders take explicit seeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bandits import BanditEnv, env_to_dict
from .data import DiscreteDataset
from .graph import CausalGraph, Node, NodeKind, graph_to_dict
from .missing import MGraph, mask_cpts_to_dict, mgraph_to_dict
from .scm import Cpt, DiscreteScm, scm_to_dict
from .transport import StratumEffects


def _obs(*names: str) -> list[Node]:
    return [Node(n, NodeKind.OBSERVED) for n in names]


# -- kidney-stone observational study ----------------------------------------

# (severity, treatment) -> (patients, recoveries); the classic two-treatment
# study in which the less invasive treatment wins in aggregate while losing
# inside every severity stratum.
KIDNEY_COUNTS = {
    ("small", "A"): (87, 81),
    ("small", "B"): (270, 234),
    ("large", "A"): (263, 192),
    ("large", "B"): (80, 55),
}

KIDNEY_STATES = {
    "severity": ("small", "large"),
    "treatment": ("A", "B"),
    "recovery": ("0", "1"),
}


def kidney_dataset() -> DiscreteDataset:
    """The 700-row study expanded from its per-group counts, one row per
    patient, recoveries first within each (severity, treatment) group."""
    rows = []
    for severity in KIDNEY_STATES["severity"]:
        for treatment in KIDNEY_STATES["treatment"]:
            n, recovered = KIDNEY_COUNTS[(severity, treatment)]
            for i in range(n):
                rows.append((severity, treatment, "1" if i < recovered else "0"))
    return DiscreteDataset(
        ["severity", "treatment", "recovery"], rows, KIDNEY_STATES
    )


def kidney_graph() -> CausalGraph:
    """Severity confounds the treatment choice and the outcome."""
    return CausalGraph(
        _obs("severity", "treatment", "recovery"),
        [
            ("severity", "treatment"),
            ("severity", "recovery"),
            ("treatment", "recovery"),
        ],
    )


def kidney_scm() -> DiscreteScm:
    """The study's exact frequencies as a generative model, so interventional
    truths are available in closed form."""
    n_small = 87 + 270
    n_large = 263 + 80
    total = n_small + n_large

    def rec(sev: str, tr: str) -> tuple[float, float]:
        n, recovered = KIDNEY_COUNTS[(sev, tr)]
        return (1 - recovered / n, recovered / n)

    cpts = {
        "severity": Cpt(
            "severity",
            (),
            KIDNEY_STATES["severity"],
            {(): (n_small / total, n_large / total)},
        ),
        "treatment": Cpt(
            "treatment",
            ("severity",),
            KIDNEY_STATES["treatment"],
            {
                ("small",): (87 / n_small, 270 / n_small),
                ("large",): (263 / n_large, 80 / n_large),
            },
        ),
        "recovery": Cpt(
            "recovery",
            ("severity", "treatment"),
            KIDNEY_STATES["recovery"],
            {
                ("small", "A"): rec("small", "A"),
                ("small", "B"): rec("small", "B"),
                ("large", "A"): rec("large", "A"),
                ("large", "B"): rec("large", "B"),
            },
        ),
    }
    return DiscreteScm(kidney_graph(), cpts)


# -- strongly confounded two-arm model ---------------------------------------


def confounded_scm() -> DiscreteScm:
    """U -> X, U -> Y, X -> Y with confounding strong enough that the naive
    conditional P(Y=1 | X=1) = 0.85 sits 0.20 above the interventional truth
    P(Y=1 | do(X=1)) = 0.65 (and do(X=0) gives 0.45). U is observed, so
    adjusting on it is legitimate."""
    graph = CausalGraph(
        _obs("U", "X", "Y"), [("U", "X"), ("U", "Y"), ("X", "Y")]
    )
    b = ("0", "1")
    cpts = {
        "U": Cpt("U", (), b, {(): (0.5, 0.5)}),
        "X": Cpt("X", ("U",), b, {("0",): (0.9, 0.1), ("1",): (0.1, 0.9)}),
        "Y": Cpt(
            "Y",
            ("U", "X"),
            b,
            {
                ("0", "0"): (0.8, 0.2),
                ("0", "1"): (0.6, 0.4),
                ("1", "0"): (0.3, 0.7),
                ("1", "1"): (0.1, 0.9),
            },
        ),
    }
    return DiscreteScm(graph, cpts)


# -- rain / sprinkler / wet pavement -----------------------------------------


def sprinkler_scm() -> DiscreteScm:
    """Rain -> Sprinkler, Rain -> Wet, Sprinkler -> Wet. Forcing the
    sprinkler must leave the rain marginal untouched, which is the
    canonical sanity check for interventions on non-ancestors."""
    graph = CausalGraph(
        _obs("Rain", "Sprinkler", "Wet"),
        [("Rain", "Sprinkler"), ("Rain", "Wet"), ("Sprinkler", "Wet")],
    )
    b = ("0", "1")
    cpts = {
        "Rain": Cpt("Rain", (), b, {(): (0.8, 0.2)}),
        "Sprinkler": Cpt(
            "Sprinkler",
            ("Rain",),
            b,
            {("0",): (0.6, 0.4), ("1",): (0.99, 0.01)},
        ),
        "Wet": Cpt(
            "Wet",
            ("Rain", "Sprinkler"),
            b,
            {
                ("0", "0"): (1.0, 0.0),
                ("0", "1"): (0.1, 0.9),
                ("1", "0"): (0.2, 0.8),
                ("1", "1"): (0.01, 0.99),
            },
        ),
    }
    return DiscreteScm(graph, cpts)


def smoking_graph() -> CausalGraph:
    """Smoking -> Lung_cancer confounded by an unmeasured Genotype."""
    return CausalGraph(
        [
            Node("Genotype", NodeKind.LATENT),
            Node("Smoking", NodeKind.OBSERVED),
            Node("Lung_cancer", NodeKind.OBSERVED),
        ],
        [
            ("Genotype", "Smoking"),
            ("Genotype", "Lung_cancer"),
            ("Smoking", "Lung_cancer"),
        ],
    )


# -- antibody study with selective enrollment --------------------------------


def covid_graph() -> CausalGraph:
    """Antibody testing with self-selected enrollment: risk drives testing
    and enrollment, infection drives antibodies and enrollment, so S is a
    collider on the backdoor path test <- risk -> S <- virus -> antibody."""
    return CausalGraph(
        _obs("risk", "virus", "test", "antibody") + [Node("S", NodeKind.SELECTION)],
        [
            ("risk", "test"),
            ("risk", "S"),
            ("virus", "S"),
            ("virus", "antibody"),
            ("test", "antibody"),
        ],
    )


def covid_scm() -> DiscreteScm:
    """Parameterization under which P(antibody=1 | do(test=1)) = 0.23 while
    the enrolled-sample frequency is about 0.363: enrollment favors infected
    and high-risk people, so the selected sample over-represents carriers."""
    b = ("0", "1")
    cpts = {
        "risk": Cpt("risk", (), ("low", "high"), {(): (0.7, 0.3)}),
        "virus": Cpt("virus", (), b, {(): (0.8, 0.2)}),
        "test": Cpt(
            "test",
            ("risk",),
            b,
            {("low",): (0.7, 0.3), ("high",): (0.2, 0.8)},
        ),
        "antibody": Cpt(
            "antibody",
            ("test", "virus"),
            b,
            {
                ("0", "0"): (1.0, 0.0),
                ("0", "1"): (1.0, 0.0),
                ("1", "0"): (0.95, 0.05),
                ("1", "1"): (0.05, 0.95),
            },
        ),
        "S": Cpt(
            "S",
            ("risk", "virus"),
            b,
            {
                ("low", "0"): (0.95, 0.05),
                ("low", "1"): (0.7, 0.3),
                ("high", "0"): (0.5, 0.5),
                ("high", "1"): (0.1, 0.9),
            },
        ),
    }
    return DiscreteScm(covid_graph(), cpts)


def covid_study_dataset(n: int, seed: int) -> DiscreteDataset:
    """A sampled population in which the antibody outcome was measured only
    on enrolled subjects (S = 1); everyone's risk, infection status, and
    test choice remain on record."""
    ds = covid_scm().sample(n, seed)
    off_study = ds.codes["S"] == ds.states["S"].index("0")
    codes = dict(ds.codes, antibody=np.where(off_study, -1, ds.codes["antibody"]))
    return DiscreteDataset._from_codes(ds.columns, codes, ds.states, len(ds))


def age_stratum_effects() -> StratumEffects:
    """Age-stratified treatment effects with a target population age mix;
    the transported estimate is exactly 0.30."""
    return StratumEffects(
        stratum="age",
        effects={
            "18-30": 0.1,
            "31-45": 0.2,
            "46-60": 0.3,
            "61-75": 0.4,
            "76plus": 0.5,
        },
        weights={
            "18-30": 0.1,
            "31-45": 0.2,
            "46-60": 0.4,
            "61-75": 0.2,
            "76plus": 0.1,
        },
    )


# -- missingness families over X -> Y ----------------------------------------


def xy_scm() -> DiscreteScm:
    """The substantive model masked by the missingness fixtures:
    P(X=1) = 0.4, P(Y=1|X=0) = 0.3, P(Y=1|X=1) = 0.8."""
    graph = CausalGraph(_obs("X", "Y"), [("X", "Y")])
    b = ("0", "1")
    cpts = {
        "X": Cpt("X", (), b, {(): (0.6, 0.4)}),
        "Y": Cpt("Y", ("X",), b, {("0",): (0.7, 0.3), ("1",): (0.2, 0.8)}),
    }
    return DiscreteScm(graph, cpts)


def _mgraph(extra_edges: list[tuple[str, str]], two_sided: bool = False) -> MGraph:
    nodes = _obs("X", "Y") + [
        Node("Ry", NodeKind.MISS_INDICATOR),
        Node("Ystar", NodeKind.PROXY),
    ]
    edges = [("X", "Y"), ("Y", "Ystar"), ("Ry", "Ystar")] + extra_edges
    partial = {"Y": ("Ry", "Ystar")}
    if two_sided:
        nodes += [
            Node("Rx", NodeKind.MISS_INDICATOR),
            Node("Xstar", NodeKind.PROXY),
        ]
        edges += [("X", "Xstar"), ("Rx", "Xstar")]
        partial["X"] = ("Rx", "Xstar")
    return MGraph(CausalGraph(nodes, edges), partial)


def mgraph_mcar() -> MGraph:
    """Y's records vanish haphazardly: Ry has no parents at all."""
    return _mgraph([])


def mgraph_mar() -> MGraph:
    """Y's records vanish at rates driven by the always-observed X."""
    return _mgraph([("X", "Ry")])


def mgraph_self_masking() -> MGraph:
    """Y censors itself: Ry depends on the value being hidden."""
    return _mgraph([("Y", "Ry")])


def mgraph_two_sided() -> MGraph:
    """Both variables partially observed: Rx haphazard, Ry driven by X."""
    return _mgraph([("X", "Ry")], two_sided=True)


def mask_cpts(mg: MGraph) -> dict[str, Cpt]:
    """Missingness rates for the fixture m-graphs: parentless indicators
    fire at 0.25; an indicator with one binary parent fires at 0.05 / 0.60
    for parent states 0 / 1 (strong enough to bias complete-case badly)."""
    b = ("0", "1")
    out = {}
    for r in mg.indicators():
        ps = mg.graph.parents(r)
        if ps == ():
            out[r] = Cpt(r, (), b, {(): (0.75, 0.25)})
        elif len(ps) == 1:
            out[r] = Cpt(
                r, ps, b, {("0",): (0.95, 0.05), ("1",): (0.4, 0.6)}
            )
        else:
            raise ValueError(f"no default mask for indicator {r} with {ps}")
    return out


# -- two causes, one effect, one downstream reading --------------------------


def collider_chain_graph() -> CausalGraph:
    """X -> Z <- Y with Z -> W: one v-structure plus a tail edge, the
    smallest graph whose pattern is fully identifiable from independences."""
    return CausalGraph(
        _obs("X", "Y", "Z", "W"), [("X", "Z"), ("Y", "Z"), ("Z", "W")]
    )


def collider_chain_scm() -> DiscreteScm:
    """CPTs chosen so every adjacent pair is strongly dependent, the X-Z
    dependence is the strongest pairwise signal, and conditioning on Z
    induces a clear X-Y dependence. Greedy edge addition under BIC provably
    reaches the generating graph from these margins; weaker or reordered
    dependences can strand add/delete search in a non-equivalent optimum,
    so these numbers are load-bearing for the discovery demonstrations."""
    b = ("0", "1")
    cpts = {
        "X": Cpt("X", (), b, {(): (0.5, 0.5)}),
        "Y": Cpt("Y", (), b, {(): (0.5, 0.5)}),
        "Z": Cpt(
            "Z",
            ("X", "Y"),
            b,
            {
                ("0", "0"): (0.95, 0.05),
                ("0", "1"): (0.65, 0.35),
                ("1", "0"): (0.40, 0.60),
                ("1", "1"): (0.10, 0.90),
            },
        ),
        "W": Cpt("W", ("Z",), b, {("0",): (0.65, 0.35), ("1",): (0.25, 0.75)}),
    }
    return DiscreteScm(collider_chain_graph(), cpts)


# -- bandit environments ------------------------------------------------------


def two_arm_env() -> BanditEnv:
    """Unconfounded Bernoulli arms at 0.7 and 0.3."""
    return BanditEnv(payout={"": (0.7, 0.3)})


def five_arm_env() -> BanditEnv:
    """Unconfounded arms at 0.1 .. 0.5; the last arm is best."""
    return BanditEnv(payout={"": (0.1, 0.2, 0.3, 0.4, 0.5)})


def paradoxical_env() -> BanditEnv:
    """A hidden state flips which arm is good and also drives the player's
    intent toward the bad one: both arms pay 0.3 marginally, so only
    intent-aware play finds the per-round 0.5 arm."""
    return BanditEnv(
        payout={"0": (0.1, 0.5), "1": (0.5, 0.1)},
        confounder_states=("0", "1"),
        confounder_probs=(0.5, 0.5),
        intuition={"0": 0, "1": 1},
    )


def single_intent_env() -> BanditEnv:
    """Degenerate confounded environment with one state: intent carries no
    information, so intent-aware play must match intent-blind play."""
    return BanditEnv(
        payout={"0": (0.7, 0.3)},
        confounder_states=("0",),
        confounder_probs=(1.0,),
        intuition={"0": 0},
    )


# -- bulk export ---------------------------------------------------------------

STUDY_SAMPLE_SIZE = 100_000
STUDY_SEED = 20230817


def fixture_files() -> dict[str, str]:
    """Every fixture as {file name: file text}, in export order. A `.json`
    file is its object's dict codec, written with `json.dumps(..., indent=2)`."""
    files = {
        "kidney.csv": kidney_dataset().to_csv(),
        "kidney_graph.json": graph_to_dict(kidney_graph()),
        "kidney_scm.json": scm_to_dict(kidney_scm()),
        "confounded_scm.json": scm_to_dict(confounded_scm()),
        "sprinkler_scm.json": scm_to_dict(sprinkler_scm()),
        "smoking_graph.json": graph_to_dict(smoking_graph()),
        "covid_graph.json": graph_to_dict(covid_graph()),
        "covid_scm.json": scm_to_dict(covid_scm()),
        "covid_study.csv": covid_study_dataset(STUDY_SAMPLE_SIZE, STUDY_SEED).to_csv(),
        "age_strata.json": age_stratum_effects().to_dict(),
    }
    for name, builder in (
        ("mgraph_mcar", mgraph_mcar),
        ("mgraph_mar", mgraph_mar),
        ("mgraph_self_masking", mgraph_self_masking),
        ("mgraph_two_sided", mgraph_two_sided),
    ):
        mg = builder()
        files[f"{name}.json"] = mgraph_to_dict(mg)
        files[f"{name}_mask.json"] = mask_cpts_to_dict(mask_cpts(mg))
    files["xy_scm.json"] = scm_to_dict(xy_scm())
    files["collider_chain_graph.json"] = graph_to_dict(collider_chain_graph())
    files["collider_chain_scm.json"] = scm_to_dict(collider_chain_scm())
    for name, env in (
        ("bandit_two_arm", two_arm_env()),
        ("bandit_five_arm", five_arm_env()),
        ("bandit_paradoxical", paradoxical_env()),
        ("bandit_single_intent", single_intent_env()),
    ):
        files[f"{name}.json"] = env_to_dict(env)
    return {
        name: json.dumps(body, indent=2) if name.endswith(".json") else body
        for name, body in files.items()
    }


def write_all(dest: str | Path) -> list[Path]:
    """Materialize every fixture under `dest`; returns the written paths."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, text in fixture_files().items():
        (dest / name).write_text(text)
        written.append(dest / name)
    return written
