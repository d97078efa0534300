"""Discrete causal inference: graphs, models, estimation, and discovery.

The package is organized by task:

- `graph`: causal DAGs, d-separation, backdoor criterion, rule checks,
  graph surgery.
- `scm`: discrete structural causal models with exact queries by
  variable elimination, intervention, and seeded ancestral sampling.
- `data`: categorical datasets with missing cells, CSV interchange, and
  joint probability tables.
- `estimation`: adjustment-formula estimators, average causal effects,
  and aggregation-reversal detection.
- `transport`: selection-bias detection, stratified de-biasing, and the
  transport re-weighting formula.
- `missing`: missingness graphs, mechanism classification, masking,
  recoverability, and CI-testability.
- `bandits`: Bernoulli bandit environments (optionally confounded) and
  sampling policies.
- `discovery`: chi-square independence testing, constraint-based pattern
  search, and greedy BIC structure search.
- `fixtures`: the worked examples shared by the docs, tests, and CLI.

Each exported name is imported from its module on first use (PEP 562), so
`import causalkit` loads no submodule, and the graph-only functions load no
numpy. Nothing loads scipy: the chi-square tail is a finite series at
integer degrees of freedom, summed in `discovery`.
"""

import importlib

# each submodule and the names it exports; `from causalkit import *` binds both
_EXPORTS = {
    "bandits": (
        "BanditEnv", "BetaPosterior", "CausalThompsonPolicy", "EpsilonGreedyPolicy",
        "OraclePolicy", "Round", "RunResult", "ThompsonPolicy", "UniformPolicy",
        "env_from_dict", "env_to_dict", "make_policy", "simulate",
    ),
    "data": ("MISSING", "DiscreteDataset", "ProbTable", "empirical_joint"),
    "discovery": (
        "CiResult", "Pattern", "TraceStep", "ci_test", "dsep_ci_fn",
        "greedy_score_search", "markov_equivalent", "orient", "pattern_of_dag",
        "pc", "pc_skeleton", "vstructures",
    ),
    "errors": (
        "CausalKitError", "CycleDetected", "DanglingEdge", "DataError",
        "DuplicateNode", "EmptySelection", "EmptyStratum", "GraphError",
        "GraphTooLarge", "InsufficientData", "InvalidCpt", "InvalidNodeName",
        "InvalidStructure", "MissingIntent", "ModelTooLarge", "NotSupported",
        "OverlappingSets", "PartialAssignment", "PartialOverlap",
        "PositivityViolation", "SchemaMismatch", "ScmError", "UnknownArm",
        "UnknownNode", "UnknownState", "UnmatchedPattern", "WeightMismatch",
        "WeightsNotNormalized", "ZeroEvidenceProbability",
    ),
    "estimation": (
        "SimpsonReport", "backdoor_adjust", "backdoor_adjust_ratio", "compute_ace",
        "detect_simpson_reversal", "empirical_conditional",
    ),
    "graph": (
        "CausalGraph", "Node", "NodeKind", "Path", "graph_from_dict",
        "graph_to_dict",
    ),
    "missing": (
        "NOT_RECOVERABLE", "Mechanism", "MGraph", "NotRecoverable",
        "TestabilityResult", "apply_missingness", "classify_mechanism",
        "is_ci_testable", "mgraph_from_dict", "mgraph_to_dict", "recover_joint",
    ),
    "scm": ("Cpt", "DiscreteScm", "scm_from_dict", "scm_to_dict"),
    "transport": (
        "PathAssessment", "SelectionReport", "StratumEffects",
        "detect_selection_bias", "stratified_debias", "transport_estimate",
    ),
}
# exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, or an exported name read from its module on each access."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """The module's globals and every exported name, loaded or not."""
    return sorted({*globals(), *__all__})
