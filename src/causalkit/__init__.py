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
"""

from .bandits import (
    BanditEnv,
    BetaPosterior,
    CausalThompsonPolicy,
    EpsilonGreedyPolicy,
    OraclePolicy,
    Round,
    RunResult,
    ThompsonPolicy,
    UniformPolicy,
    env_from_dict,
    env_from_json,
    env_to_dict,
    env_to_json,
    make_policy,
    simulate,
)
from .data import (
    MISSING,
    DiscreteDataset,
    ProbTable,
    empirical_joint,
)
from .discovery import (
    CiResult,
    Pattern,
    TraceStep,
    bic_family_score,
    ci_test,
    dsep_ci_fn,
    greedy_score_search,
    markov_equivalent,
    orient,
    pattern_of_dag,
    pc,
    pc_skeleton,
    vstructures,
)
from .errors import (
    CausalKitError,
    CycleDetected,
    DanglingEdge,
    DataError,
    DuplicateNode,
    EmptySelection,
    EmptyStratum,
    GraphError,
    GraphTooLarge,
    InsufficientData,
    InvalidCpt,
    InvalidNodeName,
    InvalidStructure,
    MissingIntent,
    ModelTooLarge,
    NotSupported,
    OverlappingSets,
    PartialAssignment,
    PartialOverlap,
    PositivityViolation,
    SchemaMismatch,
    ScmError,
    UnknownArm,
    UnknownNode,
    UnknownState,
    UnmatchedPattern,
    WeightMismatch,
    WeightsNotNormalized,
    ZeroEvidenceProbability,
)
from .estimation import (
    SimpsonReport,
    backdoor_adjust,
    backdoor_adjust_ratio,
    compute_ace,
    detect_simpson_reversal,
    empirical_conditional,
)
from .graph import (
    CausalGraph,
    Node,
    NodeKind,
    Path,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from .missing import (
    NOT_RECOVERABLE,
    Mechanism,
    MGraph,
    NotRecoverable,
    TestabilityResult,
    apply_missingness,
    classify_mechanism,
    is_ci_testable,
    mgraph_from_dict,
    mgraph_from_json,
    mgraph_to_dict,
    mgraph_to_json,
    recover_joint,
)
from .scm import (
    Cpt,
    DiscreteScm,
    scm_from_dict,
    scm_from_json,
    scm_to_dict,
    scm_to_json,
)
from .transport import (
    PathAssessment,
    SelectionReport,
    StratumEffects,
    detect_selection_bias,
    stratified_debias,
    transport_estimate,
)

__version__ = "0.1.0"
