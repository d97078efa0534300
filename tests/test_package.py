"""The package's public surface: the package imports each module on first
use, and every name it exports is still the object its module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalkit

# Each module's exports, recorded from the package when it imported all of
# them eagerly; `from causalkit import *` bound these names and the modules.
EXPORTS = {
    "bandits": """BanditEnv CausalThompsonPolicy EpsilonGreedyPolicy OraclePolicy
        Round RunResult ThompsonPolicy UniformPolicy env_from_dict
        env_to_dict make_policy simulate""",
    "data": "MISSING DiscreteDataset ProbTable empirical_joint",
    "discovery": """CiResult Pattern TraceStep ci_test dsep_ci_fn greedy_score_search
        markov_equivalent orient pattern_of_dag pc pc_skeleton vstructures""",
    "errors": """CausalKitError CycleDetected DanglingEdge DataError DuplicateNode
        EmptySelection EmptyStratum GraphError GraphTooLarge InsufficientData
        InvalidCpt InvalidNodeName InvalidStructure MissingIntent ModelTooLarge
        NotSupported OverlappingSets PartialAssignment PartialOverlap
        PositivityViolation SchemaMismatch ScmError UnknownArm UnknownNode
        UnknownState UnmatchedPattern WeightMismatch WeightsNotNormalized
        ZeroEvidenceProbability""",
    "estimation": """SimpsonReport backdoor_adjust backdoor_adjust_ratio compute_ace
        detect_simpson_reversal empirical_conditional""",
    "graph": "CausalGraph Node NodeKind Path graph_from_dict graph_to_dict",
    "missing": """NOT_RECOVERABLE Mechanism MGraph NotRecoverable TestabilityResult
        apply_missingness classify_mechanism is_ci_testable mgraph_from_dict
        mgraph_to_dict recover_joint""",
    "scm": "Cpt DiscreteScm scm_from_dict scm_to_dict",
    "transport": """PathAssessment SelectionReport StratumEffects
        detect_selection_bias stratified_debias transport_estimate""",
}


def test_star_import_binds_the_recorded_names():
    namespace = {}
    exec("from causalkit import *", namespace)
    del namespace["__builtins__"]
    want = set(EXPORTS).union(*(names.split() for names in EXPORTS.values()))
    assert len(want) == 99
    assert set(namespace) == want
    assert set(causalkit.__all__) == want


def test_every_export_is_its_modules_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"causalkit.{module}")
        assert getattr(causalkit, module) is owner
        for name in names.split():
            assert getattr(causalkit, name) is getattr(owner, name), name
            namespace = {}
            exec(f"from causalkit import {name}", namespace)
            assert namespace[name] is getattr(owner, name), name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        causalkit.no_such_name


def test_cli_resolves_the_exported_names_it_calls():
    # the handlers import what they call; `cli.<name>` reads the same object
    from causalkit import cli, estimation

    assert cli.backdoor_adjust is estimation.backdoor_adjust
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def test_submodules_resolve_after_a_bare_import():
    # in a fresh process, where nothing has imported a submodule yet
    src = str(Path(causalkit.__file__).resolve().parents[1])
    modules = sorted(EXPORTS)
    proc = subprocess.run(
        [sys.executable, "-c", f"import causalkit\n"
         f"for m in {modules!r}: print(getattr(causalkit, m).__name__)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"causalkit.{m}" for m in modules]
