"""Command-line front end.

One subcommand per task: d-separation queries, backdoor checks, rule
applicability, SCM sampling and querying, adjustment estimates, selection
checks, de-biasing, transport, missing-data operations, bandit simulation,
structure discovery, and fixture export.

Conventions: `--out text` (default) prints probabilities with three
decimals, `--out json` prints full precision; randomized subcommands
require `--seed`. Each subcommand declares its input files (`_command`);
`main` reads and parses them, in flag order, before the handler runs.
`--data` is CSV, parsed by `DiscreteDataset.from_csv`; every other input
is JSON, decoded once in `_load` and handed to its type's dict codec
(`graph_from_dict`, `scm_from_dict`, ...).
Handlers import the functions they call, and each input's parser is
imported when its file is read, so a process loads only the modules its
subcommand computes with: `dsep`, `backdoor-check`, `identify`,
`selection-check`, `missing classify` and `missing testable` never load
numpy.
Output files (`--save`, `fixtures --dest`) go through `_write`. Exit
codes: 0 on success, 1 when the computation raises a domain error, 2 for
usage problems and for a file that cannot be read, does not parse, or
cannot be written, and for a request too large for memory (printed as
`error: out of memory: ...`). `selection-check`, the one subcommand that
lists paths, exits 1 with GraphTooLarge once the listing runs past its
fixed budget of search steps; `scm query` exits 1 with ModelTooLarge when
the query's elimination plan visits more table entries than its fixed
budget.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from .errors import CausalKitError, NotSupported

if TYPE_CHECKING:
    from .data import DiscreteDataset


def __getattr__(name: str):
    """An exported name of the package, read from its module on each access
    (PEP 562), so `cli.backdoor_adjust` is the function its handler imports
    and calls, wrapped or not."""
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _FileError(Exception):
    """A file cannot be read, does not parse, or cannot be written."""


# Input files, each (flag, what the file holds, parser as "module:attribute",
# flag help). The parser reads the CSV text of `--data` and the decoded JSON
# of every other input. It is looked up when the file is read, so a
# subcommand imports only the modules it reads with, and a wrapper bound on
# the class or module later is the one called.
_GRAPH = ("--graph", "graph", "graph:graph_from_dict", None)
_MGRAPH = ("--graph", "missingness graph", "missing:mgraph_from_dict", None)
_MODEL = ("--model", "model", "scm:scm_from_dict", None)
_DATA = ("--data", "dataset", "data:DiscreteDataset.from_csv", None)
_ENV = ("--env", "bandit environment", "bandits:env_from_dict", None)
_EFFECTS = ("--effects", "effects file", "transport:StratumEffects.from_dict",
            "StratumEffects JSON file")
_RCPT = ("--rcpt", "indicator-table file", "missing:mask_cpts_from_dict",
         "indicator tables JSON")


def _load(args, spec):
    """Read the file that input `spec` names in `args` and parse it."""
    flag, what, parser, _ = spec
    path = getattr(args, flag[2:])
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    try:
        payload = text if spec is _DATA else json.loads(text)
    # json.loads recurses once per nesting level, so deeply nested arrays
    # exhaust the interpreter's stack before they can be parsed
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _FileError(f"{path} is not valid JSON: {exc}") from exc
    module, _, attr = parser.partition(":")
    parse = attrgetter(attr)(importlib.import_module(f".{module}", __package__))
    try:
        return parse(payload)
    except (CausalKitError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _FileError(f"{path} is not a valid {what}: {exc}") from exc


def _write(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _FileError(f"cannot write {path}: {exc}") from exc


def _assignment(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name or not value:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}"
        )
    return name, value


class _Assignments(argparse.Action):
    """Store a list of NAME=VALUE pairs, refusing a name given twice."""

    def __call__(self, parser, namespace, values, option_string=None):
        names = [name for name, _ in values]
        for name in names:
            if names.count(name) > 1:
                raise argparse.ArgumentError(self, f"node {name!r} given twice")
        setattr(namespace, self.dest, values)


def _ranged(kind, ok, expected: str):
    """An argparse `type`: `kind(text)`, refused unless `ok` accepts it."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_COUNT = _ranged(int, lambda v: v >= 0, "an integer >= 0")
# a count of records or rounds: past sys.maxsize // 8, numpy and list refuse
# an array of 8-byte entries with ValueError or OverflowError, not MemoryError
_SIZE = _ranged(int, lambda v: 0 <= v <= sys.maxsize // 8,
                f"an integer from 0 to {sys.maxsize // 8}")
_PROBABILITY = _ranged(float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]")
_LEVEL = _ranged(float, lambda v: 0.0 < v < 1.0, "a level in (0, 1)")
_NONNEGATIVE = _ranged(float, lambda v: v >= 0, "a number >= 0")


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _csv_result(ds: DiscreteDataset, args):
    """A table as CSV on stdout (rows in JSON), or written to `--save`. Only
    the form that `main` prints is rendered; the other is None."""
    if args.save:
        _write(args.save, ds.to_csv())
        payload = {"rows": len(ds), "columns": list(ds.columns), "saved": args.save}
        return payload, [f"wrote {len(ds)} rows to {args.save}"]
    if args.out == "json":
        rows = [[("" if v is None else v) for v in r] for r in ds.rows]
        return {"columns": list(ds.columns), "rows": rows}, None
    return None, [ds.to_csv().rstrip("\n")]


# -- handlers (args and loaded inputs in, (json_payload, text_lines) out) -------


def _cmd_dsep(args, graph):
    result = graph.is_d_separated(set(args.x), set(args.y), set(args.given))
    payload = {
        "x": sorted(args.x),
        "y": sorted(args.y),
        "given": sorted(args.given),
        "d_separated": result,
    }
    return payload, [f"d-separated: {str(result).lower()}"]


def _cmd_backdoor_check(args, graph):
    result = graph.satisfies_backdoor_criterion(args.x, args.y, args.adjust)
    payload = {
        "x": args.x,
        "y": args.y,
        "adjust": sorted(args.adjust),
        "satisfies_backdoor_criterion": result,
    }
    return payload, [f"satisfies backdoor criterion: {str(result).lower()}"]


def _cmd_identify(args, graph):
    try:
        rule3 = graph.rule3_applicable(args.x, args.y)
    except NotSupported:  # a latent x: rule 1 refuses it once w and z check out
        rule3 = None
    rule1 = graph.rule1_applicable(args.y, args.x, args.w, args.given)
    payload = {
        "x": args.x,
        "y": args.y,
        "w": sorted(args.w),
        "given": sorted(args.given),
        "rule1_applicable": rule1,
        "rule3_applicable": rule3,
    }
    lines = [
        "rule 1 (drop observations w from P(y | do(x), z, w)): "
        + ("applicable" if rule1 else "not applicable"),
        "rule 3 (drop do(x) from P(y | do(x))): "
        + ("applicable" if rule3 else "not applicable"),
    ]
    return payload, lines


def _cmd_scm_sample(args, scm):
    ds = scm.sample(args.n, args.seed, include_latent=args.include_latent)
    return _csv_result(ds, args)


def _cmd_scm_query(args, scm):
    if args.do:
        scm = scm.intervene(dict(args.do))
    target = dict(args.target)
    if args.given:
        p = scm.query_conditional(target, dict(args.given))
    else:
        p = scm.probability(target)
    payload = {
        "target": {k: v for k, v in sorted(target.items())},
        "given": {k: v for k, v in sorted(args.given)},
        "do": {k: v for k, v in sorted(args.do)},
        "probability": p,
    }
    return payload, [_fmt(p)]


def _cmd_estimate_do(args, ds):
    from .estimation import backdoor_adjust, backdoor_adjust_ratio

    x, x_val = args.x
    y, y_val = args.y
    estimator = backdoor_adjust_ratio if args.ratio else backdoor_adjust
    kwargs = {} if args.ratio else {"laplace": args.smooth}
    estimate = estimator(ds, x, x_val, y, y_val, args.adjust, **kwargs)
    payload = {
        "x": {x: x_val},
        "y": {y: y_val},
        "adjust": sorted(args.adjust),
        "route": "ratio" if args.ratio else "sum",
        "estimate": estimate,
    }
    return payload, [_fmt(estimate)]


def _cmd_estimate_ace(args, ds):
    from .estimation import compute_ace

    y, y_val = args.y
    ace = compute_ace(ds, args.x, args.treat, args.control, y, y_val, args.adjust)
    payload = {
        "x": args.x,
        "treat": args.treat,
        "control": args.control,
        "y": {y: y_val},
        "adjust": sorted(args.adjust),
        "ace": ace,
    }
    return payload, [_fmt(ace)]


def _cmd_estimate_simpson(args, ds):
    from .estimation import detect_simpson_reversal

    y, y_val = args.y
    report = detect_simpson_reversal(ds, args.x, y, y_val, args.strata)
    first, second = report.arms
    payload = {
        "x": report.x,
        "y": report.y,
        "y_val": report.y_val,
        "strata": list(report.strata),
        "arms": list(report.arms),
        "aggregate_rates": report.aggregate_rates,
        "aggregate_sign": report.aggregate_sign,
        "stratum_rates": {
            ",".join(k): v for k, v in sorted(report.stratum_rates.items())
        },
        "stratum_signs": {
            ",".join(k): v for k, v in sorted(report.stratum_signs.items())
        },
        "reversal": report.reversal,
        "mixed": report.mixed,
    }
    lines = [
        f"aggregate: {first}={_fmt(report.aggregate_rates[first])} "
        f"{second}={_fmt(report.aggregate_rates[second])}"
    ]
    for key in sorted(report.stratum_rates):
        rates = report.stratum_rates[key]
        lines.append(
            f"stratum {','.join(key)}: {first}={_fmt(rates[first])} "
            f"{second}={_fmt(rates[second])}"
        )
    lines.append(f"reversal: {str(report.reversal).lower()}")
    lines.append(f"mixed: {str(report.mixed).lower()}")
    return payload, lines


def _cmd_selection_check(args, graph):
    from .transport import detect_selection_bias

    report = detect_selection_bias(graph, args.x, args.y)
    payload = {
        "x": report.x,
        "y": report.y,
        "selection_nodes": list(report.selection_nodes),
        "paths": [
            {
                "path": str(a.path),
                "blocked_unconditioned": a.blocked_unconditioned,
                "blocked_under_selection": a.blocked_under_selection,
            }
            for a in report.paths
        ],
        "biased": report.biased,
    }
    lines = [f"selection nodes: {', '.join(report.selection_nodes) or '(none)'}"]
    for a in report.paths:
        lines.append(
            f"  {a.path} | unconditioned: "
            f"{'blocked' if a.blocked_unconditioned else 'open'} | "
            f"under selection: "
            f"{'blocked' if a.blocked_under_selection else 'open'}"
        )
    lines.append(f"selection bias: {str(report.biased).lower()}")
    return payload, lines


def _cmd_debias(args, ds):
    from .transport import stratified_debias

    x, x_val = args.x
    y, y_val = args.y
    estimate = stratified_debias(ds, x, x_val, y, y_val, args.strata)
    payload = {
        "x": {x: x_val},
        "y": {y: y_val},
        "strata": list(args.strata),
        "estimate": estimate,
    }
    return payload, [_fmt(estimate)]


def _cmd_transport(args, se):
    from .transport import transport_estimate

    estimate = transport_estimate(se)
    payload = {"stratum": se.stratum, "estimate": estimate}
    return payload, [_fmt(estimate)]


def _cmd_missing_classify(args, mg):
    from .missing import classify_mechanism

    mechanism = classify_mechanism(mg)
    return {"mechanism": mechanism.value}, [f"mechanism: {mechanism.value}"]


def _cmd_missing_mask(args, ds, mg, cpts):
    from .missing import apply_missingness

    return _csv_result(apply_missingness(ds, mg, cpts, args.seed), args)


def _cmd_missing_recover(args, ds, mg):
    from .missing import NOT_RECOVERABLE, recover_joint

    table = recover_joint(mg, ds, args.vars)
    if table is NOT_RECOVERABLE:
        return {"recoverable": False, "table": None}, ["NOT_RECOVERABLE"]
    payload = {"recoverable": True, "table": table.to_dict()}
    lines = []
    for states, p in sorted(table.entries.items()):
        cells = ",".join(f"{v}={s}" for v, s in zip(table.variables, states))
        lines.append(f"{cells}: {_fmt(p)}")
    return payload, lines


def _cmd_missing_testable(args, mg):
    from .missing import is_ci_testable

    result = is_ci_testable(mg, args.x, args.y, args.given)
    payload = {
        "x": sorted(args.x),
        "y": sorted(args.y),
        "given": sorted(args.given),
        "testable": result.testable,
        "condition1": result.condition1,
        "condition2": result.condition2,
        "condition3": result.condition3,
    }
    lines = [
        f"testable: {str(result.testable).lower()}",
        f"  condition 1 (y has a member outside the needed indicators): "
        f"{str(result.condition1).lower()}",
        f"  condition 2 (x-side indicators inside the statement): "
        f"{str(result.condition2).lower()}",
        f"  condition 3 (y/z-side indicators inside y or z): "
        f"{str(result.condition3).lower()}",
    ]
    return payload, lines


def _cmd_bandit_sim(args, env):
    from .bandits import make_policy, simulate

    policy = make_policy(args.policy, epsilon=args.epsilon)
    result = simulate(
        env, policy, args.horizon, args.seed, regret_benchmark=args.benchmark
    )
    arms = env.arms
    tail_freq = {a: result.arm_frequency(a, tail=0.1) for a in range(arms)}
    payload = {
        "policy": result.policy,
        "horizon": args.horizon,
        "benchmark": args.benchmark,
        "final_regret": result.final_regret(),
        "tail_arm_frequency": {str(a): f for a, f in tail_freq.items()},
    }
    lines = [
        f"policy: {result.policy}",
        f"final cumulative regret: {_fmt(result.final_regret())}",
        "tail arm frequency (last 10%): "
        + ", ".join(f"{a}: {_fmt(f)}" for a, f in tail_freq.items()),
    ]
    if args.save:
        _write(args.save, result.to_csv())
        payload["saved"] = args.save
        lines.append(f"wrote per-round log to {args.save}")
    return payload, lines


def _cmd_discover_pc(args, ds):
    from .discovery import pc

    pattern = pc(
        ds,
        alpha=args.alpha,
        max_cond_size=args.max_cond,
        min_expected=args.min_expected,
    )
    payload = {"pattern": pattern.to_dict()}
    directed = ", ".join(f"{a}->{b}" for a, b in sorted(pattern.directed))
    undirected = ", ".join(f"{a}-{b}" for a, b in sorted(pattern.undirected))
    conflicts = ", ".join(f"{a}-{b}" for a, b in pattern.conflicts)
    lines = [
        f"directed: {directed or '(none)'}",
        f"undirected: {undirected or '(none)'}",
        f"conflicts: {conflicts or '(none)'}",
    ]
    return payload, lines


def _cmd_discover_ges(args, ds):
    from .discovery import greedy_score_search
    from .graph import graph_to_dict

    graph, trace = greedy_score_search(ds)
    payload = {
        "graph": graph_to_dict(graph),
        "score": trace[-1].score,
        "trace": [
            {
                "op": step.op,
                "edge": list(step.edge) if step.edge else None,
                "score": step.score,
            }
            for step in trace
        ],
    }
    edges = ", ".join(f"{a}->{b}" for a, b in sorted(graph.edges))
    lines = [
        f"edges: {edges or '(none)'}",
        f"score: {_fmt(trace[-1].score)}",
        f"moves: {len(trace) - 1}",
    ]
    return payload, lines


def _cmd_fixtures(args):
    from . import fixtures

    try:
        written = list(map(str, fixtures.write_all(args.dest)))
    except OSError as exc:
        raise _FileError(f"cannot write {exc.filename or args.dest}: {exc}") from exc
    return {"written": written}, [f"wrote {p}" for p in written]


# -- parser ---------------------------------------------------------------------


def _command(sub, name: str, help: str, *inputs) -> argparse.ArgumentParser:
    """A subcommand whose input-file flags come first, in the order `main`
    loads them and passes them to the handler."""
    p = sub.add_parser(name, help=help)
    for flag, _, _, flag_help in inputs:
        p.add_argument(flag, required=True, help=flag_help)
    p.set_defaults(inputs=inputs)
    return p


def _finish(p: argparse.ArgumentParser, handler) -> None:
    """Give a subcommand the shared `--out` flag and its handler."""
    p.add_argument(
        "--out",
        choices=("text", "json"),
        default="text",
        help="output format (text rounds to 3 decimals; json is full precision)",
    )
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalkit",
        description="Discrete causal inference from graphs, models, and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "dsep", "test d-separation in a graph", _GRAPH)
    p.add_argument("--x", nargs="+", required=True)
    p.add_argument("--y", nargs="+", required=True)
    p.add_argument("--given", nargs="*", default=[])
    _finish(p, _cmd_dsep)

    p = _command(sub, "backdoor-check", "test the backdoor criterion", _GRAPH)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--adjust", nargs="*", default=[])
    _finish(p, _cmd_backdoor_check)

    p = _command(sub, "identify", "report do-calculus rule applicability", _GRAPH)
    p.add_argument("--x", required=True, help="intervened node")
    p.add_argument("--y", required=True, help="outcome node")
    p.add_argument("--w", nargs="*", default=[], help="observations to drop")
    p.add_argument("--given", nargs="*", default=[])
    _finish(p, _cmd_identify)

    scm_p = sub.add_parser("scm", help="sample from or query a model")
    scm_sub = scm_p.add_subparsers(dest="subcommand", required=True)

    p = _command(scm_sub, "sample", "draw records by ancestral sampling", _MODEL)
    p.add_argument("--n", type=_SIZE, required=True)
    p.add_argument("--seed", type=_COUNT, required=True)
    p.add_argument("--save", help="write CSV here instead of stdout")
    p.add_argument("--include-latent", action="store_true")
    _finish(p, _cmd_scm_sample)

    p = _command(scm_sub, "query", "exact probability by variable elimination", _MODEL)
    p.add_argument("--target", nargs="+", type=_assignment, action=_Assignments, required=True)
    p.add_argument("--given", nargs="*", type=_assignment, action=_Assignments, default=[])
    p.add_argument("--do", nargs="*", type=_assignment, action=_Assignments, default=[])
    _finish(p, _cmd_scm_query)

    est_p = sub.add_parser("estimate", help="adjustment-based estimation")
    est_sub = est_p.add_subparsers(dest="subcommand", required=True)

    p = _command(est_sub, "do", "interventional probability via adjustment", _DATA)
    p.add_argument("--x", type=_assignment, required=True, metavar="X=VAL")
    p.add_argument("--y", type=_assignment, required=True, metavar="Y=VAL")
    p.add_argument("--adjust", nargs="*", default=[])
    route = p.add_mutually_exclusive_group()
    route.add_argument("--smooth", action="store_true", help="Laplace (+1) smoothing")
    route.add_argument("--ratio", action="store_true", help="use the joint-ratio route")
    _finish(p, _cmd_estimate_do)

    p = _command(est_sub, "ace", "average causal effect between two arms", _DATA)
    p.add_argument("--x", required=True, help="treatment column")
    p.add_argument("--treat", required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--y", type=_assignment, required=True, metavar="Y=VAL")
    p.add_argument("--adjust", nargs="*", default=[])
    _finish(p, _cmd_estimate_ace)

    p = _command(est_sub, "simpson", "aggregate-vs-stratified reversal check", _DATA)
    p.add_argument("--x", required=True, help="binary treatment column")
    p.add_argument("--y", type=_assignment, required=True, metavar="Y=VAL")
    p.add_argument("--strata", nargs="+", required=True)
    _finish(p, _cmd_estimate_simpson)

    p = _command(sub, "selection-check", "find selection-opened backdoor paths", _GRAPH)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _finish(p, _cmd_selection_check)

    p = _command(sub, "debias", "stratified estimate from a selection-masked table", _DATA)
    p.add_argument("--x", type=_assignment, required=True, metavar="X=VAL")
    p.add_argument("--y", type=_assignment, required=True, metavar="Y=VAL")
    p.add_argument("--strata", nargs="+", required=True)
    _finish(p, _cmd_debias)

    p = _command(sub, "transport", "re-weight stratum effects to a new population", _EFFECTS)
    _finish(p, _cmd_transport)

    mis_p = sub.add_parser("missing", help="missingness-graph operations")
    mis_sub = mis_p.add_subparsers(dest="subcommand", required=True)

    p = _command(mis_sub, "classify", "MCAR / MAR / MNAR from the graph", _MGRAPH)
    _finish(p, _cmd_missing_classify)

    p = _command(mis_sub, "mask", "sample indicators and blank cells", _DATA, _MGRAPH, _RCPT)
    p.add_argument("--seed", type=_COUNT, required=True)
    p.add_argument("--save", help="write CSV here instead of stdout")
    _finish(p, _cmd_missing_mask)

    p = _command(mis_sub, "recover", "estimate a joint from masked data", _DATA, _MGRAPH)
    p.add_argument("--vars", nargs="+", required=True)
    _finish(p, _cmd_missing_recover)

    p = _command(mis_sub, "testable", "syntactic CI-testability check", _MGRAPH)
    p.add_argument("--x", nargs="+", required=True)
    p.add_argument("--y", nargs="+", required=True)
    p.add_argument("--given", nargs="*", default=[])
    _finish(p, _cmd_missing_testable)

    ban_p = sub.add_parser("bandit", help="bandit simulation")
    ban_sub = ban_p.add_subparsers(dest="subcommand", required=True)

    p = _command(ban_sub, "sim", "run one policy on one environment", _ENV)
    p.add_argument(
        "--policy",
        required=True,
        choices=("greedy", "epsilon", "thompson", "causal_thompson", "uniform", "oracle"),
    )
    p.add_argument("--horizon", type=_SIZE, required=True)
    p.add_argument("--seed", type=_COUNT, required=True)
    p.add_argument("--epsilon", type=_PROBABILITY, default=0.1)
    p.add_argument("--benchmark", choices=("conditional", "marginal"), default="conditional")
    p.add_argument("--save", help="write the per-round CSV log here")
    _finish(p, _cmd_bandit_sim)

    dis_p = sub.add_parser("discover", help="structure learning from data")
    dis_sub = dis_p.add_subparsers(dest="subcommand", required=True)

    p = _command(dis_sub, "pc", "constraint-based pattern search", _DATA)
    p.add_argument("--alpha", type=_LEVEL, default=0.05)
    p.add_argument("--max-cond", type=_COUNT, default=3)
    p.add_argument("--min-expected", type=_NONNEGATIVE, default=5.0)
    _finish(p, _cmd_discover_pc)

    p = _command(dis_sub, "ges", "greedy BIC hill-climb", _DATA)
    _finish(p, _cmd_discover_ges)

    p = _command(sub, "fixtures", "write all built-in example files")
    p.add_argument("--dest", required=True)
    _finish(p, _cmd_fixtures)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        loaded = [_load(args, spec) for spec in args.inputs]
        payload, lines = args.handler(args, *loaded)
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CausalKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2

    if args.out == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
