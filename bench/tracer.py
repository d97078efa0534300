"""In-memory span tracing around causalkit's public functions.

`Tracer.install()` wraps each function named in `TARGETS` and rebinds the
wrapper under every name that held the original: the class attribute for a
method, and every `causalkit.*` module attribute for a module function (so
`causalkit.discovery.ci_test`, which `pc_skeleton` looks up at call time,
and `causalkit.cli.backdoor_adjust`, bound by `from .estimation import`,
are both covered). Nothing under `src/` is edited; `uninstall()` restores
the originals.

A span records its name, start, end and parent span. Spans live in flat
arrays while the run goes on and are summarised, or written out, when it
ends. Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, module, attribute path, counter hook name or None)
TARGETS = [
    ("data.init", "causalkit.data", "DiscreteDataset.__init__", "init_rows"),
    ("data.project", "causalkit.data", "DiscreteDataset.project", "project_rows"),
    ("data.from_csv", "causalkit.data", "DiscreteDataset.from_csv", None),
    ("data.to_csv", "causalkit.data", "DiscreteDataset.to_csv", None),
    ("data.with_columns", "causalkit.data", "DiscreteDataset.with_columns", None),
    ("graph.is_d_separated", "causalkit.graph", "CausalGraph.is_d_separated", None),
    ("graph.satisfies_backdoor_criterion", "causalkit.graph",
     "CausalGraph.satisfies_backdoor_criterion", None),
    ("graph.undirected_paths", "causalkit.graph", "CausalGraph.undirected_paths",
     "paths"),
    ("scm.sample", "causalkit.scm", "DiscreteScm.sample", "sample_rows"),
    ("scm.query", "causalkit.scm", "DiscreteScm.probability", None),
    ("scm.query", "causalkit.scm", "DiscreteScm.query_conditional", None),
    ("scm.intervene", "causalkit.scm", "DiscreteScm.intervene", None),
    ("estimation.empirical_conditional", "causalkit.estimation",
     "empirical_conditional", None),
    ("estimation.backdoor_adjust", "causalkit.estimation", "backdoor_adjust", None),
    ("estimation.backdoor_adjust_ratio", "causalkit.estimation",
     "backdoor_adjust_ratio", None),
    ("estimation.compute_ace", "causalkit.estimation", "compute_ace", None),
    ("estimation.detect_simpson_reversal", "causalkit.estimation",
     "detect_simpson_reversal", None),
    ("transport.detect_selection_bias", "causalkit.transport",
     "detect_selection_bias", None),
    ("transport.stratified_debias", "causalkit.transport", "stratified_debias", None),
    ("missing.classify_mechanism", "causalkit.missing", "classify_mechanism", None),
    ("missing.apply_missingness", "causalkit.missing", "apply_missingness", None),
    ("missing.recover_joint", "causalkit.missing", "recover_joint", None),
    ("discovery.ci_test", "causalkit.discovery", "ci_test", "ci_outcome"),
    ("discovery.pc_skeleton", "causalkit.discovery", "pc_skeleton", None),
    ("discovery.orient", "causalkit.discovery", "orient", None),
    ("discovery.greedy_score_search", "causalkit.discovery",
     "greedy_score_search", None),
    ("bandits.simulate", "causalkit.bandits", "simulate", "rounds"),
    ("cli.main", "causalkit.cli", "main", None),
]

# Every policy class's choose/observe shares one span name per method.
POLICY_CLASSES = (
    "ThompsonPolicy",
    "EpsilonGreedyPolicy",
    "CausalThompsonPolicy",
    "UniformPolicy",
    "OraclePolicy",
)


class SpanLog:
    """Flat, append-only span storage: one array per field."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def rows(self):
        """(name, start, end, parent) per span, in opening order."""
        for i in range(len(self.start)):
            yield (
                self.names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
            )


def self_times(spans) -> dict[str, dict[str, float]]:
    """Aggregate (name, start, end, parent) rows into per-name totals.

    Returns {name: {"calls", "total_s", "self_s"}}; a span's self time is
    its duration minus the summed durations of the spans whose parent it is.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - covered[i]
    return out


def child_time(spans, name: str) -> tuple[float, float]:
    """(summed duration of spans called `name`, summed duration of their
    direct children): how much of each such span the layers account for."""
    spans = list(spans)
    total = covered = 0.0
    wanted = set()
    for i, (n, start, end, _) in enumerate(spans):
        if n == name:
            wanted.add(i)
            total += end - start
    for _, start, end, parent in spans:
        if parent in wanted:
            covered += end - start
    return total, covered


class Tracer:
    """Installs span-recording wrappers and accumulates layer counters."""

    def __init__(self):
        self.log = SpanLog()
        self.counters: dict[str, float] = {}
        self._rebinds: list[tuple[object, str, object, object]] | None = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str):
        return _SpanContext(self.log, name)

    # -- counter hooks, called with (result, args, kwargs) after a call ------

    def _hook_init_rows(self, result, args, kwargs):
        self.count("data.init.rows", len(args[0]))

    def _hook_project_rows(self, result, args, kwargs):
        self.count("data.project.rows", len(args[0]))

    def _hook_sample_rows(self, result, args, kwargs):
        self.count("scm.sample.rows", len(result))

    def _hook_paths(self, result, args, kwargs):
        self.count("graph.undirected_paths.paths", len(result))

    def _hook_rounds(self, result, args, kwargs):
        self.count("bandits.simulate.rounds", len(result.rounds))

    def _hook_ci_outcome(self, result, args, kwargs):
        if result.independent:
            self.count("discovery.ci_test.independent")

    def _wrap(self, name: str, fn, hook_name):
        log = self.log
        hook = getattr(self, f"_hook_{hook_name}") if hook_name else None
        insufficient = None
        if name == "discovery.ci_test":
            from causalkit.errors import InsufficientData as insufficient

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                log.close(idx)
                if insufficient is not None and isinstance(exc, insufficient):
                    self.count("discovery.ci_test.insufficient")
                raise
            log.close(idx)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        wrapper.__traced_original__ = fn
        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "causalkit" or n.startswith("causalkit.")
        ]
        plan = []
        for name, modname, path, hook in TARGETS:
            module = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                plan.append((cls, attr, raw, wrapped))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, attr, original, wrapper))
        bandits = sys.modules["causalkit.bandits"]
        for cls_name in POLICY_CLASSES:
            cls = getattr(bandits, cls_name)
            for method in ("choose", "observe"):
                raw = cls.__dict__[method]
                plan.append((cls, method, raw, self._wrap(f"bandits.{method}", raw, None)))
        return plan

    def install(self) -> None:
        """Rebind every wrapper; `uninstall` puts the originals back. The
        wrappers are built once, so installing costs only the rebinding."""
        if self._rebinds is None:
            self._rebinds = self._plan()
        for owner, attr, _, wrapper in self._rebinds:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._rebinds or ():
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one tab-separated line: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.log.rows():
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


class _SpanContext:
    def __init__(self, log: SpanLog, name: str):
        self.log = log
        self.name = name
        self.idx = -1

    def __enter__(self):
        self.idx = self.log.open(self.name)
        return self

    def __exit__(self, *exc):
        self.log.close(self.idx)
        return False
