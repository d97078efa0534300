"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from CausalKitError so callers (and the
CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class CausalKitError(Exception):
    """Base class for all toolkit errors."""


# graph construction / queries


class GraphError(CausalKitError):
    pass


class CycleDetected(GraphError):
    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__(f"graph contains a cycle: {' -> '.join(cycle)}")


class DanglingEdge(GraphError):
    def __init__(self, edge: tuple[str, str]):
        self.edge = edge
        super().__init__(f"edge {edge[0]} -> {edge[1]} references a missing node")


class DuplicateNode(GraphError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate node name: {name!r}")


class InvalidNodeName(GraphError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"invalid node name: {name!r}")


class UnknownNode(GraphError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown node: {name!r}")


class InvalidStructure(GraphError):
    """A node's kind forbids the wiring it was given."""


class GraphTooLarge(GraphError):
    """Path enumeration ran past its fixed budget of search steps."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(
            f"too many paths to list: path enumeration stops after {budget} "
            "search steps"
        )


class OverlappingSets(CausalKitError):
    def __init__(self, names: set[str]):
        self.names = names
        super().__init__(f"sets must be disjoint; shared: {sorted(names)}")


class NotSupported(CausalKitError):
    pass


# structural causal models


class ScmError(CausalKitError):
    pass


class InvalidCpt(ScmError):
    pass


class ModelTooLarge(ScmError):
    """An exact query's elimination plan visits more table entries than the
    fixed budget allows (`scm.QUERY_BUDGET`, 2^26; not configurable). The
    CLI prints it as a domain error with exit 1."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(
            f"query too large to answer exactly: its elimination plan visits "
            f"more than {budget} table entries"
        )


class PartialAssignment(ScmError):
    def __init__(self, missing: set[str]):
        self.missing = missing
        super().__init__(f"assignment does not cover: {sorted(missing)}")


class UnknownState(ScmError):
    def __init__(self, node: str, state: str):
        self.node = node
        self.state = state
        super().__init__(f"node {node!r} has no state {state!r}")


class PartialOverlap(ScmError):
    def __init__(self, names: set[str]):
        self.names = names
        super().__init__(f"target and evidence share nodes: {sorted(names)}")


class ZeroEvidenceProbability(ScmError):
    pass


# datasets and estimation


class DataError(CausalKitError):
    pass


class SchemaMismatch(DataError):
    pass


class EmptySelection(DataError):
    pass


class EmptyStratum(DataError):
    def __init__(self, stratum: dict[str, str]):
        self.stratum = stratum
        detail = ", ".join(f"{k}={v}" for k, v in sorted(stratum.items()))
        super().__init__(f"no usable rows in stratum {{{detail}}}")


class PositivityViolation(DataError):
    def __init__(self, stratum: dict[str, str]):
        self.stratum = stratum
        detail = ", ".join(f"{k}={v}" for k, v in sorted(stratum.items()))
        super().__init__(
            f"stratum {{{detail}}} has no rows for the requested treatment value"
        )


# transport / selection


class WeightMismatch(CausalKitError):
    pass


class WeightsNotNormalized(CausalKitError):
    pass


# missing data


class UnmatchedPattern(CausalKitError):
    pass


# bandits


class UnknownArm(CausalKitError):
    def __init__(self, arm: int, count: int):
        self.arm = arm
        super().__init__(f"arm {arm} out of range for {count}-armed environment")


class MissingIntent(CausalKitError):
    pass


# discovery


class InsufficientData(CausalKitError):
    def __init__(self, detail: str):
        super().__init__(detail)
