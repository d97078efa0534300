"""One workload in one fresh process; `run.py` starts it and reads its result.

    python3 bench/worker.py --workload W --seed N --mode {setup,run,trace}
        --seconds S --part P --size {full,tiny} --tmp DIR --out FILE [--spans FILE]

Every mode first sets up (import causalkit, generate inputs into DIR, one
warm-up op) and reports the CPU time that took as setup_s. `setup` stops
there. `run` then runs whole passes over the op list for about S seconds
(see timed_phase) and reports each op's CPU time, wall time and outcome;
process P of a run starts at op 1000 * P of the workload's op stream, so
replicate workloads give each process its own replicates. `trace` runs a
fixed number of ops twice each, untraced and traced (tracer.py), reports
span aggregates and writes the spans themselves to the --spans file. The
result is a JSON object written to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def cpu_s() -> float:
    """CPU seconds used so far by this process and by its children that have
    ended; a CLI op is such a child. Every workload is single-threaded and
    CPU-bound, so an op's CPU time is its latency on a core of its own,
    without the time a shared host gives that core to other tenants."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(op, outcome: dict) -> tuple[float, float]:
    """Time op.run as (CPU seconds, wall seconds), then check its output;
    failures are counted, not raised."""
    cpu, wall = cpu_s(), time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op
        elapsed = cpu_s() - cpu, time.perf_counter() - wall
        _fail(outcome, op.name, f"raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = cpu_s() - cpu, time.perf_counter() - wall
    try:
        problem = op.check(result)
    except Exception:
        problem = "check raised:\n" + traceback.format_exc(limit=3)
    if problem is not None:
        _fail(outcome, op.name, problem)
    return elapsed


def _fail(outcome: dict, name: str, problem: str) -> None:
    outcome["failed"] += 1
    if len(outcome["errors"]) < 10:
        outcome["errors"].append(f"{name}: {problem}")


def timed_phase(
    workload, seconds: float, outcome: dict, start: int = 0
) -> list[tuple[float, float]]:
    """Closed loop: the next op starts when the previous one is checked.
    Whole passes over the op list, at least one and at least
    `workload.min_ops` ops; another pass starts only if it would end, at the
    pace of the one before, less than half a pass past `seconds` of wall
    time, so the phase ends at the pass boundary nearest to it. Returns each
    op's (CPU seconds, wall seconds)."""
    latencies = []
    deadline = time.perf_counter() + seconds
    pass_start = time.perf_counter()
    for op in workload.ops(start):
        latencies.append(run_op(op, outcome))
        if len(latencies) % workload.cycle_len:
            continue
        now = time.perf_counter()
        if len(latencies) >= workload.min_ops and now + (now - pass_start) / 2 > deadline:
            break
        pass_start = now
    return latencies


def trace_phase(workload, spans_file: Path, outcome: dict) -> dict:
    """Run the first `trace_ops` ops twice each, untraced and traced, in
    alternating order so that neither side always runs warm. Only op.run is
    traced, inside an `op` span; the check runs with the tracer removed."""
    from tracer import Tracer, child_time, self_times

    if workload.name == "cli":
        workload.in_process = True  # same argv through causalkit.cli.main
    tracer = Tracer()
    tracer.install()  # builds the wrappers once, outside any timing
    tracer.uninstall()

    def traced_run(run):
        tracer.install()
        try:
            with tracer.span("op"):
                return run()
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for i, op in zip(range(workload.trace_ops), workload.ops()):
        twin = replace(op, run=lambda run=op.run: traced_run(run))
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                traced.append(run_op(twin, outcome)[0])
            else:
                plain.append(run_op(op, outcome)[0])
    spans = list(tracer.log.rows())
    tracer.write(spans_file)
    op_s, covered = child_time(spans, "op")
    return {
        "layers": self_times(spans),
        "counters": tracer.counters,
        "untraced_ops_per_s": len(plain) / sum(plain),
        "traced_ops_per_s": len(traced) / sum(traced),
        "coverage": covered / op_s,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--part", type=int, default=0, help="which process of the run this is")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="trace mode: write every span here")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    outcome = {"failed": 0, "errors": []}
    workload = workloads.make(args.workload, args.size)
    workload.setup(args.tmp, args.seed)
    run_op(workload.warmup(), outcome)
    result = {"setup_s": cpu_s()}
    if args.mode == "run":
        timed = timed_phase(workload, args.seconds, outcome, args.part * 1000)
        result["latencies"] = [cpu for cpu, _ in timed]
        result["wall_latencies"] = [wall for _, wall in timed]
        result["attempted"] = 1 + len(timed)
    elif args.mode == "trace":
        result["trace"] = trace_phase(workload, args.spans, outcome)
        result["attempted"] = 1 + 2 * workload.trace_ops
    else:
        result["attempted"] = 1
    result["failed"] = outcome["failed"]
    result["errors"] = outcome["errors"]
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
