"""causalkit benchmark: four closed-loop workloads, each in its own process.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--size full|tiny] [--record FILE]

Run from anywhere inside a source checkout; the library is imported from
the checkout's `src/`. With `--trace 0` one workload runs in three fresh
processes (two for the CLI workload), each of which sets up once; the timed
phase of S seconds is shared among them (the CLI workload times in the last
one only), and each runs whole passes over its op list. Op latency and
set-up time are CPU time (see worker.cpu_s); the wall-clock figures are
printed beside them. The end-to-end metrics are printed one per line with
their units, and the last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--workload all` (the default) runs the four workloads in turn and prints
every metric, `fail_ratio` included, for each. With `--trace 1` the traced
run covers all four workloads, whatever `--workload` names, so that every
layer is measured; it prints the per-layer metrics and the tracing overhead
and writes the raw spans under `.bench_out/spans/`. The run fails, printing
no result, when the checkout has no `src/causalkit`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("discovery", "tabular", "bandits", "cli")
DEFAULT_SECONDS = 20  # BENCHMARK.json's run_seconds
# (fresh processes, of which timed) per run. Each process sets up once and
# setup_s is their median; the timed ones share the timed phase. A CLI op is
# already a fresh process, so the CLI workload times one pass in one
# process, and sets up only twice to keep its run short.
LAYOUT = {"discovery": (3, 3), "tabular": (3, 3), "bandits": (3, 3), "cli": (2, 1)}
RUN_LIMIT_S = 170  # every worker of one workload's run has ended by then
PROBE_RUNS = 5  # interpreter and import timings in the traced run

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


@dataclass
class Invocation:
    """Where one invocation's workers put their files, and when they must
    all have ended."""

    size: str
    tmp: Path
    deadline: float  # time.perf_counter() value

    def spawn(self, workload, seed, mode, seconds, part=0, spans: Path | None = None) -> dict:
        """Run worker.py in a fresh interpreter and return its result. The
        worker leads its own process group, so a timeout ends its CLI children
        too."""
        work = Path(tempfile.mkdtemp(dir=self.tmp, prefix=f"{workload}-{mode}-"))
        out = work / "result.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--seconds", str(seconds), "--part", str(part), "--size", self.size,
            "--tmp", str(work), "--out", str(out),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            if code != 0 or not out.exists():
                raise BenchError(f"{workload} worker ({mode}) exited with {code}")
            return json.loads(out.read_text())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} worker ({mode}) ran out of time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            shutil.rmtree(work, ignore_errors=True)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) for the highest percentile with at
    least ten ops beyond it. Below 22 ops no percentile above the median has
    ten ops beyond it, and the median itself is returned as percentile 50."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11
    if k <= (n - 1) // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(invocation: Invocation, workload, seed, seconds) -> dict:
    """Set up in `processes` fresh processes; the timed phase is shared
    among the last `timed` of them, which pools process-to-process
    variation."""
    processes, timed = LAYOUT[workload]
    runs = [
        invocation.spawn(workload, seed, "run" if i >= processes - timed else "setup",
                         seconds / timed, part=i)
        for i in range(processes)
    ]
    lat = [x for r in runs for x in r.get("latencies", [])]
    wall = [x for r in runs for x in r.get("wall_latencies", [])]
    tail_s, tail_pct, beyond = tail(lat)
    # A CLI user's memory is the CLI process's, not the client's.
    rss_key = "children_maxrss_kb" if workload == "cli" else "maxrss_kb"
    return {
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": max(r[rss_key] for r in runs) / 1024,
        },
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "setups": processes,
        "ops": len(lat),
        "wall": {"ops_per_s": len(wall) / sum(wall), "op_p50_ms": statistics.median(wall) * 1e3},
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
    }


def print_end_to_end(workload, seed, r) -> None:
    m = r["metrics"]
    print(f"workload {workload}  seed {seed}  timed ops {r['ops']}")
    notes = {
        "setup_s": f"median of {r['setups']} set-ups",
        "op_tail_ms": (
            f"p{r['tail_pct']:.0f}, {r['tail_beyond']} of {r['ops']} ops beyond it"
            if r["tail_pct"] > 50 else f"the median: {r['ops']} ops are too few for a tail"
        ),
    }
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<12} {m[name]:>12.4f} {unit:<4} {notes.get(name, '')}".rstrip())
    wall = r["wall"]
    print(f"  wall clock: ops_per_s {wall['ops_per_s']:.4f} 1/s, op_p50_ms {wall['op_p50_ms']:.4f} ms")
    ratio = r["failed"] / r["attempted"]
    print(f"  {'fail_ratio':<12} {ratio:>12.4f}      {r['failed']} of {r['attempted']} ops failed")
    for err in r["errors"]:
        print(f"    ! {err}")


# -- traced run --------------------------------------------------------------

# Span-derived per-layer metrics. The name is "<span>.<stat>"; stat is calls,
# self_s, or a counter the tracer keeps under the full name.
SPAN_METRICS = [
    "data.project.calls", "data.project.self_s", "data.project.rows",
    "data.init.calls", "data.init.self_s", "data.init.rows",
    "data.from_csv.self_s", "data.to_csv.self_s", "data.with_columns.self_s",
    "discovery.ci_test.calls", "discovery.ci_test.self_s",
    "discovery.ci_test.independent_ratio", "discovery.ci_test.insufficient",
    "discovery.pc_skeleton.self_s", "discovery.orient.self_s",
    "discovery.greedy_score_search.self_s",
    "scm.sample.calls", "scm.sample.self_s", "scm.sample.rows",
    "scm.query.calls", "scm.query.self_s", "scm.intervene.self_s",
    "graph.is_d_separated.calls", "graph.is_d_separated.self_s",
    "graph.satisfies_backdoor_criterion.calls", "graph.satisfies_backdoor_criterion.self_s",
    "graph.undirected_paths.calls", "graph.undirected_paths.self_s",
    "graph.undirected_paths.paths",
    "estimation.backdoor_adjust.self_s", "estimation.backdoor_adjust_ratio.self_s",
    "estimation.compute_ace.self_s", "estimation.detect_simpson_reversal.self_s",
    "estimation.empirical_conditional.self_s",
    "transport.stratified_debias.self_s", "transport.detect_selection_bias.self_s",
    "missing.apply_missingness.self_s", "missing.recover_joint.self_s",
    "missing.classify_mechanism.self_s",
    "bandits.simulate.calls", "bandits.simulate.self_s", "bandits.simulate.rounds",
    "bandits.choose.self_s", "bandits.observe.self_s",
    "cli.main.self_s",
]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        stat = name.rsplit(".", 1)[1]
        units[name] = {"self_s": "s", "independent_ratio": "ratio"}.get(stat, "count")
    units["cli.interpreter_ms"] = units["cli.import_ms"] = "ms"
    for w in WORKLOADS:
        units[f"trace.slowdown.{w}"] = "x"
        units[f"trace.coverage.{w}"] = "ratio"
    return units


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_ms(code: str) -> float:
    """Median CPU time of a fresh `python -c code`, spawn to exit, on the
    same clock as the CLI workload's ops."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(PROBE_RUNS):
        start = children_cpu_s()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        times.append(children_cpu_s() - start)
    return statistics.median(times) * 1e3


def traced(invocation: Invocation, seed) -> dict:
    spans_dir = ROOT / ".bench_out" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    metrics: dict[str, float] = {}
    attempted = failed = 0
    errors = []
    for w in WORKLOADS:
        res = invocation.spawn(w, seed, "trace", 0, spans=spans_dir / f"{w}-seed{seed}.tsv")
        t = res["trace"]
        attempted += res["attempted"]
        failed += res["failed"]
        errors += [f"{w}: {e}" for e in res["errors"]]
        for name, agg in t["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += agg["calls"]
            into["self_s"] += agg["self_s"]
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
        metrics[f"trace.slowdown.{w}"] = t["untraced_ops_per_s"] / t["traced_ops_per_s"]
        metrics[f"trace.coverage.{w}"] = t["coverage"]
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            metrics[name] = layers.get(span, {}).get(stat, 0)
        elif stat == "independent_ratio":
            calls = layers.get(span, {}).get("calls", 0)
            metrics[name] = counters.get(f"{span}.independent", 0) / calls if calls else 0.0
        else:
            metrics[name] = counters.get(name, 0)
    metrics["cli.interpreter_ms"] = probe_ms("pass")
    metrics["cli.import_ms"] = probe_ms("import causalkit.cli")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors}


def print_traced(r) -> None:
    units = per_layer_units()
    print("traced run over all workloads (fixed op lists, spans in .bench_out/spans/)")
    for name, value in r["metrics"].items():
        print(f"  {name:<42} {value:>14.6f} {units[name]}")
    for err in r["errors"]:
        print(f"    ! {err}")


def result_line(r, units) -> dict:
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="causalkit benchmark")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--record", type=Path, help="append the result as one JSON line")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "causalkit" / "__init__.py").is_file():
        print(f"error: no causalkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    runs_needed = len(WORKLOADS) if args.workload == "all" and not args.trace else 1
    invocation = Invocation(args.size, tmp, time.perf_counter() + RUN_LIMIT_S * runs_needed)
    try:
        if args.trace:
            r = traced(invocation, args.seed)
            print_traced(r)
            line = result_line(r, per_layer_units())
        elif args.workload == "all":
            runs = {}
            for w in WORKLOADS:
                runs[w] = end_to_end(invocation, w, args.seed, args.seconds)
                print_end_to_end(w, args.seed, runs[w])
            combined = {
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {
                    f"{w}.{k}": v for w, r in runs.items() for k, v in r["metrics"].items()
                },
            }
            units = {f"{w}.{k}": u for w in WORKLOADS for k, u in E2E_UNITS.items()}
            line = result_line(combined, units)
        else:
            r = end_to_end(invocation, args.workload, args.seed, args.seconds)
            print_end_to_end(args.workload, args.seed, r)
            line = result_line(r, E2E_UNITS)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "size": args.size, "result": line,
            }) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
