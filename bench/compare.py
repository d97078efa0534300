"""Compare two sets of benchmark runs: parent against change.

    python3 bench/compare.py run --parent DIR --change DIR --workload W --out DIR
    python3 bench/compare.py judge PARENT.jsonl CHANGE.jsonl [--json]

`run` alternates the two checkouts for ten pairs (parent first on even
pairs, change first on odd ones), with seed 100 + i for pair i and the
run length of BENCHMARK.json, and appends each result to OUT/parent.jsonl
and OUT/change.jsonl through `run.py --record`.

`judge` pairs the i-th run of each file for each workload; both files must
hold the same number of runs of each workload. It labels every end-to-end
metric:

  invalid     the change's ops fail their output checks more often (failed
              over attempted, across its runs) than the parent's; a faster
              wrong answer is not a gain, so no other label is given;
  improved    the change wins at least 9/10 of at least 10 pairs (ties count
              for neither side) and the medians are further apart than the
              parent's inter-quartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  neither, and either side's spread (IQR / median) is wider than
              the bound, unless every change run beats every parent run;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED0 = 100


def load_runs(path: Path) -> dict[str, list[dict]]:
    """{workload: [{"metrics", "failed", "attempted"}, ...]} from run.py
    --record lines, in order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] or rec["workload"] == "all":
            continue
        res = rec["result"]
        runs.setdefault(rec["workload"], []).append({
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "failed": res["failed"],
            "attempted": res["attempted"],
        })
    return runs


def fail_ratio(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge_metric(
    parent: list[float], change: list[float], bound: float, lower_better: bool,
    more_failures: bool = False,
) -> dict:
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    pairs = list(zip(parent, change, strict=True))
    wins = sum(better(c, p) for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    p_iqr = p3 - p1
    p_spread = p_iqr / pmed
    c_spread = (c3 - c1) / cmed
    worse_by = (cmed - pmed) / pmed if lower_better else (pmed - cmed) / pmed
    all_better = all(better(c, p) for c in change for p in parent)
    if more_failures:
        label = "invalid"
    elif (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and better(cmed, pmed)
        and abs(cmed - pmed) > p_iqr
    ):
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif max(p_spread, c_spread) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "label": label,
        "pairs": len(pairs),
        "wins": wins,
        "parent": [p1, pmed, p3],
        "change": [c1, cmed, c3],
        "worse_by": worse_by,
        "bound": bound,
    }


def judge_workload(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Label every end-to-end metric of one workload from its two run lists."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs but {len(change)} change runs")
    more_failures = fail_ratio(change) > fail_ratio(parent)
    return {
        m["name"]: judge_metric(
            [r["metrics"][m["name"]] for r in parent],
            [r["metrics"][m["name"]] for r in change],
            m["bound"], m["better"] == "lower", more_failures,
        )
        for m in spec["end_to_end"]
    }


def judge(parent_file: Path, change_file: Path, spec: dict) -> dict:
    parent, change = load_runs(parent_file), load_runs(change_file)
    out: dict[str, dict] = {}
    for workload in sorted(set(parent) | set(change)):
        try:
            out[workload] = judge_workload(
                parent.get(workload, []), change.get(workload, []), spec
            )
        except ValueError as exc:
            raise ValueError(f"{workload}: {exc}") from None
    return out


def run_pairs(args, spec: dict) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [
                sys.executable, "bench/run.py", "--workload", args.workload,
                "--seed", str(SEED0 + i), "--seconds", str(spec["run_seconds"]),
                "--record", str((args.out / f"{side}.jsonl").resolve()),
            ]
            subprocess.run(cmd, cwd=sides[side], check=True, stdout=subprocess.DEVNULL)
            print(f"pair {i}: {side} done", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare parent and change benchmark runs")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs in two checkouts")
    r.add_argument("--parent", type=Path, required=True)
    r.add_argument("--change", type=Path, required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--out", type=Path, required=True)
    j = sub.add_parser("judge", help="label each metric from two recorded sets")
    j.add_argument("parent", type=Path)
    j.add_argument("change", type=Path)
    j.add_argument("--json", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.cmd == "run":
        return run_pairs(args, spec)

    try:
        result = judge(args.parent, args.change, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, indent=1))
        return 0
    print(f"{'workload':<10} {'metric':<12} {'parent median':>14} {'change median':>14} "
          f"{'wins':>7} {'worse by':>9} {'bound':>6}  label")
    for workload, metrics in result.items():
        for name, r in metrics.items():
            print(f"{workload:<10} {name:<12} {r['parent'][1]:>14.4f} {r['change'][1]:>14.4f} "
                  f"{r['wins']:>3}/{r['pairs']:<3} {r['worse_by']:>9.3f} {r['bound']:>6.2f}  {r['label']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
