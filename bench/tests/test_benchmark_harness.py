"""Tests of the benchmark harness itself (not of causalkit).

    python3 -m pytest bench/tests -q

The workload runs use the tiny input sizes, so the whole file takes about
a minute.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_prints_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    for name in list(run.E2E_UNITS) + ["fail_ratio"]:
        assert f"  {name} " in proc.stdout


def test_spec_lists_what_the_harness_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    mapped = [n for row in json.loads((BENCH_DIR / "layers.json").read_text())["map"]
              for n in row["layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("a", 11.0, 12.0, -1),
    ]
    agg = tracer.self_times(spans)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert agg["b"]["self_s"] == 1.0 and agg["c"]["self_s"] == 4.0
    assert tracer.child_time(spans, "root") == (10.0, 7.0)


def test_span_log_records_parents():
    log = tracer.SpanLog()
    outer = log.open("outer")
    inner = log.open("inner")
    log.close(inner)
    log.close(outer)
    sibling = log.open("sibling")
    log.close(sibling)
    rows = list(log.rows())
    assert [(r[0], r[3]) for r in rows] == [("outer", -1), ("inner", 0), ("sibling", -1)]
    assert all(end >= start for _, start, end, _ in rows)


def test_tracer_rebinds_every_importer_and_restores():
    import causalkit
    from causalkit import cli, discovery, estimation
    from causalkit.data import DiscreteDataset

    originals = (estimation.backdoor_adjust, DiscreteDataset.project)
    t = tracer.Tracer()
    t.install()
    try:
        for fn in (cli.backdoor_adjust, causalkit.backdoor_adjust, estimation.backdoor_adjust):
            assert fn.__traced_original__ is originals[0]
        assert hasattr(discovery.ci_test, "__traced_original__")
        ds = DiscreteDataset(["a", "b"], [("0", "1"), ("1", "1")])
        ds.counts(["a"])
        assert t.counters["data.project.rows"] == 2
        assert t.counters["data.init.rows"] == 2
    finally:
        t.uninstall()
    assert (estimation.backdoor_adjust, DiscreteDataset.project) == originals
    assert cli.backdoor_adjust is originals[0]
    names = [r[0] for r in t.log.rows()]
    assert names == ["data.init", "data.project"]


def _fresh(name: str, tmp_path: Path):
    w = workloads.make(name, "tiny")
    w.setup(tmp_path, 5)
    return w


def test_wrong_expected_output_raises_fail_ratio(tmp_path):
    w = _fresh("bandits", tmp_path)
    w.digests = {str(s): "0" * 20 for s in range(workloads.DIGEST_SEEDS)}
    outcome = {"failed": 0, "errors": []}
    latencies = worker.timed_phase(w, 0.0, outcome)
    assert outcome["failed"] / (1 + len(latencies)) > 0
    assert "pinned digest" in outcome["errors"][0]


def test_wrong_truth_fails_the_estimate_check(tmp_path):
    w = _fresh("tabular", tmp_path)
    w.warmup().run()
    w.truth["do1"] += 0.5
    outcome = {"failed": 0, "errors": []}
    worker.timed_phase(w, 0.0, outcome)
    failing = {e.split(":")[0] for e in outcome["errors"]}
    assert failing == {"backdoor_adjust[X=1]", "backdoor_adjust_ratio[X=1]", "compute_ace"}


def test_raising_op_is_counted_not_propagated():
    outcome = {"failed": 0, "errors": []}

    def boom():
        raise ValueError("no")

    worker.run_op(workloads.Op("boom", boom, lambda _: None), outcome)
    worker.run_op(workloads.Op("bad", lambda: 1, lambda v: "wrong value"), outcome)
    worker.run_op(workloads.Op("good", lambda: 1, lambda v: None), outcome)
    assert outcome["failed"] == 2


def test_independent_routes_agree_with_hand_cases():
    # V0 -> V1 -> V2 and V0 -> V2: {V0} blocks the only backdoor path.
    names = ["V0", "V1", "V2"]
    edges = [("V0", "V1"), ("V1", "V2"), ("V0", "V2")]
    assert workloads.backdoor_reference(names, edges, "V1", "V2", {"V0"})
    assert not workloads.backdoor_reference(names, edges, "V1", "V2", set())
    # A collider V0 -> V1 <- V2 is open only given V1.
    parents = {"V0": [], "V1": ["V0", "V2"], "V2": []}
    children = {"V0": ["V1"], "V1": [], "V2": ["V1"]}
    assert workloads.d_separated(parents, children, "V0", "V2", set())
    assert not workloads.d_separated(parents, children, "V0", "V2", {"V1"})
    trans = [((0.9, 0.1), (0.2, 0.8))] * 2
    assert workloads.chain_reference(trans, 0, 1) == pytest.approx(0.8 * 0.8 + 0.2 * 0.1)


def test_tail_never_drops_below_the_median():
    # Up to 21 ops no percentile above the median has ten ops beyond it.
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    lat = [float(i) for i in range(21)]
    assert run.tail(lat) == (10.0, 50.0, 10)
    lat = [float(i) for i in range(22)]
    assert run.tail(lat) == (11.0, pytest.approx(1200 / 22), 10)
    assert run.tail(lat)[0] > statistics.median(lat)
    lat = [float(i) for i in range(100)]
    assert run.tail(lat) == (89.0, 90.0, 10)


def test_judge_labels():
    flat = [100.0 + (i % 3) for i in range(10)]
    faster = [80.0 + (i % 3) for i in range(10)]
    slower = [130.0 + (i % 3) for i in range(10)]
    noisy = [100.0, 60.0, 140.0, 100.0, 60.0, 140.0, 100.0, 60.0, 140.0, 100.0]
    label = lambda p, c: compare.judge_metric(p, c, 0.1, lower_better=True)["label"]
    assert label(flat, faster) == "improved"
    assert label(flat, slower) == "worse"
    assert label(flat, flat) == "unchanged"
    assert label(flat, noisy) == "unresolved"
    with pytest.raises(ValueError):
        label(flat, faster[:9])


def test_judge_refuses_a_gain_with_more_failures():
    spec = {"end_to_end": [{"name": "op_p50_ms", "bound": 0.1, "better": "lower"}]}
    run_of = lambda value, failed: {
        "metrics": {"op_p50_ms": value}, "failed": failed, "attempted": 100,
    }
    parent = [run_of(100.0 + i % 3, 0) for i in range(10)]
    fast_and_right = [run_of(80.0 + i % 3, 0) for i in range(10)]
    fast_and_wrong = [run_of(80.0 + i % 3, 1 if i == 4 else 0) for i in range(10)]
    label = lambda p, c: compare.judge_workload(p, c, spec)["op_p50_ms"]["label"]
    assert label(parent, fast_and_right) == "improved"
    assert label(parent, fast_and_wrong) == "invalid"
    with pytest.raises(ValueError):
        compare.judge_workload(parent, fast_and_right[:9], spec)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "bandits", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
