"""Tests of the benchmark itself, on the tiny version of every workload.

    python3 -m pytest perfbench/test_perfbench.py

Each workload is run twice untraced and twice traced (one pass each); the
tests check that every metric BENCHMARK.json names is reported with its
unit, that count metrics repeat exactly, and that tracing changes neither
the ops' outputs nor the op counts.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracer import COUNT_METRICS, METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = next(json.loads(line[len("digests "):]) for line in lines
                   if line.startswith("digests "))
    printed = {line.split()[1]: line.split()[4] for line in lines
               if line.startswith("metric ")}
    return json.loads(lines[-1]), digests, printed


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return {"workload": w, "untraced": [_run(w, 0), _run(w, 0)],
            "traced": [_run(w, 1), _run(w, 1)]}


def test_result_line_and_correctness(runs):
    for result, _, _ in runs["untraced"] + runs["traced"]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] > 0


def test_every_metric_present_with_unit(runs):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == dict(METRICS)
    for result, _, printed in runs["untraced"]:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == e2e
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert {k: printed[k] for k in e2e} == e2e
        # per-op percentiles only where a pass has >= 100 ops
        percentiles = {k: printed.get(k) for k in ("op_p50_ms", "op_p90_ms")}
        if runs["workload"] in ("matrix-condition", "lattice-scan"):
            assert percentiles == {"op_p50_ms": "ms", "op_p90_ms": "ms"}
        else:
            assert percentiles == {"op_p50_ms": None, "op_p90_ms": None}
    for result, _, printed in runs["traced"]:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == layer
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        assert {k: printed[k] for k in layer} == layer


def test_count_metrics_repeat_exactly(runs):
    (a, _, _), (b, _, _) = runs["traced"]
    for name in COUNT_METRICS:
        assert a["metrics"][name] == b["metrics"][name], name
    assert a["metrics"]["trace.spans"]["value"] > 0


def test_tracing_leaves_outputs_and_counts_unchanged(runs):
    (u, u_digests, _), _ = runs["untraced"]
    (t, t_digests, _), _ = runs["traced"]
    assert t_digests == u_digests
    # a traced run makes one untraced and one traced pass
    assert t["attempted"] == 2 * u["attempted"] and t["failed"] == u["failed"]


def test_refuses_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, the run
    must fail without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("matrix-condition", 0, cwd=str(tmp_path), check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
