"""The benchmark's own tests, run from the repository root:

    python3 -m pytest perfbench -q

They take about two minutes: each workload runs traced twice with one
seed, each sweep runs once more with another seed, and the benchmark runs
once in a directory without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEPS = ("quad-tri-sweep", "split-fieldsplit-sweep")
WORKLOADS = (*SWEEPS, "reassembly-warm")
EXACT_COUNTS = ("compile.kernel_calls", "assemble.entities",
                "compile.pullback_calls", "assemble.cg_iters",
                "assemble.nnz", "forms.ndofs")
SEED = 7


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def checked_result(workload, seed, trace):
    """Result line and run record of one run that passed its checks."""
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(path.read_text())


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [checked_result(w, SEED, 1) for _ in range(2)]
            for w in WORKLOADS}


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_with_the_same_seed(traced_twice, workload):
    (first, _), (second, _) = traced_twice[workload]
    for name in EXACT_COUNTS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(traced_twice, declared,
                                                 workload):
    result, _ = traced_twice[workload][0]
    _, per_layer = declared
    assert {k: m["unit"] for k, m in result["metrics"].items()} == per_layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_root_spans_cover_the_traced_wall_time(traced_twice, workload):
    result, _ = traced_twice[workload][0]
    assert 0.98 <= result["metrics"]["trace.coverage_frac"]["value"] <= 1.0


@pytest.mark.parametrize("workload", SWEEPS)
def test_errors_match_across_seeds(traced_twice, declared, workload):
    from workloads import ERROR_RTOL, cell_id, sweep_cells

    _, first = traced_twice[workload][0]
    result, second = checked_result(workload, SEED + 1, 0)
    assert set(result["metrics"]) == set(declared[0])
    assert set(first["errors"]) == {cell_id(*cell)
                                    for cell in sweep_cells(workload)}
    for cell, errors in first["errors"].items():
        assert second["errors"][cell] == pytest.approx(errors,
                                                       rel=ERROR_RTOL)


def test_fails_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("reassembly-warm", SEED, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
