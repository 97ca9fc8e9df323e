"""Self-test of the benchmark at smoke size: every workload runs and
checks out, a seed fixes the output digest, a second seed keeps the op
list and changes its values, and a tree without sources is refused."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=120)
    return proc


def smoke(workload, seed, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_deterministic(workload):
    result, meta = smoke(workload, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    _, again = smoke(workload, 1)
    assert again["digest_sha256"] == meta["digest_sha256"]
    traced, traced_meta = smoke(workload, 1, trace=1)
    assert traced["correct"] and traced_meta["digest_sha256"] == meta["digest_sha256"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert 0 < traced["metrics"]["trace.span_coverage_min"]["value"] <= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_values_not_ops(workload):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from harness import Tracer, build_env
    from run import WORKLOADS as PLANS

    ops = {}
    for seed in (1, 2):
        plan = PLANS[workload](seed)
        ops[seed] = plan.make_ops(build_env(plan.env, Tracer()))
    assert len(ops[1]) >= 100
    assert [(op.cls, op.shape) for op in ops[1]] == [(op.cls, op.shape) for op in ops[2]]
    changed = sum(a.values != b.values for a, b in zip(ops[1], ops[2]))
    assert changed >= len(ops[1]) // 2


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
