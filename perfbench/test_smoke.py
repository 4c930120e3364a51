"""The benchmark's own tests: every workload at smoke size, in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Metric names and units must match BENCHMARK.json, and the deterministic
counters must equal the values below. Wall times are recorded, never
asserted. The counters describe the grounded graphs, so a change to
grounding moves them: such a change updates this table and says why.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from traced import live_conjunctions  # noqa: E402
from workloads import WORKLOADS, boolean_targets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Counters of each workload at smoke size, seed 1.
COUNTERS = {
    "eval-vg": {
        "grounding.universe": 664,
        "grounding.atoms": 3932,
        "grounding.conj": 880,
        "grounding.max_fan_in": 1,
        "grounding.dead_conj": 564,
        "grounding.live_conj_ratio": 0.35909090909090907,
        "training.groundings_per_example": 1.0,
        "reasoner.fallback_share": 0.0,
        "unify.substitutions": 0,
    },
    "reason-dense": {
        "grounding.universe": 256,
        "grounding.atoms": 2329,
        "grounding.conj": 519,
        "grounding.max_fan_in": 2,
        "grounding.dead_conj": 510,
        "grounding.live_conj_ratio": 0.017341040462427744,
        "training.groundings_per_example": 1.0,
        "reasoner.fallback_share": 0.5,
        "unify.substitutions": 8,
    },
    "train-mixture": {
        "grounding.universe": 852,
        "grounding.atoms": 33837,
        "grounding.conj": 11489,
        "grounding.max_fan_in": 2,
        "grounding.dead_conj": 10416,
        "grounding.live_conj_ratio": 0.09339368091217687,
        "training.groundings_per_example": 1.8,
        "reasoner.fallback_share": 0.0,
        "unify.substitutions": 0,
    },
    "train-steps": {
        "grounding.universe": 485,
        "grounding.atoms": 16616,
        "grounding.conj": 5760,
        "grounding.max_fan_in": 2,
        "grounding.dead_conj": 5079,
        "grounding.live_conj_ratio": 0.11822916666666666,
        "training.groundings_per_example": 1.5,
        "reasoner.fallback_share": 0.0,
        "unify.substitutions": 0,
    },
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(bench("--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             "--size", "smoke"))
    assert units(result["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counters(workload):
    result = result_of(bench("--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", "1",
                             "--size", "smoke"))
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, value in COUNTERS[workload].items():
        assert metrics[name]["value"] == value, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "eval-vg", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_boolean_targets_follow_conjunction_and_disjunction():
    scene = {
        "objects": [
            {"object_id": 5, "names": ["man"]},
            {"object_id": 6, "names": ["Boat"]},
            {"object_id": 7, "names": ["tree"]},
        ],
        "relations": [
            {"subject_id": 5, "predicate": "parked on", "object_id": 6},
            {"subject_id": 7, "predicate": "near", "object_id": 6},
        ],
    }
    program = (
        "cond1(X):-parked_on(X,Y),type(Y,boat).\n"
        "cond2(X):-type(X,man).\n"
        "cond3(X):-near(X,Y),type(Y,boat).\n"
        "target(X):-cond1(X),cond2(X).\n"
        "0.5: target(X):-cond3(X).\n"
    )
    assert boolean_targets(program, scene) == {5, 7}


def test_live_conjunctions_follow_derivations():
    # Facts 0 and 1; conj 0: 0,1 -> 2; conj 1: 2 -> 3; conj 2: 4 -> 3;
    # conj 3: 3,5 -> 6. Atoms 4 and 5 are never derived.
    graph = SimpleNamespace(
        n_atoms=7, n_facts=2, n_conj=4,
        conj_head=[2, 3, 3, 6],
        body_counts=[2, 1, 1, 2],
        body_atoms=[0, 1, 2, 4, 3, 5],
    )
    assert live_conjunctions(graph) == 2
