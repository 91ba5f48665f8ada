"""Self-tests of the repository benchmark.

Run from the repository root (not part of the tier-1 suite, whose
``testpaths`` is ``tests``)::

    python3 -m pytest perfbench/tests -q

The quick-size runs take a few minutes: every workload runs with a one
second measuring window, traced and untraced, on two seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
from spans import layer_totals  # noqa: E402

WORKLOADS = ("ladder", "serve", "ingest")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    answers = next(line.split()[-1] for line in lines
                   if line.startswith("attempted "))
    return done.returncode, json.loads(lines[-1]), answers


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] and len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_a_seed_changes_the_inputs():
    assert inputs.corpus_texts("dblp", 2, 1) == inputs.corpus_texts(
        "dblp", 2, 1)
    assert inputs.corpus_texts("dblp", 2, 1) != inputs.corpus_texts(
        "dblp", 2, 2)
    assert inputs.new_records(1, 50) != inputs.new_records(2, 50)
    assert inputs.poisson_schedule(100, 1, 1) != inputs.poisson_schedule(
        100, 1, 2)


def test_self_time_subtracts_other_layers_only():
    # engine(0..10) > merge(1..4) > folded postings 1s; rank(5..9)
    snapshot = {
        "spans": [[2, 1, "merge.merged_list", 1.0, 4.0, "r"],
                  [3, 1, "rank.rank_response", 5.0, 9.0, "r"],
                  [1, None, "engine.search", 0.0, 10.0, "r"]],
        "attrs": {"2": {"sl_entries": 7}},
        "folded": [["codec.postings", 2, 4, 1.0],
                   ["rank.rank_node", 3, 10, 3.0]],
    }
    totals = layer_totals(snapshot)
    assert totals["engine"]["self_s"] == pytest.approx(3.0)
    assert totals["merge"]["self_s"] == pytest.approx(2.0)
    assert totals["codec"]["self_s"] == pytest.approx(1.0)
    assert totals["rank"]["self_s"] == pytest.approx(4.0)
    assert totals["rank"]["folded_calls"] == 10
    assert totals["merge"]["attrs"] == {"sl_entries": 7}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload):
    status, plain, answers = _run(workload, seed=1, trace=0)
    assert status == 0 and plain["correct"] and plain["failed"] == 0
    assert {name: value["unit"] for name, value in plain["metrics"].items()
            } == {name: unit for name, unit, *_ in metrics.END_TO_END}
    assert all(value["value"] > 0 for value in plain["metrics"].values())

    status, traced, traced_answers = _run(workload, seed=1, trace=1)
    assert status == 0 and traced["correct"]
    assert {name: value["unit"] for name, value in traced["metrics"].items()
            } == dict(metrics.PER_LAYER)
    assert traced_answers == answers  # tracing changes no answer

    status, other, other_answers = _run(workload, seed=2, trace=0)
    assert status == 0 and other["correct"]
    assert set(other["metrics"]) == set(plain["metrics"])
    assert other_answers != answers  # another seed, other inputs


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
