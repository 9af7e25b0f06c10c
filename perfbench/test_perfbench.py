"""Self-tests of the benchmark (run with ``python -m pytest perfbench``).

* ``BENCHMARK.json`` is what ``metrics.py`` implies and keeps the
  benchmark contract's limits;
* a tiny run of each workload, in both modes, exits 0 and prints every
  metric named in ``BENCHMARK.json`` with its unit on its last line;
* a planted wrong answer (one swapped rid) is caught by each workload's
  oracle, and the command then exits 1;
* without the checkout's ``src/`` the command fails without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
from common import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_registry():
    assert SPEC == metrics.benchmark_json()


def test_benchmark_json_keeps_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_every_per_layer_metric_names_what_it_moves():
    for m in metrics.PER_LAYER:
        assert m.about and m.where and set(m.where) <= set(metrics.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    class S:
        def __init__(self, name, index, parent, start, duration):
            self.name, self.index, self.parent = name, index, parent
            self.start_s, self.duration_s = start, duration

    spans = [S("p", 0, -1, 0.0, 10.0), S("c", 1, 0, 1.0, 2.0),
             S("c", 2, 0, 2.0, 3.0), S("c", 3, 0, 7.0, 1.0),
             S("g", 4, 1, 1.5, 0.5)]
    selfs = self_times(spans)
    assert selfs["p"] == [5.0]
    assert selfs["c"] == [1.5, 3.0, 1.0]


def command(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "2", "--trace",
         str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = command(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        trace_file = (ROOT / ".perfbench" / "trace"
                      / f"{workload}-seed3-trace1-tiny.jsonl")
        report = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", str(trace_file),
             "--top", "3"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(ROOT / "src")},
        )
        assert report.returncode == 0, report.stderr


def swap_one(ids, candidates):
    """Copy of ``ids`` with the last rid of its first row replaced by the
    first of ``candidates`` outside that row."""
    ids = np.array(ids, copy=True)
    row = ids.reshape(-1, ids.shape[-1])[0]
    taken = set(row.tolist())
    row[-1] = next(r for r in candidates if r not in taken)
    return ids


def plant_query_local(monkeypatch):
    from repro.index.base import KNNResult
    from repro.index.idistance import ExtendedIDistance

    original = ExtendedIDistance.knn

    def knn(self, query, k, *args, **kwargs):
        res = original(self, query, k, *args, **kwargs)
        return KNNResult(swap_one(res.ids, range(self.reduced.n_points)),
                         res.distances, res.stats)

    monkeypatch.setattr(ExtendedIDistance, "knn", knn)


def plant_serve_sharded(monkeypatch):
    from repro.serve import router

    original = router.merge_topk

    def merge_topk(ids, distances, k):
        merged_ids, merged_d = original(ids, distances, k)
        return swap_one(merged_ids, range(10**9)), merged_d

    monkeypatch.setattr(router, "merge_topk", merge_topk)


def plant_ingest_churn(monkeypatch):
    from repro.ingest import IngestPipeline
    from repro.ingest.pipeline import TranslatedResult

    original = IngestPipeline.knn

    def knn(self, query, k):
        # A live rid: still k distinct live rids in distance order, so
        # only the exact oracle can tell.
        res = original(self, query, k)
        live = sorted(self.live_vectors())
        return TranslatedResult(swap_one(res.ids, live), res.distances)

    monkeypatch.setattr(IngestPipeline, "knn", knn)


#: The failure each plant must trip: the exact oracle's, by its label.
EXACT_ORACLE = {
    "query_local": "FAILED: knn vs SequentialScan",
    "serve_sharded": "FAILED: router vs single node",
    "ingest_churn": "FAILED: knn between writes vs SequentialScan",
}

PLANTS = {
    "query_local": plant_query_local,
    "serve_sharded": plant_serve_sharded,
    "ingest_churn": plant_ingest_churn,
}


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_planted_wrong_answer_is_caught(workload, monkeypatch, capsys):
    PLANTS[workload](monkeypatch)
    code = run.main(["--workload", workload, "--seed", "4", "--seconds", "1",
                     "--trace", "0", "--scale", "tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert EXACT_ORACLE[workload] in out


def test_without_src_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = command("query_local", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
