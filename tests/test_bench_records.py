"""Every ``BENCH_*.json`` at the repository root has the shape README
("Benchmark records") gives, against the end-to-end metrics that
``BENCHMARK.json`` declares.  Both files are only read."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _close(got, want):
    return all(math.isclose(got[k], want[k], rel_tol=1e-9) for k in want)


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_readme_shape(path):
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['head']}.json"
    assert {"base", "head", "python", "machine", "e2e", "paired"} <= record.keys()
    assert record["e2e"]
    for entry in record["e2e"]:
        assert entry["workload"] in WORKLOADS
        assert entry["run_seconds"] == BENCHMARK["run_seconds"]
        pairs = entry["pairs"]
        assert entry["attempted"].keys() == entry["failed"].keys() == {"base", "head"}
        # one metric per end-to-end metric, declared as BENCHMARK.json declares it
        assert entry["metrics"].keys() == END_TO_END.keys()
        for name, metric in entry["metrics"].items():
            declared = END_TO_END[name]
            for key in ("unit", "better", "bound"):
                assert metric[key] == declared[key], (entry["workload"], name, key)
            runs = metric["runs"]
            assert len(runs["base"]) == len(runs["head"]) == pairs
            for side in ("base", "head"):
                assert _close(metric[side], _summary(runs[side])), (entry["workload"], name, side)
            better = (lambda h, b: h > b) if declared["better"] == "higher" else (lambda h, b: h < b)
            assert metric["head_wins"] == sum(map(better, runs["head"], runs["base"]))
            base, head = metric["base"], metric["head"]
            assert math.isclose(metric["change"], head["median"] / base["median"] - 1, rel_tol=1e-9)
            spread = (base["q3"] - base["q1"]) / base["median"]
            assert math.isclose(metric["base_spread"], spread, rel_tol=1e-9)
