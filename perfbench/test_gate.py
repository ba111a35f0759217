"""The benchmark's own tests: corrupted answers count as failed.

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import pytest

import run
import tracing

CLI = run.load_cli()


class Corrupting:
    """Stands in for ``arglab.cli``: runs the real query, then edits the report."""

    def __init__(self, mutate, code=0):
        self.mutate = mutate
        self.code = code

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            CLI.main(argv)
        report = json.loads(out.getvalue())
        self.mutate(report)
        print(json.dumps(report, indent=2))
        return self.code


@pytest.fixture
def work(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def failures(cli, workload, index, work, seed=run.DEFAULT_SEED, repeats=1):
    query = run.WORKLOADS[workload].make(seed, index, work)
    golden = None
    if seed == run.DEFAULT_SEED:
        golden = [json.loads(run.GOLDEN.read_text())[workload][index]]
    client = run.Client(cli, [query], golden)
    for _ in range(repeats):
        client.run(0)
    return client.failures


CLEAN = [("graph-layered", 0), ("marginal-preferred", 0), ("check-grounded", 0), ("check-grounded", 1)]


@pytest.mark.parametrize("workload,index", CLEAN)
def test_clean_answers_pass(workload, index, work):
    assert failures(CLI, workload, index, work) == []


def _drop_parent_attack(report):
    attacks = {tuple(e) for e in report["attacks"]}
    for child, parent in report["sub_edges"]:
        for b, a in attacks:
            if a == child:
                report["attacks"].remove([b, parent])
                return
    raise AssertionError("no attack on a sub-argument to drop")


def _bump_first_label(report):
    report["arguments"][0]["labels"]["IN"]["num"] += 1


def _flip_justification(report):
    entry = report["arguments"][0]
    entry["justification"] = "NOJ" if entry["justification"] != "NOJ" else "SKJ"


def _approx_only(report):
    report["arguments"][0]["labels"]["IN"]["approx"] = "0.123456"


def _not_ok(report):
    report["ok"] = False


def _property_fails(report):
    report["properties"][0]["holds"] = False


def _drop_argument(report):
    report["arguments"].pop()


CORRUPTIONS = [
    ("graph-layered", 5, _drop_parent_attack, "does not reach parent"),
    ("graph-layered", 0, _drop_argument, "argument set differs"),
    ("marginal-preferred", 0, _bump_first_label, "do not sum to 1"),
    ("marginal-preferred", 0, _flip_justification, "disagrees with its marginals"),
    ("marginal-preferred", 0, _approx_only, "digest differs"),
    ("check-grounded", 0, _not_ok, "ok: false"),
    ("check-grounded", 1, _property_fails, "mandatory property"),
]


@pytest.mark.parametrize("workload,index,mutate,reason", CORRUPTIONS)
def test_corrupted_answer_fails(workload, index, mutate, reason, work):
    got = failures(Corrupting(mutate), workload, index, work)
    assert len(got) == 1 and reason in got[0]


def test_nonzero_exit_fails(work):
    got = failures(Corrupting(lambda r: None, code=3), "graph-layered", 0, work)
    assert len(got) == 1 and "exit code 3" in got[0]


class CrashingCli:
    def main(self, argv):
        raise RuntimeError("boom")


def test_crash_fails_the_query_not_the_run(work):
    got = failures(CrashingCli(), "graph-layered", 0, work, repeats=2)
    assert len(got) == 2 and all("exit code -1" in g and "boom" in g for g in got)


class FlakyCli:
    """Answers correctly once, then with an edit no structural check sees."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        if self.calls == 1:
            return CLI.main(argv)
        return Corrupting(_approx_only).main(argv)


def test_changed_repeat_fails_on_other_seeds(work):
    got = failures(FlakyCli(), "marginal-preferred", 0, work, seed=7, repeats=3)
    assert len(got) == 2 and all("digest differs" in g for g in got)


def test_tracer_restores_and_reports_missing(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("cli.gone", "arglab.cli", "gone"),))
    original = sys.modules["arglab.frames"].enumerate_labellings
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["arglab.frames"].enumerate_labellings is not original
        wrapped = sys.modules["arglab.frames"].enumerate_labellings
        assert sys.modules["arglab.semantics"].labellings is wrapped
    finally:
        tracer.uninstall()
    assert sys.modules["arglab.frames"].enumerate_labellings is original
    assert tracer.missing == ["cli.gone"]


def test_tail_keeps_ten_samples_beyond():
    walls = [float(i) for i in range(100)]
    value, pct = run.tail(walls)
    assert value == 89.0 and pct == 90.0
    assert sum(w > value for w in walls) == 10
