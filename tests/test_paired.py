"""``tools/paired.py`` answers a query the way ``perfbench/run.py`` does:
exit code, stdout and stderr, with a crash recorded as exit -1."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _paired():
    spec = importlib.util.spec_from_file_location("paired", ROOT / "tools" / "paired.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_send_answers_a_golden_query_from_this_checkout_on_both_sides(monkeypatch):
    paired = _paired()
    name = "running-check-plf-complete"
    case = next(c for c in json.loads((GOLDEN / "cases.json").read_text()) if c["name"] == name)
    monkeypatch.chdir(GOLDEN)
    for side in ("base", "head"):
        cli = paired.load_cli(ROOT, f"arglab_paired_{side}")
        _, (code, out, err) = paired.send(cli, tuple(case["argv"]))
        assert (code, err) == (case["exit"], case["stderr"])
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_send_records_a_crash_as_an_answer():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError(f"no answer to {argv}")

    _, answer = _paired().send(Crashing, ("marginal", "theory.dl"))
    assert answer == (-1, "", "RuntimeError(\"no answer to ['marginal', 'theory.dl']\")\n")
