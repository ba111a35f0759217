"""``tools/paired.py`` answers a query the way ``perfbench/run.py`` does:
exit code, stdout and stderr, with a crash recorded as exit -1; and it reads
the tail and the slowest items of its timings."""

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


def test_startup_alternates_the_first_side_and_counts_heads_wins(monkeypatch):
    paired = _paired()
    base, head = Path("base"), Path("head")
    timed = []
    monkeypatch.setattr(paired, "start_s", lambda c: timed.append(c.name) or {base: 2.0, head: 1.0}[c])
    result = paired.startup({"base": base, "head": head}, starts=3)
    # one untimed start per side writes the bytecode cache
    assert timed == ["base", "head", "base", "head", "head", "base", "base", "head"]
    assert result == {"starts": 3, "median_s": {"base": 2.0, "head": 1.0}, "head_wins": 3}


def test_start_s_times_a_fresh_interpreter_of_this_checkout():
    assert 0 < _paired().start_s(ROOT) < 60


def test_src_lines_counts_the_package_modules_alone(tmp_path):
    package = tmp_path / "src" / "arglab"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("one\ntwo\nthree\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "__pycache__" / "c.py").write_text("nested\n")
    assert _paired().src_lines(tmp_path) == 5


def test_slowest_lists_the_items_slowest_on_base_with_both_minima():
    paired = _paired()
    minima = {"base": [1.0, 4.0, 2.0, 4.0, 3.0], "head": [1.0, 2.0, 3.0, 1.0, 3.0]}
    assert paired.slowest(minima, count=3) == [
        {"item": 1, "base": 4.0, "head": 2.0, "ratio": 0.5},
        {"item": 3, "base": 4.0, "head": 1.0, "ratio": 0.25},
        {"item": 4, "base": 3.0, "head": 3.0, "ratio": 1.0},
    ]
    assert len(paired.slowest({"base": [1.0] * 12, "head": [1.0] * 12})) == paired.SLOWEST == 10


def test_tail_s_reads_every_wall_with_perfbench_tail():
    paired = _paired()
    # 3 items x 5 rounds: 15 walls, so the tail is the 5th smallest, the
    # highest value with ten beyond it, as perfbench/run.py reads it
    walls = {
        "base": [[0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 1.1, 1.2, 1.3, 1.4], [2.0, 2.1, 2.2, 2.3, 2.4]],
        "head": [[0.5], [0.7]],
    }
    assert paired.tail_s(walls) == {"base": 0.5, "head": 0.7}
