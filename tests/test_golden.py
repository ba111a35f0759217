"""CLI output on a small corpus of theory files, compared byte for byte.

``tests/golden/`` holds the theory files, ``cases.json`` (each case's argv,
exit code and stderr) and one ``<case>.out`` file with each case's stdout.
``running.dl`` is the running example of ``conftest.py``, with one small
file per distribution format (``running.ptf``, ``.pgf``, ``.plf``, ``.pef``
and ``running.weights``); ``superior.dl`` extends it with superiority pairs,
so that ``--policy`` changes its attacks; ``gadgets.dl`` and ``odd_loop.dl``
with ``odd_loop.pag`` were written by ``perfbench/gen.py``
(``preferred_theory(0, 0)`` and ``grounded_theory(0, 3)``).  ``legal.dl``
derives ``b`` from either of two rules for ``a``, so a subgraph holding both
of them but only one argument for ``b`` is subargument-complete and not
legal; ``legal.pgf`` puts mass on such a subgraph.  ``wide.dl`` has 21
uncertain rules, one more than the ``independent`` frame takes.  ``twin.dl``
has two graph components, a mutual attack and the shape of ``legal.dl``, on
disjoint uncertain rules, with a statement ``c`` concluded in both;
``twin.pag`` is a frame over its arguments, and ``twin.weights`` splits the
mutual attack's labellings unevenly and gives the others weight 0;
``twin.pgf`` is a correlated subgraph distribution over its arguments, not
the product of its parts in the two components.  ``shared.dl`` uses one
uncertain rule, ``r``, in two components, beside a mutual attack whose
argument ``np()`` is uncertain: ``a`` is IN with probability 1/2, where the
product of its two components' margins would give 7/12.
``layered.dl`` is ``tests/generators.layered_theory(2, 5)``: 67 arguments
with long shared-prefix ids, rebuttals and undercuts reaching every argument
built on top (171 attacks under last-link, 246 without preferences), and 60
sub-edges.  ``zero.dl``
and ``zero.ptf`` each hold a probability with a zero denominator, and
``duplicate.weights`` an assignment naming one argument twice.  The CLI runs
inside that directory with relative paths, so the ``input`` and ``frame``
fields carry no machine-specific path.

To re-record after an intended change of output, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from arglab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "cases.json"


def cases():
    """(name, argv) for every recorded query."""
    out = []
    for theory in ("running", "gadgets", "odd_loop"):
        for semantics in ("grounded", "preferred", "stable"):
            common = [f"{theory}.dl", "--semantics", semantics]
            for scheme in ("worstcase", "bivalent"):
                out.append((f"{theory}-marginal-{semantics}-{scheme}",
                            ["marginal", *common, "--scheme", scheme]))
            out.append((f"{theory}-check-{semantics}", ["check", *common]))
    for semantics in ("grounded", "preferred"):
        common = ["odd_loop.dl", "--frame", "pag:odd_loop.pag", "--semantics", semantics]
        out.append((f"odd_loop-pag-marginal-{semantics}", ["marginal", *common, "--scheme", "bivalent"]))
        out.append((f"odd_loop-pag-check-{semantics}", ["check", *common]))
    # the cf and complete paths of marginal and check
    for semantics in ("cf", "complete"):
        for name, frame in (("running", []), ("gadgets", []),
                            ("odd_loop-pag", ["--frame", "pag:odd_loop.pag"])):
            common = [f"{name.split('-')[0]}.dl", *frame, "--semantics", semantics]
            out.append((f"{name}-marginal-{semantics}", ["marginal", *common]))
            out.append((f"{name}-check-{semantics}", ["check", *common]))
    for labels in ("inoutun", "inoutunoff"):
        for semantics in ("cf", "complete", "grounded", "preferred", "stable"):
            out.append((f"running-label-{semantics}-{labels}",
                        ["label", "running.dl", "--semantics", semantics, "--labels", labels]))
    out.append(("running-label-complete-inoutunoff-legal",
                ["label", "running.dl", "--semantics", "complete", "--labels", "inoutunoff",
                 "--legal-only"]))
    # cf and {IN,OUT,UN,OFF} labellings of these run to 30k-340k outcomes
    for theory in ("gadgets", "odd_loop"):
        for semantics in ("complete", "preferred", "stable"):
            out.append((f"{theory}-label-{semantics}-inoutun",
                        ["label", f"{theory}.dl", "--semantics", semantics]))
    for theory in ("running", "superior", "gadgets", "odd_loop", "layered"):
        for policy in ("last_link", "none"):
            common = [f"{theory}.dl", "--policy", policy]
            out.append((f"{theory}-args-{policy}", ["args", *common]))
            out.append((f"{theory}-graph-{policy}", ["graph", *common]))
            out.append((f"{theory}-graph-dot-{policy}", ["graph", *common, "--format", "dot"]))
    for kind in ("ptf", "pgf", "plf", "pef"):
        out.append((f"running-marginal-{kind}",
                    ["marginal", "running.dl", "--frame", f"{kind}:running.{kind}"]))
    out.append(("running-marginal-preferred-weights",
                ["marginal", "running.dl", "--semantics", "preferred",
                 "--weights", "running.weights"]))
    # exit 2: over one subgraph's five cf labellings the weights sum to 2
    out.append(("running-marginal-cf-weights",
                ["marginal", "running.dl", "--semantics", "cf", "--weights", "running.weights"]))
    for kind in ("ptf", "pgf", "plf", "pef"):
        out.append((f"running-check-{kind}",
                    ["check", "running.dl", "--frame", f"{kind}:running.{kind}"]))
    # a plf: frame checked under --semantics: exit 2 under grounded, which
    # labels rc() and rd() UN when rb2() is OFF; every labelling is complete
    for semantics in ("grounded", "complete"):
        out.append((f"running-check-plf-{semantics}",
                    ["check", "running.dl", "--frame", "plf:running.plf", "--semantics", semantics]))
    for legal in ([], ["--legal-only"]):
        suffix = "-legal" if legal else ""
        out.append((f"legal-label-complete-inoutunoff{suffix}",
                    ["label", "legal.dl", "--semantics", "complete", "--labels", "inoutunoff",
                     *legal]))
        out.append((f"legal-marginal-pgf{suffix}",
                    ["marginal", "legal.dl", "--frame", "pgf:legal.pgf", *legal]))
    out.append(("legal-marginal-legal", ["marginal", "legal.dl", "--legal-only"]))
    out.append(("legal-check-legal", ["check", "legal.dl", "--legal-only"]))
    out.append(("legal-check-pgf-legal",
                ["check", "legal.dl", "--frame", "pgf:legal.pgf", "--legal-only"]))
    # one exit-3 case per cap
    out.append(("running-args-cap", ["args", "running.dl", "--max-args", "2"]))
    out.append(("running-label-cap", ["label", "running.dl", "--max-args-enum", "2"]))
    out.append(("running-marginal-cap", ["marginal", "running.dl", "--max-args-enum", "2"]))
    out.append(("odd_loop-pag-check-cap",
                ["check", "odd_loop.dl", "--frame", "pag:odd_loop.pag", "--max-args-enum", "2"]))
    out.append(("wide-marginal-cap", ["marginal", "wide.dl"]))
    # exit 2: unreadable probabilities and assignments
    out.append(("zero-args", ["args", "zero.dl"]))
    out.append(("running-marginal-ptf-zero", ["marginal", "running.dl", "--frame", "ptf:zero.ptf"]))
    out.append(("running-marginal-duplicate-weights",
                ["marginal", "running.dl", "--semantics", "preferred",
                 "--weights", "duplicate.weights"]))
    # twin.dl: two graph components, each on its own uncertain rules
    for semantics in ("cf", "complete", "grounded", "preferred", "stable"):
        common = ["twin.dl", "--semantics", semantics]
        out.append((f"twin-marginal-{semantics}", ["marginal", *common]))
        out.append((f"twin-check-{semantics}", ["check", *common]))
    out.append(("twin-marginal-preferred-weights",
                ["marginal", "twin.dl", "--semantics", "preferred", "--weights", "twin.weights"]))
    out.append(("twin-marginal-complete-legal",
                ["marginal", "twin.dl", "--semantics", "complete", "--legal-only"]))
    for semantics in ("grounded", "preferred"):
        common = ["twin.dl", "--frame", "pag:twin.pag", "--semantics", semantics]
        out.append((f"twin-pag-marginal-{semantics}", ["marginal", *common]))
        out.append((f"twin-pag-check-{semantics}", ["check", *common]))
    # exit 3: each component has at most 7 arguments, some subgraphs 8 or more
    out.append(("twin-marginal-cap", ["marginal", "twin.dl", "--max-args-enum", "7"]))
    # subgraph distributions that are not the product of their components' parts
    for semantics in ("grounded", "preferred"):
        out.append((f"twin-marginal-pgf-{semantics}",
                    ["marginal", "twin.dl", "--frame", "pgf:twin.pgf", "--semantics", semantics]))
        out.append((f"shared-marginal-{semantics}",
                    ["marginal", "shared.dl", "--semantics", semantics]))
    out.append(("twin-check-pgf", ["check", "twin.dl", "--frame", "pgf:twin.pgf"]))
    out.append(("shared-check", ["check", "shared.dl"]))
    # one target of each form: an argument, a concluded statement under both
    # schemes, an unproposed statement, and an unknown argument id (exit 2)
    out.append(("running-marginal-target-arg",
                ["marginal", "running.dl", "--semantics", "preferred", "--target", "arg:rb1()"]))
    for scheme in ("worstcase", "bivalent"):
        out.append((f"running-marginal-target-stmt-{scheme}",
                    ["marginal", "running.dl", "--target", "stmt:-b", "--scheme", scheme]))
    out.append(("running-marginal-target-unproposed",
                ["marginal", "running.dl", "--target", "stmt:zz"]))
    out.append(("running-marginal-target-unknown",
                ["marginal", "running.dl", "--target", "arg:nope()"]))
    return out


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _recorded():
    return {case["name"]: case for case in json.loads(MANIFEST.read_text())}


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_cli_output_matches_golden(name, argv, monkeypatch):
    case = _recorded()[name]
    assert case["argv"] == argv
    monkeypatch.chdir(GOLDEN)
    code, stdout, stderr = run_cli(argv)
    assert (code, stderr) == (case["exit"], case["stderr"])
    assert stdout.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_case_is_recorded_and_every_recording_is_a_case():
    names = sorted(name for name, _ in cases())
    assert sorted(_recorded()) == names
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == names


def record():
    os.chdir(GOLDEN)
    for path in GOLDEN.glob("*.out"):
        path.unlink()
    manifest = []
    for name, argv in cases():
        code, stdout, stderr = run_cli(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout.encode())
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": stderr})
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"recorded {len(manifest)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
