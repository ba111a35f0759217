"""CLI output on a small corpus of theory files, compared byte for byte.

``tests/golden/`` holds the theory files, ``cases.json`` (each case's argv,
exit code and stderr) and one ``<case>.out`` file with each case's stdout.
``running.dl`` is the running example of ``conftest.py``; ``gadgets.dl`` and
``odd_loop.dl`` with ``odd_loop.pag`` were written by ``perfbench/gen.py``
(``preferred_theory(0, 0)`` and ``grounded_theory(0, 3)``).  The CLI runs
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


def record():
    os.chdir(GOLDEN)
    manifest = []
    for name, argv in cases():
        code, stdout, stderr = run_cli(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout.encode())
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr": stderr})
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"recorded {len(manifest)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
