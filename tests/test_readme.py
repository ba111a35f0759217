"""The README's Library example runs as written, on the running example."""

import re
import shutil
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_example():
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    shutil.copy(ROOT / "tests" / "golden" / "running.dl", tmp_path / "theory.dl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_library_example(), "README.md", "exec"), namespace)
    plf = namespace["plf"]
    # the documented types: read-only mappings to Fractions
    for probs in (plf.probs, *plf.marginals.values(), *plf.conclusion_label_sets.values()):
        assert isinstance(probs, Mapping) and not hasattr(probs, "__setitem__")
        assert probs and all(type(p) is Fraction for p in probs.values())
