"""Paired timing of two checkouts of arglab on one perfbench workload.

    python3 tools/paired.py BASE HEAD --workload marginal-preferred --seed 0

BASE and HEAD are checkout roots, each holding ``src/arglab``.  Both
``arglab.cli`` modules are loaded into this one process, under the package
names ``arglab_base`` and ``arglab_head``, so they share the interpreter, the
heap and the machine's speed at each moment.  The query pool is built by
``perfbench``'s own generators (this checkout's ``perfbench/run.py``,
imported, not changed), with the hash seed pinned per workload seed as
``perfbench/run.py`` pins it.  Each query is sent to both checkouts back to
back, the order alternating by query and round, and the two exit codes,
stdouts and stderrs must be identical, or the run stops with exit 1 naming
the item.  A side that raises answers exit code -1 with the exception's
``repr`` on stderr, as ``perfbench/run.py`` records a crash, so a crash on
one side is reported as a difference.

Per query, each side's minimum wall time over the rounds is kept; the report
gives the quartiles of head/base over those minima and the throughput ratio
(base seconds over head seconds, so above 1 means head answers more queries
per second), over all rounds and per round.

Start-up is timed apart, in fresh interpreters: ``perfbench/run.py``'s own
``SETUP_CODE`` imports ``arglab.cli`` from each checkout's ``src`` and builds
the parser, the first side alternating from start to start.  The report
gives each side's median over those starts and the starts head won, and
each side's ``src/arglab/*.py`` line count as ``src_lines``.  Nothing is
gated: the numbers are for reading, next to ``perfbench/run.py``'s own runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402  (perfbench/run.py, read only)

QUERIES = 200  # pool items timed, from item 0
ROUNDS = 3
STARTS = 20  # fresh-interpreter starts timed per side


def load_cli(checkout: Path, name: str):
    """``arglab.cli`` of the checkout, imported as the package ``name``."""
    package_dir = checkout / "src" / "arglab"
    if not (package_dir / "cli.py").is_file():
        sys.exit(f"error: no engine sources at {package_dir}")
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def send(cli, argv: Tuple[str, ...]) -> Tuple[float, Tuple[int, str, str]]:
    """Wall seconds, and exit code, stdout and stderr, of one query, as perfbench sends it."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is an answer, compared like any other
            code = -1
            print(repr(exc), file=sys.stderr)
        wall = time.perf_counter() - start
    return wall, (code, out.getvalue(), err.getvalue())


def start_s(checkout: Path) -> float:
    """Wall seconds of one fresh interpreter importing the checkout's
    ``arglab.cli`` and building its parser, as ``perfbench/run.py`` times
    ``setup_s``."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", perfbench.SETUP_CODE, str(checkout / "src")],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def startup(checkouts: Dict[str, Path], starts: int = STARTS) -> Dict[str, object]:
    """Each side's median start-up seconds over ``starts`` fresh interpreters
    and the starts head won.  One untimed start per side first writes the
    bytecode cache; then the sides start in turn, the first alternating."""
    for checkout in checkouts.values():
        start_s(checkout)
    times: Dict[str, List[float]] = {side: [] for side in checkouts}
    for i in range(starts):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            times[side].append(start_s(checkouts[side]))
    return {
        "starts": starts,
        "median_s": {side: statistics.median(t) for side, t in times.items()},
        "head_wins": sum(h < b for h, b in zip(times["head"], times["base"])),
    }


def src_lines(checkout: Path) -> int:
    """Lines in the checkout's ``src/arglab/*.py``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "arglab").glob("*.py"))


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout root of the base")
    parser.add_argument("head", type=Path, help="checkout root of the head")
    parser.add_argument("--workload", default="marginal-preferred", choices=list(perfbench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=perfbench.DEFAULT_SEED)
    args = parser.parse_args()
    perfbench._pin_hash_seed(args.seed)
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    sides = {side: load_cli(checkout, f"arglab_{side}") for side, checkout in checkouts.items()}
    workload = perfbench.WORKLOADS[args.workload]
    count = min(QUERIES, workload.pool_size)
    walls: Dict[str, List[List[float]]] = {side: [[] for _ in range(count)] for side in sides}
    round_s = [{side: 0.0 for side in sides} for _ in range(ROUNDS)]
    with tempfile.TemporaryDirectory(prefix="paired-") as work:
        pool = [workload.make(args.seed, i, Path(work)) for i in range(count)]
        for cli in sides.values():
            send(cli, pool[0].argv)  # warm-up, not timed
        for r in range(ROUNDS):
            for i, query in enumerate(pool):
                order = ("base", "head") if (i + r) % 2 == 0 else ("head", "base")
                answers = {}
                for side in order:
                    wall, answers[side] = send(sides[side], query.argv)
                    walls[side][i].append(wall)
                    round_s[r][side] += wall
                if answers["base"] != answers["head"]:
                    sys.exit(f"error: item {i} {' '.join(query.argv)}: outputs differ")
    minima = {side: [min(w) for w in walls[side]] for side in sides}
    ratios = [h / b for h, b in zip(minima["head"], minima["base"])]
    total = {side: sum(sum(w) for w in walls[side]) for side in sides}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "queries": count,
        "rounds": ROUNDS,
        "python": sys.version.split()[0],
        "outputs_identical": True,
        "per_query_min_s": {side: quartiles(minima[side]) for side in sides},
        "per_query_min_ratio": quartiles(ratios),
        "throughput_ratio": total["base"] / total["head"],
        "throughput_ratio_per_round": [s["base"] / s["head"] for s in round_s],
        "queries_per_s": {side: count * ROUNDS / total[side] for side in sides},
        "setup_s": startup(checkouts),
        "src_lines": {side: src_lines(checkout) for side, checkout in checkouts.items()},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
