"""Benchmark of the arglab command line, one workload per run.

    python3 perfbench/run.py --workload graph-layered --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; the engine is imported from the
checkout's ``src`` directory and nowhere else.  Each query is
``arglab.cli.main(argv)`` called in this process with stdout captured: one
client in a closed loop, the next query sent when the previous one returns,
no threads.  The inputs are generated from ``--seed`` and written as ``.dl``
and ``.pag`` files under ``.perfbench-work/`` in the checkout, which is
removed again at the end except for the result files.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` sends each
query untraced and then again traced, and reports per-layer self times,
counts and the tracing overhead.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 9

SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import arglab.cli
arglab.cli.build_parser()
print(time.perf_counter() - t)
"""


@dataclass(frozen=True)
class Query:
    argv: Tuple[str, ...]
    expected: checks.Expected


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    make: Callable[[int, int, Path], Query]


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _expected(command: str, digest: str, theory: gen.Theory) -> checks.Expected:
    args = gen.arguments(theory)
    return checks.Expected(
        command=command,
        input_digest=digest,
        arguments=tuple(sorted(args)),
        sub_edges=gen.sub_edges(args),
        statements=tuple(sorted({a.conclusion for a in args.values()})),
    )


def _layered(seed: int, index: int, work: Path) -> Query:
    theory = gen.layered_theory(seed, index)
    path = work / f"t{index:03d}.dl"
    digest = _write(path, theory.text())
    return Query(("graph", str(path)), _expected("graph", digest, theory))


def _preferred(seed: int, index: int, work: Path) -> Query:
    theory = gen.preferred_theory(seed, index)
    path = work / f"t{index:03d}.dl"
    digest = _write(path, theory.text())
    argv = ("marginal", str(path), "--semantics", "preferred", "--target", "all")
    return Query(argv, _expected("marginal", digest, theory))


def _grounded(seed: int, index: int, work: Path) -> Query:
    # Even items query the independent frame, odd items the PAG frame, each
    # pair over the same theory.
    theory, pag = gen.grounded_theory(seed, index // 2)
    path = work / f"t{index // 2:03d}.dl"
    digest = _write(path, theory.text())
    argv: Tuple[str, ...] = ("check", str(path))
    if index % 2:
        pag_path = work / f"t{index // 2:03d}.pag"
        _write(pag_path, pag)
        argv += ("--frame", f"pag:{pag_path}")
    return Query(argv, _expected("check", digest, theory))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("graph-layered", 200, _layered),
        Workload("marginal-preferred", 200, _preferred),
        Workload("check-grounded", 200, _grounded),
    )
}


# --- measuring ---------------------------------------------------------------


def load_cli():
    """Import ``arglab.cli`` from the checkout's ``src``, or exit with an error."""
    if not (SRC / "arglab" / "cli.py").is_file():
        sys.exit(f"error: no engine sources at {SRC / 'arglab'}")
    sys.path.insert(0, str(SRC))
    import arglab.cli

    if Path(arglab.cli.__file__).resolve().parent != (SRC / "arglab").resolve():
        sys.exit(f"error: arglab imported from {arglab.cli.__file__}, not {SRC}")
    return arglab.cli


def measure_setup() -> float:
    """Median wall seconds, in fresh interpreters, to import arglab and build
    the CLI parser.  One unmeasured start first writes the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


class Client:
    """Runs queries one at a time and judges every answer."""

    def __init__(self, cli, pool: List[Query], golden: Optional[List[str]]):
        self.cli = cli
        self.pool = pool
        self.reference: Dict[int, str] = dict(enumerate(golden)) if golden else {}
        self.attempted = 0
        self.failures: List[str] = []
        self.output_bytes = 0

    def run(self, index: int) -> float:
        """Send one query; returns its wall seconds."""
        item = index % len(self.pool)
        query = self.pool[item]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(query.argv))
            except SystemExit as exc:  # argparse rejected the query
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash fails this query, not the run
                code = -1
                print(repr(exc), file=sys.stderr)
            wall = time.perf_counter() - start
        text = out.getvalue()
        self.attempted += 1
        self.output_bytes += len(text.encode())
        reason, digest = checks.judge(query.expected, code, text, self.reference.get(item))
        if reason:
            detail = err.getvalue().strip()
            self.failures.append(f"item {item} ({query.argv[0]}): {reason} {detail}")
        elif item not in self.reference:
            self.reference[item] = digest
        return wall

    def loop(self, seconds: float) -> List[float]:
        """Wall seconds of queries from pool item 1 on, sent until ``seconds``
        pass; at least one."""
        walls: List[float] = []
        deadline = time.perf_counter() + seconds
        index = 1
        while not walls or time.perf_counter() < deadline:
            walls.append(self.run(index))
            index += 1
        return walls


def tail(walls: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(cli, workload: Workload, seed: int, seconds: float, trace: bool) -> Dict:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        gen_start = time.perf_counter()
        pool = [workload.make(seed, i, work) for i in range(workload.pool_size)]
        gen_s = time.perf_counter() - gen_start
        golden = None
        if seed == DEFAULT_SEED and GOLDEN.is_file():
            golden = json.loads(GOLDEN.read_text()).get(workload.name)
        client = Client(cli, pool, golden)
        client.run(0)  # warm-up, not timed
        if trace:
            result = _traced(client, workload, seconds)
        else:
            result = _untraced(client, seconds)
        result.update(
            workload=workload.name,
            seed=seed,
            hash_seed=os.environ.get("PYTHONHASHSEED"),
            python=sys.version.split()[0],
            pool=len(pool),
            generate_s=gen_s,
            golden=golden is not None,
            attempted=client.attempted,
            failed=len(client.failures),
            failures=client.failures[:20],
        )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(client: Client, seconds: float) -> Dict:
    setup_s = measure_setup()
    walls = client.loop(seconds)
    value, pct = tail(walls)
    return {
        "samples": len(walls),
        "tail_percentile": pct,
        "metrics": {
            "queries_per_s": (len(walls) / sum(walls), "1/s"),
            "query_s.p50": (statistics.median(walls), "s"),
            "query_s.tail": (value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        },
    }


def _traced(client: Client, workload: Workload, seconds: float) -> Dict:
    """Each query twice, untraced then traced, so that drifts in machine
    speed fall on both sides of the overhead alike."""
    import tracing

    tracer = tracing.Tracer()
    plain: List[float] = []
    traced: List[float] = []
    output_bytes = 0
    deadline = time.perf_counter() + seconds
    index = 1
    while not plain or time.perf_counter() < deadline:
        plain.append(client.run(index))
        tracer.start_query(index)
        bytes_before = client.output_bytes
        tracer.install()
        try:
            traced.append(client.run(index))
        finally:
            tracer.uninstall()
        output_bytes += client.output_bytes - bytes_before
        index += 1
    overhead = sum(traced) / sum(plain) - 1
    numbers = tracer.metrics(len(traced), output_bytes, overhead)
    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"{workload.name}.spans.tsv.gz")
    return {
        "samples": len(traced),
        "missing": tracer.missing,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "metrics": {k: (v, _unit(k)) for k, v in numbers.items()},
    }


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/query"
    if name.endswith(".calls"):
        return "calls/query"
    ratios = (".share", ".yield", ".repeat_share", ".pgf_per_ptf", ".pag_yield", ".overhead_frac")
    if name.endswith(ratios):
        return "ratio"
    if name == "cli.output_bytes":
        return "bytes/query"
    if name in ("semantics.max_args", "trace.missing", "trace.observe_errors"):
        return "count"
    return "count/query"


# --- command line ------------------------------------------------------------


def write_golden(cli) -> None:
    """Record output digests for every pool item of the default seed."""
    golden = {}
    for workload in WORKLOADS.values():
        work = WORK / f"golden-{workload.name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            pool = [workload.make(DEFAULT_SEED, i, work) for i in range(workload.pool_size)]
            client = Client(cli, pool, None)
            for i in range(len(pool)):
                client.run(i)
            if client.failures:
                sys.exit("error: " + "; ".join(client.failures))
            golden[workload.name] = [client.reference[i] for i in range(len(pool))]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def _pin_hash_seed(seed: int) -> None:
    """Re-run this script with PYTHONHASHSEED derived from the workload seed.

    Set iteration order inside the engine follows the hash seed and changes
    its cost, so it is part of the run's inputs: reproducible per seed and
    varied across seeds."""
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", action="store_true", help="record digests for the default seed"
    )
    args = parser.parse_args()
    _pin_hash_seed(args.seed)
    cli = load_cli()
    if args.write_golden:
        write_golden(cli)
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(cli, WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names
    ]
    WORK.mkdir(exist_ok=True)
    metrics: Dict[str, Dict] = {}
    for r in results:
        suffix = "trace" if args.trace else "e2e"
        record = {k: v for k, v in r.items() if k != "metrics"}
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()}
        (WORK / f"{r['workload']}.{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(
            f"# {r['workload']} seed={r['seed']} hash_seed={r['hash_seed']} python={r['python']} "
            f"pool={r['pool']} samples={r['samples']}"
            + (f" tail=p{r['tail_percentile']:.1f}" if "tail_percentile" in r else "")
            + (f" missing={','.join(r['missing'])}" if r.get("missing") else "")
        )
        for reason in r["failures"]:
            print(f"#   FAILED {reason}")
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        print(f"{prefix}failed_frac {r['failed'] / max(r['attempted'], 1)!r} ratio")
        for name, (value, unit) in r["metrics"].items():
            print(f"{prefix}{name} {value!r} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
