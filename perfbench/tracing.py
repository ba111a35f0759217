"""Per-layer tracing that wraps the engine's public functions from outside.

Each traced function is replaced, by identity, in every ``arglab.*`` module
namespace that holds it, so calls between modules (``frames`` calling
``labellings`` under an alias, ``marginals`` calling itself) are caught.  A
span records its name, start, end, parent span and query; a span's self time
is its duration minus the time its child spans cover.  Counters are taken in
``observe`` hooks after the wrapped call returns, and the time they take is
hidden from every span's self time.

Names that no longer exist are reported as missing; nothing here is imported
by the untraced run.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute).  A span's layer is the first part of its
# name: the engine's modules, with ``core`` the validating
# ArgumentationGraph constructor.
TARGETS = (
    ("construct.build_graph", "arglab.construct", "build_graph"),
    ("construct.build_arguments", "arglab.construct", "build_arguments"),
    ("construct.derive_attacks", "arglab.construct", "derive_attacks"),
    ("construct.induced_subgraph", "arglab.construct", "induced_subgraph"),
    ("core.graph_validate", "arglab.core", "ArgumentationGraph.__post_init__"),
    ("semantics.labellings", "arglab.semantics", "labellings"),
    ("semantics.grounded_labelling", "arglab.semantics", "grounded_labelling"),
    ("frames.ptf_independent", "arglab.frames", "ptf_independent"),
    ("frames.pgf_from_ptf", "arglab.frames", "pgf_from_ptf"),
    ("frames.pag_to_pgf", "arglab.frames", "pag_to_pgf"),
    ("frames.plf_with_semantics", "arglab.frames", "plf_with_semantics"),
    ("marginals.argument_label_probability", "arglab.marginals", "argument_label_probability"),
    ("marginals.statement_label_probability", "arglab.marginals", "statement_label_probability"),
    ("marginals.justification_from_plf", "arglab.marginals", "justification_from_plf"),
    ("marginals.check_properties", "arglab.marginals", "check_properties"),
    ("dsl.parse_theory", "arglab.dsl", "parse_theory"),
    ("dsl.parse_argument_probabilities", "arglab.dsl", "parse_argument_probabilities"),
    ("cli.main", "arglab.cli", "main"),
)

LAYERS = ("construct", "core", "semantics", "frames", "marginals", "dsl", "cli")

# Spans kept in memory and written out at the end; counts and self times are
# aggregated over every span regardless.
MAX_SPANS = 200_000

ENUMERATING = {"complete", "preferred", "stable"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.query = 0
        self._stack: List[List] = []  # [span id, child seconds]
        self._next_id = 0
        self._keys: set = set()
        self._patches: Optional[List[Tuple[object, str, Callable, object]]] = None

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch every target; the wrappers are built on the first call."""
        if self._patches is None:
            self._patches = list(self._find())
        for owner, key, wrapper, _ in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, _, original in reversed(self._patches or ()):
            setattr(owner, key, original)

    def _find(self):
        modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "arglab"}
        for name, module_name, attr in TARGETS:
            owner = modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, getattr(self, "_observe_" + path[-1], None))
            if len(path) > 1:  # a method: patch the class that owns it
                yield owner, path[-1], wrapper, original
                continue
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        yield module, key, wrapper, original

    def start_query(self, index: int) -> None:
        self.query = index
        self._keys = set()

    # --- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.query, span, parent, name, start, end))
                else:
                    self.dropped += 1
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.counts["trace.observe_errors"] += 1
            if stack:
                # The parent's children cover this span and the time the
                # observer took, so neither counts as the parent's self time.
                stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    # --- counters ----------------------------------------------------------

    def _observe_derive_attacks(self, args, kwargs, result) -> None:
        arguments = args[1] if len(args) > 1 else kwargs["arguments"]
        self.counts["construct.arguments"] += len(arguments)
        self.counts["construct.attacks"] += len(result)
        self.counts["construct.subarg_pairs"] += sum(
            sum(1 for _ in a.subarguments()) for a in arguments.values()
        )

    def _observe_build_graph(self, args, kwargs, result) -> None:
        self.counts["construct.sub_edges"] += len(result.sub_edges)

    def _observe_labellings(self, args, kwargs, result) -> None:
        graph = args[0]
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        n = len(graph.arguments)
        semantics = spec.semantics.value if spec.semantics is not None else None
        self.counts["semantics.labellings_out"] += len(result)
        if semantics in ENUMERATING:
            self.counts["semantics.subset_space"] += 2**n
            self.counts["semantics.enumerated_out"] += len(result)
        self.counts["semantics.max_args"] = max(self.counts["semantics.max_args"], n)
        key = (frozenset(graph.arguments), graph.attacks, spec)
        if key not in self._keys:
            self._keys.add(key)
            self.counts["semantics.distinct_keys"] += 1

    def _observe_ptf_independent(self, args, kwargs, result) -> None:
        self.counts["frames.ptf_support"] += len(result.probs)

    def _observe_pgf_from_ptf(self, args, kwargs, result) -> None:
        self.counts["frames.pgf_in"] += len(args[0].probs)
        self.counts["frames.pgf_support"] += len(result.probs)

    def _observe_pag_to_pgf(self, args, kwargs, result) -> None:
        self.counts["frames.pag_space"] += 2 ** len(args[0].graph.arguments)
        self.counts["frames.pag_support"] += len(result.probs)

    def _observe_plf_with_semantics(self, args, kwargs, result) -> None:
        self.counts["frames.plf_support"] += len(result.probs)

    def _observe_argument_label_probability(self, args, kwargs, result) -> None:
        self.counts["marginals.support_scanned"] += len(args[0].probs)

    _observe_statement_label_probability = _observe_argument_label_probability

    # --- results -----------------------------------------------------------

    def metrics(self, queries: int, output_bytes: int, overhead_frac: float) -> Dict[str, float]:
        """Per-layer numbers, each per query unless it is a ratio or a maximum."""
        q = max(queries, 1)
        c = self.counts
        out: Dict[str, float] = {}
        total_self = sum(self.self_s.values()) or 1.0
        for layer in LAYERS:
            layer_self = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = layer_self / q
            out[f"{layer}.share"] = layer_self / total_self
        for name, _, _ in TARGETS:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / q
            out[f"{name}.calls"] = self.calls.get(name, 0) / q
        for key in (
            "construct.arguments",
            "construct.attacks",
            "construct.sub_edges",
            "construct.subarg_pairs",
            "semantics.subset_space",
            "semantics.labellings_out",
            "frames.ptf_support",
            "frames.pgf_support",
            "frames.pag_space",
            "frames.pag_support",
            "frames.plf_support",
            "marginals.support_scanned",
        ):
            out[key] = c[key] / q
        calls = self.calls.get("semantics.labellings", 0)
        out["semantics.yield"] = _ratio(c["semantics.enumerated_out"], c["semantics.subset_space"])
        repeats = 1 - _ratio(c["semantics.distinct_keys"], calls) if calls else 0.0
        out["semantics.repeat_share"] = repeats
        out["semantics.max_args"] = c["semantics.max_args"]
        out["frames.pgf_per_ptf"] = _ratio(c["frames.pgf_support"], c["frames.pgf_in"])
        out["frames.pag_yield"] = _ratio(c["frames.pag_support"], c["frames.pag_space"])
        out["cli.output_bytes"] = output_bytes / q
        out["trace.overhead_frac"] = overhead_frac
        out["trace.missing"] = len(self.missing)
        out["trace.observe_errors"] = c["trace.observe_errors"]
        return out

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt") as f:
            f.write("query\tspan\tparent\tname\tstart_s\tend_s\n")
            for query, span, parent, name, start, end in self.spans:
                f.write(f"{query}\t{span}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
