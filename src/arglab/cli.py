"""Command line interface.

Exit codes: 0 success, 2 parse or validation error, 3 resource cap exceeded,
4 property violation.  All reports are JSON with a ``schema`` version and a
sha256 digest of the input theory file; rationals are emitted exactly as
numerator/denominator plus a rounded decimal for readability.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from .core import ArgLabel, ArgumentationGraph, Labelling, LabelSet, Literal
from .construct import (
    MAX_ARGUMENTS,
    PreferencePolicy,
    build_graph,
    to_dot,
)
from .dsl import (
    parse_argument_probabilities,
    parse_assignment_distribution,
    parse_subset_distribution,
    parse_theory,
)
from .errors import CapExceededError, DistributionError, TheoryParseError
from .frames import (
    PAG,
    PEF,
    PGF,
    PLF,
    PTF,
    SublabellingWeights,
    pag_to_pgf,
    pgf_from_ptf,
    plf_from_pef,
    plf_with_semantics,
    ptf_independent,
)
from .marginals import (
    StatementLabel,
    StatementScheme,
    argument_label_probability,
    check_properties,
    justification_from_plf,
    statement_label_probability,
)
from .semantics import MAX_ENUM_ARGUMENTS, LabellingSpec, Semantics, labellings

SCHEMA = 1

_LABEL_SETS = {"inoutun": LabelSet.IN_OUT_UN, "inoutunoff": LabelSet.IN_OUT_UN_OFF}
_STMT_LABELS = {
    StatementScheme.BIVALENT: [StatementLabel.IN, StatementLabel.NO],
    StatementScheme.WORSTCASE: [
        StatementLabel.IN,
        StatementLabel.OUT,
        StatementLabel.UN,
        StatementLabel.OFF,
        StatementLabel.UNP,
    ],
}


def _rational(q: Fraction) -> Dict[str, object]:
    approx = (Decimal(q.numerator) / Decimal(q.denominator)).quantize(
        Decimal("0.000001"), rounding=ROUND_HALF_EVEN
    )
    return {"num": q.numerator, "den": q.denominator, "approx": str(approx)}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(command: str, path: Path, body: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {
        "schema": SCHEMA,
        "command": command,
        "input": str(path),
        "input_digest": _digest(path),
    }
    out.update(body)
    return out


def _emit(report: Dict[str, object]) -> None:
    print(json.dumps(report, indent=2))


def _labelling_json(labelling: Labelling) -> Dict[str, str]:
    return {a: l.value for a, l in labelling.entries}


def _load_theory(path: Path):
    return parse_theory(path.read_text())


def _load_weights(path: Optional[str]) -> Optional[SublabellingWeights]:
    if path is None:
        return None
    entries = parse_assignment_distribution(Path(path).read_text())
    return SublabellingWeights.from_entries(entries)


def _build_plf(args, theory, graph: ArgumentationGraph) -> PLF:
    """Resolve the --frame option into a labelling frame."""
    semantics = Semantics(args.semantics)
    weights = _load_weights(args.weights)
    policy = PreferencePolicy(args.policy)
    spec = args.frame
    max_args = args.max_args

    def pipeline(pgf: PGF) -> PLF:
        return plf_with_semantics(
            pgf,
            semantics,
            weights=weights,
            legal_only=args.legal_only,
            max_args=max_args,
        )

    if spec == "independent":
        ptf = ptf_independent(theory)
        return pipeline(pgf_from_ptf(ptf, policy=policy, max_args=MAX_ARGUMENTS))
    if ":" not in spec:
        raise DistributionError(f"bad frame spec {spec!r}")
    kind, _, file_part = spec.partition(":")
    text = Path(file_part).read_text()
    if kind == "ptf":
        ptf = PTF(theory, parse_subset_distribution(text))
        return pipeline(pgf_from_ptf(ptf, policy=policy, max_args=MAX_ARGUMENTS))
    if kind == "pgf":
        return pipeline(PGF(graph, parse_subset_distribution(text)))
    if kind == "plf":
        entries = parse_assignment_distribution(text)
        used = {l for assignment, _ in entries for l in assignment.values()}
        if used <= {ArgLabel.ON, ArgLabel.OFF}:
            label_set = LabelSet.ON_OFF
        elif ArgLabel.OFF in used:
            label_set = LabelSet.IN_OUT_UN_OFF
        else:
            label_set = LabelSet.IN_OUT_UN
        sem = semantics if label_set is not LabelSet.ON_OFF else None
        plf_spec = LabellingSpec(label_set, semantics=sem, legal_only=args.legal_only)
        return PLF(
            graph, plf_spec, [(Labelling.from_mapping(label_set, a), p) for a, p in entries]
        )
    if kind == "pef":
        return plf_from_pef(PEF(graph, parse_subset_distribution(text)))
    if kind == "pag":
        arg_probs = parse_argument_probabilities(text)
        pag = PAG(graph.without_sub_edges(), arg_probs)
        return pipeline(pag_to_pgf(pag, max_args=max_args))
    raise DistributionError(f"unknown frame kind {kind!r}")


def cmd_args(args) -> int:
    path = Path(args.file)
    graph = build_graph(
        _load_theory(path), policy=PreferencePolicy(args.policy), max_args=args.max_args
    )
    body = {
        "arguments": [
            {
                "id": a,
                "top_rule": graph.arguments[a].top_rule,
                "conclusion": str(graph.arguments[a].conclusion),
                "direct_subs": [s.canonical_id for s in graph.arguments[a].direct_subs],
            }
            for a in graph.ids()
        ]
    }
    _emit(_report("args", path, body))
    return 0


def cmd_graph(args) -> int:
    path = Path(args.file)
    graph = build_graph(
        _load_theory(path), policy=PreferencePolicy(args.policy), max_args=args.max_args
    )
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
        return 0
    body = {
        "arguments": graph.ids(),
        "attacks": [list(e) for e in sorted(graph.attacks)],
        "sub_edges": [list(e) for e in sorted(graph.sub_edges)],
    }
    _emit(_report("graph", path, body))
    return 0


def cmd_label(args) -> int:
    path = Path(args.file)
    graph = build_graph(
        _load_theory(path), policy=PreferencePolicy(args.policy), max_args=args.max_args
    )
    spec = LabellingSpec(
        _LABEL_SETS[args.labels],
        semantics=Semantics(args.semantics),
        legal_only=args.legal_only,
    )
    result = labellings(graph, spec, max_args=args.max_args_enum)
    body = {
        "semantics": args.semantics,
        "labels": args.labels,
        "labellings": [_labelling_json(l) for l in result],
    }
    _emit(_report("label", path, body))
    return 0


def _marginal_body(args, plf: PLF) -> Dict[str, object]:
    scheme = StatementScheme(args.scheme)
    target = args.target
    graph = plf.graph

    def arg_entry(arg_id: str) -> Dict[str, object]:
        labels = sorted(plf.spec.label_set.labels, key=lambda l: l.rank)
        return {
            "id": arg_id,
            "labels": {l.value: _rational(argument_label_probability(plf, arg_id, l)) for l in labels},
            "justification": justification_from_plf(plf, arg_id).value,
        }

    def stmt_entry(statement: Literal) -> Dict[str, object]:
        return {
            "statement": str(statement),
            "labels": {
                l.value: _rational(statement_label_probability(plf, statement, l, scheme))
                for l in _STMT_LABELS[scheme]
            },
        }

    if target.startswith("arg:"):
        arg_id = target[4:]
        if arg_id not in graph.arguments:
            raise DistributionError(f"unknown argument id {arg_id!r}")
        return {"scheme": args.scheme, "arguments": [arg_entry(arg_id)]}
    if target.startswith("stmt:"):
        return {"scheme": args.scheme, "statements": [stmt_entry(Literal.parse(target[5:]))]}
    if target == "all":
        statements = sorted({a.conclusion for a in graph.arguments.values()}, key=str)
        return {
            "scheme": args.scheme,
            "arguments": [arg_entry(a) for a in graph.ids()],
            "statements": [stmt_entry(s) for s in statements],
        }
    raise DistributionError(f"bad target {target!r}; use arg:ID, stmt:LIT or all")


def cmd_marginal(args) -> int:
    path = Path(args.file)
    theory = _load_theory(path)
    graph = build_graph(theory, policy=PreferencePolicy(args.policy), max_args=MAX_ARGUMENTS)
    plf = _build_plf(args, theory, graph)
    body = {"frame": args.frame, "semantics": args.semantics}
    body.update(_marginal_body(args, plf))
    _emit(_report("marginal", path, body))
    return 0


def cmd_check(args) -> int:
    path = Path(args.file)
    theory = _load_theory(path)
    graph = build_graph(theory, policy=PreferencePolicy(args.policy), max_args=MAX_ARGUMENTS)
    plf = _build_plf(args, theory, graph)
    report = check_properties(plf, theory)
    body = {
        "frame": args.frame,
        "semantics": args.semantics,
        "ok": report.ok,
        "properties": [
            {
                "name": r.name,
                "applicable": r.applicable,
                "holds": r.holds,
                "mandatory": r.mandatory,
                "violations": r.violations,
            }
            for r in report.results
        ],
        "justification": {
            a: justification_from_plf(plf, a).value for a in graph.ids()
        },
    }
    _emit(_report("check", path, body))
    return 0 if report.ok else 4


def _add_common(
    parser: argparse.ArgumentParser,
    cap: int = MAX_ARGUMENTS,
    cap_help: str = "cap on constructed arguments",
) -> None:
    parser.add_argument("file", help="theory file (.dl)")
    parser.add_argument(
        "--policy",
        choices=[p.value for p in PreferencePolicy],
        default=PreferencePolicy.LAST_LINK.value,
        help="how superiority is used when deriving attacks",
    )
    parser.add_argument("--max-args", type=int, default=cap, help=cap_help)


_ENUM_CAP_HELP = "cap on arguments in exhaustive labelling and subset enumeration"


def _add_frame_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--frame",
        default="independent",
        help="independent, or ptf:FILE / pgf:FILE / plf:FILE / pef:FILE / pag:FILE",
    )
    parser.add_argument(
        "--semantics",
        choices=[s.value for s in Semantics],
        default=Semantics.GROUNDED.value,
    )
    parser.add_argument("--weights", help="sublabelling weights file")
    parser.add_argument("--legal-only", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arglab",
        description="Defeasible argumentation with probabilistic labellings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("args", help="enumerate arguments")
    _add_common(p)
    p.set_defaults(func=cmd_args)

    p = sub.add_parser("graph", help="print the argumentation graph")
    _add_common(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("label", help="enumerate labellings")
    _add_common(p)
    p.add_argument(
        "--semantics",
        choices=[s.value for s in Semantics],
        default=Semantics.GROUNDED.value,
    )
    p.add_argument("--labels", choices=sorted(_LABEL_SETS), default="inoutun")
    p.add_argument("--legal-only", action="store_true")
    p.add_argument(
        "--max-args-enum",
        type=int,
        default=MAX_ENUM_ARGUMENTS,
        help="cap on arguments for exhaustive labelling enumeration",
    )
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("marginal", help="marginal probabilities")
    _add_common(p, MAX_ENUM_ARGUMENTS, _ENUM_CAP_HELP)
    _add_frame_options(p)
    p.add_argument("--target", default="all", help="arg:ID, stmt:LIT or all")
    p.add_argument(
        "--scheme",
        choices=[s.value for s in StatementScheme],
        default=StatementScheme.WORSTCASE.value,
    )
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("check", help="property report for a frame")
    _add_common(p, MAX_ENUM_ARGUMENTS, _ENUM_CAP_HELP)
    _add_frame_options(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoryParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DistributionError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
