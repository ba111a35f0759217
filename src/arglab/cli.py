"""Command line interface.

Exit codes: 0 success, 2 parse or validation error, 3 resource cap exceeded,
4 property violation.  All reports are JSON with a ``schema`` version and a
sha256 digest of the input theory file; rationals are emitted exactly as
numerator/denominator plus a rounded decimal for readability.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from .core import ArgLabel, ArgumentationGraph, Labelling, LabelSet, Literal
from .construct import PreferencePolicy, build_graph, to_dot
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
    ZERO,
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
    statement_marginal,
)
from .semantics import (
    MAX_ENUM_ARGUMENTS,
    LabellingSpec,
    Semantics,
    labellings,
    subgraph_labellings,
)

SCHEMA = 1

# --semantics and --max-args-enum have no parser default, so that a labelled
# file frame can tell whether they were given; these values apply when not
_DEFAULTS = {"semantics": Semantics.GROUNDED.value, "max_args_enum": MAX_ENUM_ARGUMENTS}
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


def _load_graph(args, theory) -> ArgumentationGraph:
    """The theory's graph under --policy.

    --max-args caps construction when the subcommand takes it and it is set;
    otherwise ``build_graph``'s own cap applies.
    """
    caps = {"max_args": args.max_args} if "max_args" in args else {}
    return build_graph(theory, policy=PreferencePolicy(args.policy), **caps)


def _option(args, dest: str):
    """The value of an option in ``_DEFAULTS``, its default when not given."""
    return getattr(args, dest, _DEFAULTS[dest])


def _build_plf(args, theory) -> PLF:
    """Resolve the --frame option into a labelling frame.

    Rule-subset frames push the theory forward and build their own graph; the
    file-based frames over arguments load it here.  ``plf:`` and ``pef:``
    frames are labellings already: --semantics labels every other frame, and
    --weights and --legal-only apply only there.  A ``plf:`` frame is
    epistemic, with no semantics in its spec, unless --semantics is given:
    then each of its labellings must be a labelling of its non-OFF arguments
    under that semantics, enumerated under --max-args-enum.
    """
    spec = args.frame
    kind, colon, file_part = spec.partition(":")
    if not colon and spec != "independent":
        raise DistributionError(f"bad frame spec {spec!r}")
    if colon and kind not in ("ptf", "pgf", "plf", "pef", "pag"):
        raise DistributionError(f"unknown frame kind {kind!r}")
    checked = kind == "plf" and "semantics" in args
    if kind in ("plf", "pef"):
        given = {
            "--weights": args.weights,
            "--legal-only": args.legal_only,
            "--max-args-enum": "max_args_enum" in args and not checked,
            "--semantics": kind == "pef" and "semantics" in args,
        }
        for flag, value in given.items():
            if value:
                raise DistributionError(
                    f"{flag} does not apply to a {kind}: frame, which no semantics labels"
                )
    semantics = Semantics(_option(args, "semantics"))
    max_args_enum = _option(args, "max_args_enum")
    weights = _load_weights(args.weights)
    text = Path(file_part).read_text() if colon else ""
    if not colon or kind == "ptf":
        ptf = PTF(theory, parse_subset_distribution(text)) if colon else ptf_independent(theory)
        pgf = pgf_from_ptf(ptf, policy=PreferencePolicy(args.policy))
    else:
        graph = _load_graph(args, theory)
        if kind == "plf":
            entries = parse_assignment_distribution(text)
            used = {l for assignment, _ in entries for l in assignment.values()}
            # the smallest label set holding every label used; a mix that none
            # holds fails in from_mapping on its first ON label
            label_set = next((s for s in LabelSet if used <= s.labels), LabelSet.IN_OUT_UN_OFF)
            plf = PLF(
                graph,
                LabellingSpec(label_set, semantics=semantics if checked else None),
                [(Labelling.from_mapping(label_set, a), p) for a, p in entries],
            )
            if checked:
                _check_labellings(plf, semantics, max_args_enum)
            return plf
        if kind == "pef":
            return plf_from_pef(PEF(graph, parse_subset_distribution(text)))
        if kind == "pgf":
            pgf = PGF(graph, parse_subset_distribution(text))
        else:  # pag
            pag = PAG(graph.without_sub_edges(), parse_argument_probabilities(text))
            pgf = pag_to_pgf(pag, max_args=max_args_enum)
    return plf_with_semantics(
        pgf, semantics, weights=weights, legal_only=args.legal_only, max_args=max_args_enum
    )


def _check_labellings(plf: PLF, semantics: Semantics, max_args: int) -> None:
    """Refuse the first labelling of the frame that is not a ``semantics``
    labelling of its non-OFF arguments."""
    for labelling in plf.probs:
        present = [a for a, l in labelling.entries if l is not ArgLabel.OFF]
        found = subgraph_labellings(plf.graph, present, semantics, max_args)
        if labelling.labels not in {l.labels for l in found}:
            raise DistributionError(
                f"labelling {labelling} is not a {semantics.value} labelling "
                f"of its non-OFF arguments"
            )


def cmd_args(args) -> int:
    path = Path(args.file)
    graph = _load_graph(args, _load_theory(path))
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
    graph = _load_graph(args, _load_theory(path))
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
    graph = _load_graph(args, _load_theory(path))
    spec = LabellingSpec(
        _LABEL_SETS[args.labels],
        semantics=Semantics(_option(args, "semantics")),
        legal_only=args.legal_only,
    )
    result = labellings(graph, spec, max_args=_option(args, "max_args_enum"))
    body = {
        "semantics": spec.semantics.value,
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
        row = statement_marginal(plf, statement, scheme)
        return {
            "statement": str(statement),
            "labels": {l.value: _rational(row.get(l, ZERO)) for l in _STMT_LABELS[scheme]},
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


def _semantics_field(plf: PLF) -> Optional[str]:
    """The semantics the frame's spec carries; none for a ``pef:`` frame."""
    return plf.spec.semantics.value if plf.spec.semantics is not None else None


def cmd_marginal(args) -> int:
    path = Path(args.file)
    plf = _build_plf(args, _load_theory(path))
    body = {"frame": args.frame, "semantics": _semantics_field(plf)}
    body.update(_marginal_body(args, plf))
    _emit(_report("marginal", path, body))
    return 0


def cmd_check(args) -> int:
    path = Path(args.file)
    theory = _load_theory(path)
    plf = _build_plf(args, theory)
    report = check_properties(plf, theory)
    body = {
        "frame": args.frame,
        "semantics": _semantics_field(plf),
        "ok": report.ok,
        "properties": [asdict(r) for r in report.results],
        "justification": {
            a: justification_from_plf(plf, a).value for a in plf.graph.ids()
        },
    }
    _emit(_report("check", path, body))
    return 0 if report.ok else 4


def _cap(text: str) -> int:
    """The value of a cap option: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid cap {text!r}: give an integer of at least 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arglab",
        description="Defeasible argumentation with probabilistic labellings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_text in (
        ("args", cmd_args, "enumerate arguments"),
        ("graph", cmd_graph, "print the argumentation graph"),
        ("label", cmd_label, "enumerate labellings"),
        ("marginal", cmd_marginal, "marginal probabilities"),
        ("check", cmd_check, "property report for a frame"),
    ):
        # options must be spelled in full: a prefix of --max-args-enum is not it
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("file", help="theory file (.dl)")
        p.add_argument(
            "--policy",
            choices=[policy.value for policy in PreferencePolicy],
            default=PreferencePolicy.LAST_LINK.value,
            help="how superiority is used when deriving attacks",
        )
        p.set_defaults(func=func)
        commands[name] = p
    for name in ("args", "graph", "label"):
        commands[name].add_argument(
            "--max-args",
            type=_cap,
            default=argparse.SUPPRESS,
            help="cap on constructed arguments",
        )
    for name in ("label", "marginal", "check"):
        commands[name].add_argument(
            "--semantics",
            choices=[s.value for s in Semantics],
            default=argparse.SUPPRESS,
            help=f"default {_DEFAULTS['semantics']}",
        )
        commands[name].add_argument("--legal-only", action="store_true")
        commands[name].add_argument(
            "--max-args-enum",
            type=_cap,
            default=argparse.SUPPRESS,
            help="cap on arguments in exhaustive labelling and subset enumeration "
            f"(default {_DEFAULTS['max_args_enum']})",
        )
    for name in ("marginal", "check"):
        commands[name].add_argument(
            "--frame",
            default="independent",
            help="independent, or ptf:FILE / pgf:FILE / plf:FILE / pef:FILE / pag:FILE",
        )
        commands[name].add_argument("--weights", help="sublabelling weights file")
    commands["graph"].add_argument("--format", choices=["json", "dot"], default="json")
    commands["label"].add_argument("--labels", choices=sorted(_LABEL_SETS), default="inoutun")
    commands["marginal"].add_argument("--target", default="all", help="arg:ID, stmt:LIT or all")
    commands["marginal"].add_argument(
        "--scheme",
        choices=[s.value for s in StatementScheme],
        default=StatementScheme.WORSTCASE.value,
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at first use and kept: parsing leaves it unchanged,
    and options not given have no default (``argparse.SUPPRESS``) or a fixed one."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
