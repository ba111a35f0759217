"""Command line interface.

Exit codes: 0 success, 2 parse or validation error, 3 resource cap exceeded,
4 property violation.  ``main`` reads the theory file once, as bytes, and
parses the theory from them; each subcommand maps the arguments and the
theory to a report body and an exit code, and ``main`` writes every report's
header: the ``schema`` version, the command, the input path and the sha256
digest of the bytes read.  Rationals are emitted exactly as
numerator/denominator plus a rounded decimal for readability: ``approx``,
the value to six decimals, the last rounded half to even, computed on
integers with no decimal context.

A marginal report reads each argument's row of the frame's marginal table,
and each statement's row, as ``int`` numerators over a denominator.  The
JSON text of each distinct reduced (num, den) cell is written once per
report, and the argument and statement rows are laid out from one template
at the depth where the report places them; ``_json`` writes the rest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    SublabellingWeights,
    pgf_from_ptf,
    plf_from_pag,
    plf_from_pef,
    plf_independent,
    plf_with_semantics,
)
from .marginals import (
    StatementLabel,
    StatementScheme,
    check_properties,
    justification_from_plf,
    statement_marginal,
)
from .semantics import (
    MAX_ENUM_ARGUMENTS,
    LabellingSpec,
    Semantics,
    check_cap,
    label_rows,
    labellings,
)

SCHEMA = 1
# a subcommand's report body, None when it wrote its output itself, and its exit code
Result = Tuple[Optional[Dict[str, object]], int]

# --semantics and --max-args-enum have no parser default, so that a labelled
# file frame can tell whether they were given; these values apply when not
_DEFAULTS = {"semantics": Semantics.GROUNDED.value, "max_args_enum": MAX_ENUM_ARGUMENTS}
_LABEL_SETS = {"inoutun": LabelSet.IN_OUT_UN, "inoutunoff": LabelSet.IN_OUT_UN_OFF}
_STMT_LABELS = {
    StatementScheme.BIVALENT: [StatementLabel.IN, StatementLabel.NO],
    StatementScheme.WORSTCASE: [l for l in StatementLabel if l is not StatementLabel.NO],
}


_MICRO = 10**6


def _approx(num: int, den: int) -> str:
    """``num / den``, at least 0, to six decimals, the last rounded half to even."""
    q, r = divmod(num * _MICRO, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    whole, micro = divmod(q, _MICRO)
    return f"{whole}.{micro:06d}"


_string = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode
_ARRAYS = {list, tuple}


def _json(value: object, indent: str, out: List[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` writes
    it, nested at ``indent`` (a newline and the spaces of the enclosing level).

    ``json.dumps`` uses its C encoder only without ``indent``; this walk lays
    out the containers itself, writes null, booleans and integers as the
    encoder does, and hands strings and other scalars to the C functions.  An
    array of strings, and an array of rows of two strings (attack and
    sub-edge pairs), is one ``join`` without a Python-level call per item.
    The pieces are joined once, at the end, so no large string is copied
    level by level.  Dict keys must be strings.  A :class:`_Written` value
    is appended as its text, which must be laid out for where it stands.
    """
    if isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        opening = "{" + inner
        for k, v in value.items():
            out.append(opening + _string(k) + ": ")
            _json(v, inner, out)
            opening = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "," + inner
        try:
            items = sep.join(map(_string, value))
        except TypeError:
            items = _pairs(value, inner)
        if items is not None:
            out += ("[" + inner, items, indent + "]")
            return
        opening = "[" + inner
        for v in value:
            out.append(opening)
            _json(v, inner, out)
            opening = sep
        out.append(indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, _Written):
        out.append(value.text)
    else:
        out.append(_scalar(value))


class _Written:
    """A value of a report's top level, its JSON text written already."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _pairs(rows: Sequence[object], inner: str) -> Optional[str]:
    """The items of an array of rows of two strings, nested at ``inner``, as
    ``json.dumps(indent=2)`` lays them out; None when ``rows`` is anything
    else.  Each distinct string is encoded once, and the rows are laid out
    by repeating one row's pieces and filling in the encoded strings."""
    if not set(map(type, rows)) <= _ARRAYS or set(map(len, rows)) != {2}:
        return None
    firsts, seconds = zip(*rows)
    try:
        strings = set(firsts).union(seconds)
        encoded = dict(zip(strings, map(_string, strings))).__getitem__
    except TypeError:  # a member that is not a string
        return None
    row_inner = inner + "  "
    pieces = ["[" + row_inner, "", "," + row_inner, "", inner + "]," + inner] * len(rows)
    pieces[1::5] = map(encoded, firsts)
    pieces[3::5] = map(encoded, seconds)
    pieces[-1] = inner + "]"
    return "".join(pieces)


def _emit(report: Dict[str, object]) -> None:
    out: List[str] = []
    _json(report, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _labelling_json(labelling: Labelling) -> Dict[str, str]:
    return {a: l.value for a, l in labelling.entries}


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
    file-based frames over arguments load it here.  The ``independent`` and
    ``pag:`` frames are built from independent groups of components
    (:func:`plf_independent`, :func:`plf_from_pag`).  ``plf:`` and ``pef:``
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
    policy = PreferencePolicy(args.policy)
    options = {"weights": weights, "legal_only": args.legal_only, "max_args": max_args_enum}
    if not colon:
        return plf_independent(theory, semantics, policy=policy, **options)
    if kind == "ptf":
        pgf = pgf_from_ptf(PTF(theory, parse_subset_distribution(text)), policy=policy)
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
            return plf_from_pag(pag, semantics, **options)
    return plf_with_semantics(pgf, semantics, **options)


def _check_labellings(plf: PLF, semantics: Semantics, max_args: int) -> None:
    """Refuse the first labelling of the frame that is not a ``semantics``
    labelling of its non-OFF arguments.  Labellings sharing their non-OFF
    arguments, keyed by the mask of them, share one set of that subgraph's
    label rows at every position."""
    graph = plf.graph
    bits = graph._bit.values()
    every = range(len(bits))
    found: Dict[int, Set[Tuple[ArgLabel, ...]]] = {}
    for labelling in plf.probs:
        present = sum(b for b, l in zip(bits, labelling.labels) if l is not ArgLabel.OFF)
        if present not in found:
            check_cap(present.bit_count(), max_args)
            found[present] = set(label_rows(graph, present, semantics, every))
        if labelling.labels not in found[present]:
            raise DistributionError(
                f"labelling {labelling} is not a {semantics.value} labelling "
                f"of its non-OFF arguments"
            )


def cmd_args(args, theory) -> Result:
    graph = _load_graph(args, theory)
    return {
        "arguments": [
            {
                "id": a,
                "top_rule": graph.arguments[a].top_rule,
                "conclusion": str(graph.arguments[a].conclusion),
                "direct_subs": [s.canonical_id for s in graph.arguments[a].direct_subs],
            }
            for a in graph.ids()
        ]
    }, 0


def cmd_graph(args, theory) -> Result:
    graph = _load_graph(args, theory)
    if args.format == "dot":
        sys.stdout.write(to_dot(graph))
        return None, 0
    return {
        "arguments": graph.ids(),
        "attacks": graph.sorted_attacks(),
        "sub_edges": sorted(graph.sub_edges),
    }, 0


def cmd_label(args, theory) -> Result:
    graph = _load_graph(args, theory)
    spec = LabellingSpec(
        _LABEL_SETS[args.labels],
        semantics=Semantics(_option(args, "semantics")),
        legal_only=args.legal_only,
    )
    result = labellings(graph, spec, max_args=_option(args, "max_args_enum"))
    return {
        "semantics": spec.semantics.value,
        "labels": args.labels,
        "labellings": [_labelling_json(l) for l in result],
    }, 0


# A marginal row is an item of an array at the report's top level, laid out
# as ``json.dumps(indent=2)`` lays it out: its key field, its labels, each
# with its cell, and the fields after them, already written.
_ROW_OPEN = '{{\n      "{}": {},\n      "labels": {{'
_ROW_LABEL = '{}\n        "{}": '
_ROW_CLOSE = "\n      }}{}\n    }}"
_CELL = '{{\n          "num": {},\n          "den": {},\n          "approx": "{}"\n        }}'


def _label_heads(labels: Sequence[object]) -> List[Tuple[object, str]]:
    """Each label of a row, with the text before its cell."""
    return [(l, _ROW_LABEL.format("," if k else "", l.value)) for k, l in enumerate(labels)]


def _rows_text(rows: Iterable[str]) -> _Written:
    """The array of the given rows, a value of the report's top level."""
    items = ",\n    ".join(rows)
    return _Written("[\n    " + items + "\n  ]" if items else "[]")


def _marginal_body(args, plf: PLF) -> Dict[str, object]:
    scheme = StatementScheme(args.scheme)
    target = args.target
    graph = plf.graph
    cells: Dict[Tuple[int, int], str] = {}  # each reduced (num, den)'s text

    def row(key: str, value: str, heads, dist, after: str = "") -> str:
        """The row of ``dist``'s numerators, each cell reduced."""
        pieces = [_ROW_OPEN.format(key, _string(value))]
        nums, den = dist.nums, dist.den
        for label, head in heads:
            num = nums.get(label, 0)
            g = math.gcd(num, den)
            cell = num // g, den // g
            text = cells.get(cell)
            if text is None:
                text = cells[cell] = _CELL.format(*cell, _approx(*cell))
            pieces += (head, text)
        pieces.append(_ROW_CLOSE.format(after))
        return "".join(pieces)

    arg_heads = _label_heads(sorted(plf.spec.label_set.labels, key=lambda l: l.rank))
    stmt_heads = _label_heads(_STMT_LABELS[scheme])

    def arg_row(arg_id: str) -> str:
        justification = justification_from_plf(plf, arg_id).value
        after = ',\n      "justification": ' + _string(justification)
        return row("id", arg_id, arg_heads, plf.marginals[arg_id], after)

    def stmt_row(statement: Literal) -> str:
        return row("statement", str(statement), stmt_heads, statement_marginal(plf, statement, scheme))

    if target.startswith("arg:"):
        arg_id = target[4:]
        if arg_id not in graph.arguments:
            raise DistributionError(f"unknown argument id {arg_id!r}")
        return {"scheme": args.scheme, "arguments": _rows_text([arg_row(arg_id)])}
    if target.startswith("stmt:"):
        statement = Literal.parse(target[5:])
        return {"scheme": args.scheme, "statements": _rows_text([stmt_row(statement)])}
    if target == "all":
        statements = sorted({a.conclusion for a in graph.arguments.values()}, key=str)
        return {
            "scheme": args.scheme,
            "arguments": _rows_text(map(arg_row, graph.ids())),
            "statements": _rows_text(map(stmt_row, statements)),
        }
    raise DistributionError(f"bad target {target!r}; use arg:ID, stmt:LIT or all")


def _semantics_field(plf: PLF) -> Optional[str]:
    """The semantics the frame's spec carries; none for a ``pef:`` frame."""
    return plf.spec.semantics.value if plf.spec.semantics is not None else None


def cmd_marginal(args, theory) -> Result:
    plf = _build_plf(args, theory)
    return {"frame": args.frame, "semantics": _semantics_field(plf), **_marginal_body(args, plf)}, 0


def cmd_check(args, theory) -> Result:
    plf = _build_plf(args, theory)
    report = check_properties(plf, theory)
    return {
        "frame": args.frame,
        "semantics": _semantics_field(plf),
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
            a: justification_from_plf(plf, a).value for a in plf.graph.ids()
        },
    }, 0 if report.ok else 4


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
    import io  # loaded at interpreter start: this binds the name and loads nothing

    args = _parser().parse_args(argv)
    path = Path(args.file)
    try:
        data = path.read_bytes()
        # decoded as Path.read_text decodes: the locale's encoding, universal newlines
        body, code = args.func(args, parse_theory(io.TextIOWrapper(io.BytesIO(data)).read()))
        if body is not None:
            header = {"schema": SCHEMA, "command": args.command, "input": str(path)}
            _emit({**header, "input_digest": hashlib.sha256(data).hexdigest(), **body})
        return code
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
