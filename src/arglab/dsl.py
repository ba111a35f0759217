"""Line-oriented text format for theories, distributions and weights.

Theory files hold four statement kinds, one per line, each ending in ``.``::

    rb1 : => -b.              # rule: ID : BODY => LIT.
    rc  : ~-b => c.           # naf premise written ~LIT
    rd  : a, b => d.          # plain premises, comma separated, order kept
    conflict(c, -c).          # directional conflict pair
    rnc > rc.                 # superiority between rule ids
    p(rb1) = 1/2.             # rule probability, rational or plain decimal

``#`` starts a comment.  Probabilities accept ``N``, ``N/M`` and decimal
notation like ``0.4`` (read exactly, so ``0.4`` is 2/5); scientific notation
is rejected.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .core import ArgLabel, DefeasibleTheory, Literal, Rule
from .errors import TheoryParseError

_RATIONAL_RE = re.compile(r"^(?:\d+/\d+|\d+(?:\.\d+)?)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_rational(text: str, line: int = 0, col: int = 0) -> Fraction:
    """Exact rational from ``N``, ``N/M`` or a plain decimal string."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise TheoryParseError(f"bad rational {text!r}", line, col)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise TheoryParseError(f"zero denominator in {text!r}", line, col) from None


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _parse_literal(text: str, line: int) -> Literal:
    try:
        return Literal.parse(text)
    except ValueError as exc:
        raise TheoryParseError(str(exc), line, 1) from None


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if stmt:
            out.append((lineno, stmt))
    return out


_CONFLICT_RE = re.compile(r"^conflict\(\s*([^,]+?)\s*,\s*([^)]+?)\s*\)$")
_PROB_RE = re.compile(r"^p\(\s*([^)]+?)\s*\)\s*=\s*(\S+)$")
_SUP_RE = re.compile(r"^(\S+)\s*>\s*(\S+)$")


def parse_theory(text: str) -> DefeasibleTheory:
    rules: Dict[str, Rule] = {}
    conflicts = set()
    superiority = set()
    rule_probs: Dict[str, Fraction] = {}

    for lineno, stmt in _logical_lines(text):
        if not stmt.endswith("."):
            raise TheoryParseError("statement must end with '.'", lineno, len(stmt))
        stmt = stmt[:-1].strip()

        m = _CONFLICT_RE.match(stmt)
        if m:
            conflicts.add((_parse_literal(m.group(1), lineno),
                           _parse_literal(m.group(2), lineno)))
            continue

        m = _PROB_RE.match(stmt)
        if m:
            rid = m.group(1)
            if not _IDENT_RE.match(rid):
                raise TheoryParseError(f"bad rule id {rid!r}", lineno, 1)
            if rid in rule_probs:
                raise TheoryParseError(f"duplicate probability for {rid!r}", lineno, 1)
            rule_probs[rid] = parse_rational(m.group(2), lineno)
            continue

        if "=>" in stmt and ":" in stmt.split("=>", 1)[0]:
            rid, rest = stmt.split(":", 1)
            rid = rid.strip()
            if not _IDENT_RE.match(rid):
                raise TheoryParseError(f"bad rule id {rid!r}", lineno, 1)
            if rid in rules:
                raise TheoryParseError(f"duplicate rule id {rid!r}", lineno, 1)
            body_text, head_text = rest.split("=>", 1)
            body_plain: List[Literal] = []
            body_naf = set()
            body_text = body_text.strip()
            if body_text:
                for part in body_text.split(","):
                    part = part.strip()
                    if not part:
                        raise TheoryParseError("empty body premise", lineno, 1)
                    if part.startswith("~"):
                        body_naf.add(_parse_literal(part[1:], lineno))
                    else:
                        body_plain.append(_parse_literal(part, lineno))
            head = _parse_literal(head_text, lineno)
            rules[rid] = Rule(rid, tuple(body_plain), frozenset(body_naf), head)
            continue

        m = _SUP_RE.match(stmt)
        if m:
            s, w = m.group(1), m.group(2)
            for rid in (s, w):
                if not _IDENT_RE.match(rid):
                    raise TheoryParseError(f"bad rule id {rid!r}", lineno, 1)
            superiority.add((s, w))
            continue

        raise TheoryParseError(f"unrecognised statement {stmt!r}", lineno, 1)

    try:
        return DefeasibleTheory(
            rules=rules,
            conflicts=frozenset(conflicts),
            superiority=frozenset(superiority),
            rule_probs=rule_probs,
        )
    except ValueError as exc:
        raise TheoryParseError(str(exc)) from None


def serialize_theory(theory: DefeasibleTheory) -> str:
    """Render a theory; ``parse_theory`` of the result is structurally equal."""
    lines = []
    for rule in theory.rules.values():
        parts = [str(l) for l in rule.body_plain]
        parts += [f"~{l}" for l in sorted(rule.body_naf)]
        body = ", ".join(parts)
        sep = " " if body else ""
        lines.append(f"{rule.id} : {body}{sep}=> {rule.head}.")
    for a, b in sorted(theory.conflicts, key=lambda p: (str(p[0]), str(p[1]))):
        lines.append(f"conflict({a}, {b}).")
    for s, w in sorted(theory.superiority):
        lines.append(f"{s} > {w}.")
    for rid in sorted(theory.rule_probs):
        lines.append(f"p({rid}) = {format_rational(theory.rule_probs[rid])}.")
    return "\n".join(lines) + ("\n" if lines else "")


# --- distribution and weights files -----------------------------------------
#
# One outcome per line, ``KEY : RATIONAL.``  A key is either a set of ids,
# ``{rb1, rc}`` (the empty set is ``{}``), or a label assignment,
# ``{rb1()=IN, rc()=OFF}``.  Per-argument probability files use a bare id as
# the key: ``rb1() : 1/2.``


def _entries(text: str) -> Iterator[Tuple[int, str, Fraction]]:
    """Each entry's line number, its key, stripped, and its value."""
    for lineno, stmt in _logical_lines(text):
        if not stmt.endswith("."):
            raise TheoryParseError("entry must end with '.'", lineno, len(stmt))
        stmt = stmt[:-1]
        if ":" not in stmt:
            raise TheoryParseError("expected 'KEY : RATIONAL.'", lineno, 1)
        key, value = stmt.rsplit(":", 1)
        yield lineno, key.strip(), parse_rational(value, lineno)


def _split_top(text: str) -> List[str]:
    """Split on the commas that lie outside parentheses, so nested ids stay whole."""
    parts, depth = [""], 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    return parts


def _parse_id_set(text: str, lineno: int) -> FrozenSet[str]:
    if not (text.startswith("{") and text.endswith("}")):
        raise TheoryParseError(f"expected a {{...}} set, got {text!r}", lineno, 1)
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(part.strip() for part in _split_top(inner))


def parse_subset_distribution(text: str) -> List[Tuple[FrozenSet[str], Fraction]]:
    """Entries keyed by id sets (rule ids, argument ids or believed sets)."""
    return [(_parse_id_set(key, lineno), value) for lineno, key, value in _entries(text)]


def _parse_assignment(text: str, lineno: int) -> Dict[str, ArgLabel]:
    if not (text.startswith("{") and text.endswith("}")):
        raise TheoryParseError(f"expected a {{...}} assignment, got {text!r}", lineno, 1)
    inner = text[1:-1].strip()
    mapping: Dict[str, ArgLabel] = {}
    if not inner:
        return mapping
    for part in _split_top(inner):
        if "=" not in part:
            raise TheoryParseError(f"expected 'id=LABEL' in {part!r}", lineno, 1)
        arg_id, label = part.split("=", 1)
        arg_id = arg_id.strip()
        label = label.strip()
        if arg_id in mapping:
            raise TheoryParseError(f"duplicate id {arg_id!r} in assignment", lineno, 1)
        try:
            mapping[arg_id] = ArgLabel(label)
        except ValueError:
            raise TheoryParseError(f"unknown label {label!r}", lineno, 1) from None
    return mapping


def parse_assignment_distribution(
    text: str,
) -> List[Tuple[Dict[str, ArgLabel], Fraction]]:
    """Entries keyed by label assignments; used for labelling distributions
    and for sublabelling weights."""
    return [(_parse_assignment(key, lineno), value) for lineno, key, value in _entries(text)]


def parse_argument_probabilities(text: str) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for lineno, key, value in _entries(text):
        if key in out:
            raise TheoryParseError(f"duplicate entry for {key!r}", lineno, 1)
        out[key] = value
    return out
