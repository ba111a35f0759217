"""Core value types: literals, rules, theories, arguments, graphs, labels.

Probabilities are exact rationals throughout; ``fractions.Fraction`` from the
standard library is used directly, no wrapper type is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its strong negation (``a`` / ``-a``)."""

    atom: str
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def __str__(self) -> str:
        return ("-" if self.negated else "") + self.atom

    @staticmethod
    def parse(text: str) -> "Literal":
        text = text.strip()
        neg = text.startswith("-")
        if neg:
            text = text[1:].strip()
        if not text.isidentifier():
            raise ValueError(f"bad literal: {text!r}")
        return Literal(text, neg)


def lit(text: str) -> Literal:
    """Shorthand constructor, ``lit("-a") == Literal("a", True)``."""
    return Literal.parse(text)


@dataclass(frozen=True)
class Rule:
    """A defeasible rule ``id : b1, ..., ~c1, ... => head``.

    ``body_plain`` keeps the written order of the non-naf body literals; that
    order fixes the child order in canonical argument identifiers.  ``body_naf``
    holds the literals that appear under negation as failure.
    """

    id: str
    body_plain: Tuple[Literal, ...]
    body_naf: FrozenSet[Literal]
    head: Literal

    def __post_init__(self):
        if not self.id.isidentifier():
            raise ValueError(f"bad rule id: {self.id!r}")


@dataclass
class DefeasibleTheory:
    """Rules plus a conflict relation and a superiority relation.

    Treated as immutable after construction.  ``conflicts`` holds the declared
    directional pairs; use :func:`close_conflicts` for the closure that also
    contains every complement pair.  ``superiority`` maps are arbitrary pairs
    of rule ids; no transitivity, asymmetry or acyclicity is imposed.
    """

    rules: Dict[str, Rule]
    conflicts: FrozenSet[Tuple[Literal, Literal]] = frozenset()
    superiority: FrozenSet[Tuple[str, str]] = frozenset()
    rule_probs: Dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for stronger, weaker in self.superiority:
            for rid in (stronger, weaker):
                if rid not in self.rules:
                    raise ValueError(f"superiority mentions unknown rule {rid!r}")
        for rid in self.rule_probs:
            if rid not in self.rules:
                raise ValueError(f"probability given for unknown rule {rid!r}")

    def literals(self) -> FrozenSet[Literal]:
        """Every literal appearing anywhere in the theory."""
        out = set()
        for rule in self.rules.values():
            out.add(rule.head)
            out.update(rule.body_plain)
            out.update(rule.body_naf)
        for a, b in self.conflicts:
            out.add(a)
            out.add(b)
        return frozenset(out)

    def restricted_to(self, rule_ids: Iterable[str]) -> "DefeasibleTheory":
        """Subtheory keeping only the given rules.

        The conflict relation is untouched; superiority pairs are kept only
        when both rules survive.
        """
        keep = set(rule_ids)
        unknown = keep - set(self.rules)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        return DefeasibleTheory(
            rules={rid: r for rid, r in self.rules.items() if rid in keep},
            conflicts=self.conflicts,
            superiority=frozenset(
                (s, w) for (s, w) in self.superiority if s in keep and w in keep
            ),
            rule_probs={rid: p for rid, p in self.rule_probs.items() if rid in keep},
        )


def close_conflicts(theory: DefeasibleTheory) -> FrozenSet[Tuple[Literal, Literal]]:
    """Declared conflict pairs plus both complement pairs for every literal.

    Complement conflicts are symmetric by construction; declared pairs stay
    directional (the converse is not added automatically).
    """
    pairs = set(theory.conflicts)
    for l in theory.literals():
        pairs.add((l, l.complement()))
        pairs.add((l.complement(), l))
    return frozenset(pairs)


def in_conflict(theory: DefeasibleTheory, a: Literal, b: Literal) -> bool:
    return b == a.complement() or (a, b) in theory.conflicts


@dataclass(frozen=True)
class Argument:
    """A finite tree of rule applications.

    ``direct_subs`` are ordered to match the plain body of the top rule, so the
    canonical id ``rule(child1,child2,...)`` is unique per tree shape.  A
    premise-free argument renders as ``rule()``.
    """

    top_rule: str
    conclusion: Literal
    direct_subs: Tuple["Argument", ...] = ()
    naf_premises: FrozenSet[Literal] = frozenset()
    canonical_id: str = field(init=False)

    def __post_init__(self):
        cid = f"{self.top_rule}({','.join(s.canonical_id for s in self.direct_subs)})"
        object.__setattr__(self, "canonical_id", cid)

    def subarguments(self) -> Iterator["Argument"]:
        """All subarguments, this argument included."""
        yield self
        for child in self.direct_subs:
            yield from child.subarguments()

    def rules(self) -> FrozenSet[str]:
        return frozenset(a.top_rule for a in self.subarguments())

    def __str__(self) -> str:
        return self.canonical_id


@dataclass(frozen=True)
class ArgumentationGraph:
    """Arguments plus attack and direct-subargument edges over their ids.

    Well-formedness is checked on construction: the subargument relation is
    antireflexive and acyclic, and an attack on an argument extends to every
    argument having it as a direct subargument.
    """

    arguments: Mapping[str, Argument]
    attacks: FrozenSet[Tuple[str, str]]
    sub_edges: FrozenSet[Tuple[str, str]]

    def __post_init__(self):
        ids = set(self.arguments)
        for x, y in self.attacks | self.sub_edges:
            if x not in ids or y not in ids:
                raise ValueError(f"edge ({x}, {y}) mentions unknown argument")
        self._check_sub_acyclic()
        for b, a in self.sub_edges:
            for attacker, target in self.attacks:
                if target == b and (attacker, a) not in self.attacks:
                    raise ValueError(
                        f"attack ({attacker}, {b}) does not extend to parent {a}"
                    )

    def _check_sub_acyclic(self):
        children: Dict[str, List[str]] = {}
        for b, a in self.sub_edges:
            if b == a:
                raise ValueError(f"reflexive subargument edge on {a}")
            children.setdefault(a, []).append(b)
        state: Dict[str, int] = {}

        def visit(node: str):
            state[node] = 1
            for nxt in children.get(node, ()):
                mark = state.get(nxt)
                if mark == 1:
                    raise ValueError("subargument relation has a cycle")
                if mark is None:
                    visit(nxt)
            state[node] = 2

        for node in self.arguments:
            if node not in state:
                visit(node)

    def ids(self) -> List[str]:
        return sorted(self.arguments)

    def attackers_of(self, arg_id: str) -> List[str]:
        return sorted(b for (b, a) in self.attacks if a == arg_id)

    def without_sub_edges(self) -> "ArgumentationGraph":
        """Abstract view of the graph, subargument structure dropped."""
        return ArgumentationGraph(dict(self.arguments), self.attacks, frozenset())


class ArgLabel(Enum):
    IN = "IN"
    OUT = "OUT"
    UN = "UN"
    ON = "ON"
    OFF = "OFF"

    @property
    def rank(self) -> int:
        return _LABEL_RANK[self]


_LABEL_RANK = {
    ArgLabel.IN: 0,
    ArgLabel.OUT: 1,
    ArgLabel.UN: 2,
    ArgLabel.ON: 3,
    ArgLabel.OFF: 4,
}


class LabelSet(Enum):
    ON_OFF = frozenset({ArgLabel.ON, ArgLabel.OFF})
    IN_OUT_UN = frozenset({ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN})
    IN_OUT_UN_OFF = frozenset({ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN, ArgLabel.OFF})

    @property
    def labels(self) -> FrozenSet[ArgLabel]:
        return self.value


@dataclass(frozen=True)
class Labelling:
    """A total assignment of labels to argument ids.

    Stored as a sorted tuple of pairs so labellings are hashable and can key
    probability distributions.
    """

    label_set: LabelSet
    entries: Tuple[Tuple[str, ArgLabel], ...]

    @staticmethod
    def from_mapping(label_set: LabelSet, mapping: Mapping[str, ArgLabel]) -> "Labelling":
        for arg_id, label in mapping.items():
            if label not in label_set.labels:
                raise ValueError(f"label {label.value} not in label set for {arg_id}")
        return Labelling(label_set, tuple(sorted(mapping.items())))

    @property
    def mapping(self) -> Dict[str, ArgLabel]:
        return dict(self.entries)

    def label(self, arg_id: str) -> ArgLabel:
        m = self.mapping
        if arg_id not in m:
            raise KeyError(arg_id)
        return m[arg_id]

    def with_label(self, label: ArgLabel) -> FrozenSet[str]:
        """Ids carrying the given label."""
        return frozenset(a for a, l in self.entries if l is label)

    def sort_key(self) -> Tuple[int, ...]:
        """Deterministic order: label ranks in canonical-id order."""
        return tuple(l.rank for _, l in self.entries)

    def restricted(self, ids: Iterable[str]) -> "Labelling":
        keep = set(ids)
        return Labelling(self.label_set, tuple(e for e in self.entries if e[0] in keep))

    def __str__(self) -> str:
        body = ", ".join(f"{a}={l.value}" for a, l in self.entries)
        return "{" + body + "}"


class Justification(Enum):
    """Semi-skeptical justification statuses."""

    OFJ = "OFJ"  # labelled OFF everywhere
    SKJ = "SKJ"  # labelled IN everywhere
    CRJ = "CRJ"  # labelled IN somewhere but not everywhere
    NOJ = "NOJ"  # never labelled IN


def semi_skeptical_justification(
    labellings: Iterable[Labelling], arg_id: str
) -> Justification:
    """Justification of an argument over a nonempty set of labellings."""
    ls = list(labellings)
    if not ls:
        raise ValueError("need at least one labelling")
    seen = {l.label(arg_id) for l in ls}
    if seen == {ArgLabel.OFF}:
        return Justification.OFJ
    if seen == {ArgLabel.IN}:
        return Justification.SKJ
    if ArgLabel.IN in seen:
        return Justification.CRJ
    return Justification.NOJ
