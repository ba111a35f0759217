"""Core value types: literals, rules, theories, arguments, graphs, labels.

Probabilities are exact rationals throughout; ``fractions.Fraction`` from the
standard library is used directly, no wrapper type is needed.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple


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

    @classmethod
    def _formed(
        cls,
        top_rule: str,
        conclusion: Literal,
        direct_subs: Tuple["Argument", ...],
        naf_premises: FrozenSet[Literal],
        canonical_id: str,
    ) -> "Argument":
        """The argument with these fields, ``canonical_id`` already formed by
        the caller from the rule and the children's ids as ``__post_init__``
        forms it; for a builder that forms each id to look it up first."""
        arg = object.__new__(cls)
        init = object.__setattr__
        init(arg, "top_rule", top_rule)
        init(arg, "conclusion", conclusion)
        init(arg, "direct_subs", direct_subs)
        init(arg, "naf_premises", naf_premises)
        init(arg, "canonical_id", canonical_id)
        return arg

    def subarguments(self) -> Iterator["Argument"]:
        """All subarguments, this argument included."""
        yield self
        for child in self.direct_subs:
            yield from child.subarguments()

    def rules(self) -> FrozenSet[str]:
        return frozenset(a.top_rule for a in self.subarguments())

    def __str__(self) -> str:
        return self.canonical_id


_TARGET = operator.itemgetter(1)  # an attack pair's target


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _connected(links: Iterable[int]) -> List[int]:
    """The connected pieces of ``links``, each link a bitmask of positions
    joined to each other, as bitmasks: each link is merged with every piece
    found so far that it meets."""
    found: List[int] = []
    for link in links:
        rest = []
        for piece in found:
            if piece & link:
                link |= piece
            else:
                rest.append(piece)
        found = rest + [link]
    return found


@dataclass(frozen=True)
class ArgumentationGraph:
    """Arguments plus attack and direct-subargument edges over their ids.

    The public constructor checks well-formedness: every edge end is a known
    argument, the subargument relation is antireflexive and acyclic, and an
    attack on an argument extends to every argument having it as a direct
    subargument.  :meth:`_formed` hands over a graph whose builder already
    guarantees all of this, with no check, and the public constructor is its
    test oracle.  Either way the index every layer reads is built on first
    use: ``attackers`` maps each id to the frozenset of its attackers, and
    :meth:`ids` is the sorted id tuple.  The labelling search reads the same
    index as bitmasks, :attr:`attacker_masks`, bit j standing for
    ``ids()[j]``, labelling frames factor over :attr:`components`, and
    :attr:`_piece_in_masks` keeps the IN-sets the search finds for each piece.
    """

    arguments: Mapping[str, Argument]
    attacks: FrozenSet[Tuple[str, str]]
    sub_edges: FrozenSet[Tuple[str, str]]

    def __post_init__(self):
        known = self.arguments.keys()
        for x, y in itertools.chain(self.attacks, self.sub_edges):
            if x not in known or y not in known:
                raise ValueError(f"edge ({x}, {y}) mentions unknown argument")
        self._check_sub_acyclic()
        attackers = self.attackers
        for b, a in self.sub_edges:
            missing = attackers[b] - attackers[a]
            if missing:
                raise ValueError(
                    f"attack ({min(missing)}, {b}) does not extend to parent {a}"
                )

    @classmethod
    def _formed(
        cls,
        arguments: Mapping[str, Argument],
        attacks: FrozenSet[Tuple[str, str]],
        sub_edges: FrozenSet[Tuple[str, str]],
    ) -> "ArgumentationGraph":
        """The graph with these fields, unchecked; for a builder whose output
        satisfies every check of ``__post_init__`` by construction."""
        graph = object.__new__(cls)
        init = object.__setattr__
        init(graph, "arguments", arguments)
        init(graph, "attacks", attacks)
        init(graph, "sub_edges", sub_edges)
        return graph

    def _check_sub_acyclic(self):
        # peel, from the leaves up, each argument whose subarguments are all
        # peeled (Kahn's algorithm, no recursion); what is left lies on or
        # above a cycle
        pending: Dict[str, int] = {}
        parents: Dict[str, List[str]] = {}
        for b, a in self.sub_edges:
            if b == a:
                raise ValueError(f"reflexive subargument edge on {a}")
            pending[a] = pending.get(a, 0) + 1
            parents.setdefault(b, []).append(a)
        ready = [b for b in parents if b not in pending]
        while ready:
            for a in parents.get(ready.pop(), ()):
                pending[a] -= 1
                if not pending[a]:
                    ready.append(a)
        if any(pending.values()):
            raise ValueError("subargument relation has a cycle")

    @cached_property
    def _ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.arguments))

    def ids(self) -> Tuple[str, ...]:
        """Argument ids in sorted order, the order of every labelling's labels."""
        return self._ids

    @cached_property
    def attackers(self) -> Mapping[str, FrozenSet[str]]:
        """Each argument's attackers, keyed in :meth:`ids` order."""
        attackers: Dict[str, Set[str]] = {a: set() for a in self._ids}
        for attacker, target in self.attacks:
            attackers[target].add(attacker)
        return MappingProxyType({a: frozenset(s) for a, s in attackers.items()})

    def sorted_attacks(self) -> List[Tuple[str, str]]:
        """``sorted(self.attacks)``: the pairs put in their attacker's bucket,
        the buckets walked in :meth:`ids` order, each sorted by target alone,
        so no two pairs are compared as tuples."""
        buckets: Dict[str, List[Tuple[str, str]]] = {a: [] for a in self._ids}
        for pair in self.attacks:
            buckets[pair[0]].append(pair)
        out: List[Tuple[str, str]] = []
        for pairs in buckets.values():
            if pairs:
                pairs.sort(key=_TARGET)
                out += pairs
        return out

    @cached_property
    def _bit(self) -> Dict[str, int]:
        """Each id's bit: ``1 << j`` for ``ids()[j]``."""
        return {a: 1 << j for j, a in enumerate(self._ids)}

    @cached_property
    def attacker_masks(self) -> Tuple[int, ...]:
        """Each argument's attackers as an ``int`` whose bit j stands for ``ids()[j]``,
        aligned to :meth:`ids`."""
        bit = self._bit
        return tuple(sum(bit[b] for b in self.attackers[a]) for a in self._ids)

    @cached_property
    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Positions in :meth:`ids` of each connected component of the attacks
        and sub-edges, ascending, the components ordered by their first position.

        No attack or sub-edge crosses a component.  Each argument with its
        attackers, and each sub-edge's two ends, is a link (:func:`_connected`).
        """
        bit = self._bit
        links = [mask | 1 << j for j, mask in enumerate(self.attacker_masks)]
        links += [bit[b] | bit[a] for b, a in self.sub_edges]
        found = _connected(links)
        found.sort(key=lambda component: component & -component)
        return tuple(tuple(_bits(component)) for component in found)

    @cached_property
    def _piece_in_masks(self) -> Dict[Tuple[bool, int], Tuple[int, ...]]:
        """The labelling search's memo, filled by :func:`semantics.label_rows`:
        for (preferred or not, a piece's mask), the IN-sets of the complete
        (or preferred) labellings of the subgraph on that piece alone."""
        return {}

    def without_sub_edges(self) -> "ArgumentationGraph":
        """Abstract view of the graph, subargument structure dropped; what is
        left of a well-formed graph is well formed, so it is not checked again."""
        return ArgumentationGraph._formed(dict(self.arguments), self.attacks, frozenset())


class ArgLabel(Enum):
    IN = "IN"
    OUT = "OUT"
    UN = "UN"
    ON = "ON"
    OFF = "OFF"

    # members are singletons compared by identity, so the identity hash agrees
    # with equality and costs no Python-level call, unlike ``Enum.__hash__``
    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        return _LABEL_RANK[self]


_LABEL_RANK = {label: rank for rank, label in enumerate(ArgLabel)}  # declaration order


def _rank_key(labels: Iterable[ArgLabel]) -> Tuple[int, ...]:
    """The order of labellings and label rows: label ranks in canonical-id order."""
    return tuple(map(_LABEL_RANK.__getitem__, labels))


class LabelSet(Enum):
    ON_OFF = frozenset({ArgLabel.ON, ArgLabel.OFF})
    IN_OUT_UN = frozenset({ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN})
    IN_OUT_UN_OFF = frozenset({ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN, ArgLabel.OFF})

    @property
    def labels(self) -> FrozenSet[ArgLabel]:
        return self.value


@dataclass(frozen=True, slots=True)
class Labelling:
    """A total assignment of labels to argument ids.

    ``ids`` is the sorted id tuple; every labelling the engine builds holds
    the graph's own ``ids()`` tuple, shared by all of them.  ``labels`` holds
    one label per id, in that order.  Labellings are hashable and key
    probability distributions; the hash is of the labels alone, and equality
    also compares the label set and the ids.
    """

    label_set: LabelSet
    ids: Tuple[str, ...]
    labels: Tuple[ArgLabel, ...]

    def __hash__(self) -> int:
        return hash(self.labels)

    @staticmethod
    def over(
        graph: ArgumentationGraph, label_set: LabelSet, labels: Iterable[ArgLabel]
    ) -> "Labelling":
        """Labelling of every graph argument, ``labels`` given in ``graph.ids()`` order.

        For labels the engine computes itself: they are neither checked against
        the label set nor sorted again.
        """
        ids = graph.ids()
        labels = tuple(labels)
        if len(labels) != len(ids):
            raise ValueError(f"{len(labels)} labels for {len(ids)} arguments")
        return Labelling(label_set, ids, labels)

    @staticmethod
    def from_mapping(label_set: LabelSet, mapping: Mapping[str, ArgLabel]) -> "Labelling":
        """Checked labelling from outside input: labels must lie in the label set."""
        labels = label_set.labels
        for arg_id, label in mapping.items():
            if label not in labels:
                raise ValueError(f"label {label.value} not in label set for {arg_id}")
        ids = tuple(sorted(mapping))
        return Labelling(label_set, ids, tuple(mapping[a] for a in ids))

    @property
    def entries(self) -> Tuple[Tuple[str, ArgLabel], ...]:
        """(id, label) pairs in id order."""
        return tuple(zip(self.ids, self.labels))

    @property
    def mapping(self) -> Dict[str, ArgLabel]:
        return dict(zip(self.ids, self.labels))

    def label(self, arg_id: str) -> ArgLabel:
        try:
            return self.labels[self.ids.index(arg_id)]
        except ValueError:
            raise KeyError(arg_id) from None

    def with_label(self, label: ArgLabel) -> FrozenSet[str]:
        """Ids carrying the given label."""
        return frozenset(a for a, l in zip(self.ids, self.labels) if l is label)

    def sort_key(self) -> Tuple[int, ...]:
        """Deterministic order: label ranks in canonical-id order."""
        return _rank_key(self.labels)

    def __str__(self) -> str:
        body = ", ".join(f"{a}={l.value}" for a, l in zip(self.ids, self.labels))
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
