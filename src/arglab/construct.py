"""Argument construction, attack derivation and graph operations."""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .core import (
    Argument,
    ArgumentationGraph,
    DefeasibleTheory,
    Literal,
    close_conflicts,
)
from .errors import CapExceededError

MAX_ARGUMENTS = 100_000
MAX_SUBTHEORY_RULES = 20


class PreferencePolicy(Enum):
    """How argument preference is read off the superiority relation."""

    LAST_LINK = "last_link"  # A preferred to B iff TopRule(A) > TopRule(B)
    NONE = "none"  # no argument is preferred to any other


def build_arguments(
    theory: DefeasibleTheory, max_args: int = MAX_ARGUMENTS
) -> Dict[str, Argument]:
    """All arguments constructible from the theory, keyed by canonical id.

    An argument applies its top rule to child arguments for the plain body
    literals, in body order.  No rule id may occur twice on a root-to-leaf
    path, which keeps the set finite even for cyclic rule bases; the same rule
    may still appear in sibling subtrees.  Construction recurses once per
    nesting level, so a path deeper than the interpreter's recursion limit
    allows (about 490 rules under the default limit of 1000) raises
    CapExceededError.
    """
    by_head: Dict[Literal, List] = {}
    for rid in sorted(theory.rules):
        rule = theory.rules[rid]
        by_head.setdefault(rule.head, []).append(rule)

    found: Dict[str, Argument] = {}

    def record(arg: Argument) -> Argument:
        if arg.canonical_id not in found:
            if len(found) >= max_args:
                raise CapExceededError(
                    f"more than {max_args} arguments; raise the cap to continue"
                )
            found[arg.canonical_id] = arg
        return found[arg.canonical_id]

    def args_for(literal: Literal, forbidden: FrozenSet[str]) -> List[Argument]:
        out: List[Argument] = []
        for rule in by_head.get(literal, ()):
            if rule.id in forbidden:
                continue
            blocked = forbidden | {rule.id}
            try:
                child_choices = [args_for(b, blocked) for b in rule.body_plain]
            except RecursionError:
                raise CapExceededError(
                    f"arguments nest more than {len(blocked)} rule applications deep,"
                    " beyond the recursion limit"
                ) from None
            for combo in itertools.product(*child_choices):
                out.append(record(Argument(rule.id, rule.head, combo, rule.body_naf)))
        return out

    for head in sorted(by_head, key=str):
        args_for(head, frozenset())
    return found


def derive_attacks(
    theory: DefeasibleTheory,
    arguments: Dict[str, Argument],
    policy: PreferencePolicy = PreferencePolicy.LAST_LINK,
) -> FrozenSet[Tuple[str, str]]:
    """Attack pairs (attacker id, target id), attackers drawn from ``arguments``.

    B attacks A when B rebuts or undercuts some subargument A' of A:

    * rebut: conc(B) conflicts with conc(A') and A' is not preferred to B;
    * undercut: conc(B) is a naf premise of A's subargument's top rule
      (preference plays no role).

    So A's attackers are the direct attackers of its own top inference plus
    the attackers of its direct subarguments.  Direct attackers are looked up
    by conclusion, the attacker sets are propagated up the argument trees and
    memoised per canonical id, and subarguments missing from ``arguments``
    are walked all the same.
    """
    rebutting: Dict[Literal, List[Literal]] = {}
    for attacking, attacked in close_conflicts(theory):
        rebutting.setdefault(attacked, []).append(attacking)
    by_conclusion: Dict[Literal, List[Argument]] = {}
    for arg in arguments.values():
        by_conclusion.setdefault(arg.conclusion, []).append(arg)

    def preferred(x: Argument, y: Argument) -> bool:
        if policy is PreferencePolicy.NONE:
            return False
        return (x.top_rule, y.top_rule) in theory.superiority

    memo: Dict[str, FrozenSet[str]] = {}

    def attackers(arg: Argument) -> FrozenSet[str]:
        found = memo.get(arg.canonical_id)
        if found is None:
            direct = {
                b.canonical_id
                for premise in arg.naf_premises
                for b in by_conclusion.get(premise, ())
            }
            for literal in rebutting.get(arg.conclusion, ()):
                for b in by_conclusion.get(literal, ()):
                    if not preferred(arg, b):
                        direct.add(b.canonical_id)
            for child in arg.direct_subs:
                direct |= attackers(child)
            found = memo[arg.canonical_id] = frozenset(direct)
        return found

    return frozenset(
        (b, target.canonical_id)
        for target in arguments.values()
        for b in attackers(target)
    )


def build_graph(
    theory: DefeasibleTheory,
    policy: PreferencePolicy = PreferencePolicy.LAST_LINK,
    max_args: int = MAX_ARGUMENTS,
) -> ArgumentationGraph:
    arguments = build_arguments(theory, max_args=max_args)
    attacks = derive_attacks(theory, arguments, policy=policy)
    sub_edges = frozenset(
        (child.canonical_id, arg.canonical_id)
        for arg in arguments.values()
        for child in arg.direct_subs
    )
    return ArgumentationGraph(arguments, attacks, sub_edges)


def induced_subgraph(graph: ArgumentationGraph, ids: Iterable[str]) -> ArgumentationGraph:
    """The graph restricted to ``ids``; arguments keep the parent's sorted order."""
    keep = set(ids)
    unknown = keep - graph.arguments.keys()
    if unknown:
        raise ValueError(f"unknown argument ids: {sorted(unknown)}")
    kept = [i for i in graph.ids() if i in keep]
    return ArgumentationGraph(
        arguments={i: graph.arguments[i] for i in kept},
        attacks=frozenset((b, a) for a in kept for b in graph.attackers[a] if b in keep),
        sub_edges=frozenset(
            (b, a) for (b, a) in graph.sub_edges if b in keep and a in keep
        ),
    )


def is_subargument_complete(graph: ArgumentationGraph, ids: Iterable[str]) -> bool:
    """Every direct subargument of a member is a member."""
    keep = set(ids)
    return all(b in keep for (b, a) in graph.sub_edges if a in keep)


def is_rule_complete(graph: ArgumentationGraph, ids: Iterable[str]) -> bool:
    """Closure under rule application within the set's own rules.

    If all direct subarguments of some graph argument B are members, and B's
    top rule is used by some member, then B must be a member too.
    """
    keep = set(ids)
    member_rules: Set[str] = set()
    for i in keep:
        member_rules |= graph.arguments[i].rules()
    for b in graph.arguments.values():
        if b.canonical_id in keep:
            continue
        if b.top_rule not in member_rules:
            continue
        if all(c.canonical_id in keep for c in b.direct_subs):
            return False
    return True


def is_legal(graph: ArgumentationGraph, ids: Iterable[str]) -> bool:
    ids = set(ids)
    return is_subargument_complete(graph, ids) and is_rule_complete(graph, ids)


def to_dot(graph: ArgumentationGraph) -> str:
    """Graphviz rendering; attacks are solid arrows, subargument edges dashed."""
    lines = ["digraph arguments {"]
    for i in graph.ids():
        lines.append(f'  "{i}";')
    for b, a in sorted(graph.attacks):
        lines.append(f'  "{b}" -> "{a}";')
    for b, a in sorted(graph.sub_edges):
        lines.append(f'  "{b}" -> "{a}" [style=dashed, label="sub"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
