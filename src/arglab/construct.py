"""Argument construction, attack derivation and graph operations."""

from __future__ import annotations

import itertools
import sys
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .core import (
    Argument,
    ArgumentationGraph,
    DefeasibleTheory,
    Literal,
    Rule,
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
    may still appear in sibling subtrees.

    The walk from a literal under a set of forbidden rule ids is memoised by
    the literal and the part of that set that can occur below it (the rule ids
    reachable from the literal through rule bodies), since nothing else can
    change its result; an acyclic theory walks each literal once.  An
    argument's id is formed from its rule and its children's ids, and the
    argument is built under that id only when the id is new.  Arguments are keyed in the
    order they are first found, children before their parents.

    Deep nesting is refused with CapExceededError, so that this walk and the
    recursive walks over an argument's subarguments (``Argument.subarguments``)
    stay clear of the recursion limit: an argument nesting more than half the
    interpreter's recursion limit of rule applications (500 under the default
    limit of 1000), or a walk recursing that deep, whichever comes first.
    """
    builder = _ArgumentBuilder(theory, max_args, sys.getrecursionlimit() // 2)
    for head in range(len(builder.rules)):
        builder.args_for(head, frozenset())
    return builder.found


_HeadRules = List[List[Tuple[Rule, Tuple[int, ...]]]]
# the arguments for a head under some forbidden rules, their ids, and the
# deepest nesting among them
_Built = Tuple[Tuple[Argument, ...], Tuple[str, ...], int]
_NO_ARGUMENTS: _Built = ((), (), 0)


def _rules_below(rules: _HeadRules) -> List[FrozenSet[str]]:
    """For each head, the ids of the rules that can occur in its arguments."""
    below = [{rule.id for rule, _ in entries} for entries in rules]
    bodies = [{j for _, body in entries for j in body if j >= 0} for entries in rules]
    changed = True
    while changed:
        changed = False
        for reached, under in zip(below, bodies):
            size = len(reached)
            for j in under:
                reached |= below[j]
            changed |= len(reached) != size
    return [frozenset(reached) for reached in below]


class _ArgumentBuilder:
    """The walk behind :func:`build_arguments`.  A class rather than a
    recursive closure, which would reach itself through its own cell and
    leave a reference cycle behind every build."""

    def __init__(self, theory: DefeasibleTheory, max_args: int, max_depth: int):
        by_head: Dict[Literal, List[Rule]] = {}
        for rid in sorted(theory.rules):
            rule = theory.rules[rid]
            by_head.setdefault(rule.head, []).append(rule)
        heads = sorted(by_head, key=str)
        position = {head: i for i, head in enumerate(heads)}
        # the heads in walk order, each with its rules in id order and their
        # plain bodies as head positions; -1 stands for a literal no rule
        # concludes
        self.rules: _HeadRules = [
            [(rule, tuple([position.get(b, -1) for b in rule.body_plain]))
             for rule in by_head[head]]
            for head in heads
        ]
        self.below = _rules_below(self.rules)
        self.max_args = max_args
        self.max_depth = max_depth
        self.found: Dict[str, Argument] = {}
        self.memo: Dict[Tuple[int, FrozenSet[str]], _Built] = {}

    def args_for(self, head: int, forbidden: FrozenSet[str]) -> _Built:
        """The arguments for the head at position ``head`` using no rule in
        ``forbidden``, their ids, and the deepest nesting among them (0 when
        there are none)."""
        if head < 0:
            return _NO_ARGUMENTS
        key = (head, forbidden & self.below[head])
        result = self.memo.get(key)
        if result is not None:
            return result
        if len(forbidden) >= self.max_depth:
            raise self._too_deep()
        found = self.found
        max_args = self.max_args
        formed = Argument._formed
        out: List[Argument] = []
        out_ids: List[str] = []
        deepest = 0
        for rule, body in self.rules[head]:
            if rule.id in forbidden:
                continue
            blocked = forbidden | {rule.id}
            child_args = []
            child_ids = []
            depth = 1
            for j in body:
                args, ids, below = self.args_for(j, blocked)
                child_args.append(args)
                child_ids.append(ids)
                depth = max(depth, below + 1)
            if not all(child_args):
                continue
            if depth > self.max_depth:
                raise self._too_deep()
            deepest = max(deepest, depth)
            cids = map((rule.id + "({})").format, map(",".join, itertools.product(*child_ids)))
            for combo, cid in zip(itertools.product(*child_args), cids):
                arg = found.get(cid)
                if arg is None:
                    if len(found) >= max_args:
                        raise CapExceededError(
                            f"more than {max_args} arguments; raise the cap to continue"
                        )
                    arg = found[cid] = formed(rule.id, rule.head, combo, rule.body_naf, cid)
                out.append(arg)
                out_ids.append(cid)
        result = self.memo[key] = (tuple(out), tuple(out_ids), deepest)
        return result

    def _too_deep(self) -> CapExceededError:
        return CapExceededError(
            f"arguments nest more than {self.max_depth} rule applications deep,"
            " beyond the recursion limit"
        )


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
    the attackers of its direct subarguments.  Direct attackers depend only on
    the top rule, the conclusion and the naf premises: they are looked up by
    conclusion once per distinct (top rule, conclusion, naf premises), not
    once per argument.  Attacker
    sets are memoised per canonical id and built children first: in the order
    of ``arguments`` when each argument's subarguments come before it, as
    :func:`build_arguments` yields them, and otherwise by walking the missing
    subarguments, whether they are in ``arguments`` or not.
    """
    rebutting: Dict[Literal, List[Literal]] = {}
    for attacking, attacked in close_conflicts(theory):
        rebutting.setdefault(attacked, []).append(attacking)
    # literals as (atom, negated) pairs, which hash in C, unlike a Literal
    by_conclusion: Dict[Tuple[str, bool], List[Argument]] = {}
    for arg in arguments.values():
        by_conclusion.setdefault((arg.conclusion.atom, arg.conclusion.negated), []).append(arg)
    blocking = theory.superiority if policy is PreferencePolicy.LAST_LINK else frozenset()
    direct_memo: Dict[Tuple[str, str, bool, FrozenSet[Literal]], FrozenSet[str]] = {}

    def direct(arg: Argument) -> FrozenSet[str]:
        """The direct attackers of ``arg``'s top inference."""
        conclusion = arg.conclusion
        key = (arg.top_rule, conclusion.atom, conclusion.negated, arg.naf_premises)
        out = direct_memo.get(key)
        if out is None:
            found = {
                b.canonical_id
                for premise in arg.naf_premises
                for b in by_conclusion.get((premise.atom, premise.negated), ())
            }
            for literal in rebutting.get(conclusion, ()):
                for b in by_conclusion.get((literal.atom, literal.negated), ()):
                    if (arg.top_rule, b.top_rule) not in blocking:
                        found.add(b.canonical_id)
            out = direct_memo[key] = frozenset(found)
        return out

    memo: Dict[str, FrozenSet[str]] = {}

    def walk(target: Argument) -> None:
        # children before parents, on an explicit stack: no recursion to run
        # out of, and no recursive closure to leave a reference cycle behind
        stack = [target]
        while stack:
            arg = stack[-1]
            if arg.canonical_id in memo:
                stack.pop()
                continue
            pending = [c for c in arg.direct_subs if c.canonical_id not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            found = direct(arg)
            for child in arg.direct_subs:
                found = found | memo[child.canonical_id]
            memo[arg.canonical_id] = found

    targets = []
    for target in arguments.values():
        cid = target.canonical_id
        targets.append(cid)
        found = direct(target)
        for child in target.direct_subs:
            below = memo.get(child.canonical_id)
            if below is None:  # a subargument not met yet
                walk(target)
                break
            found = found | below
        else:
            memo[cid] = found
    pairs = map(zip, map(memo.__getitem__, targets), map(itertools.repeat, targets))
    return frozenset(itertools.chain.from_iterable(pairs))


def build_graph(
    theory: DefeasibleTheory,
    policy: PreferencePolicy = PreferencePolicy.LAST_LINK,
    max_args: int = MAX_ARGUMENTS,
) -> ArgumentationGraph:
    """The theory's argument graph under ``policy``, handed over unchecked.

    It needs none of the constructor's checks, which hold by construction:
    every attack and sub-edge joins two of the built arguments;
    :func:`build_arguments` forms each argument from children found before
    it, so no argument is its own subargument, directly or through others;
    and :func:`derive_attacks` gives each argument its children's attackers,
    so an attack on a subargument extends to each parent.
    """
    arguments = build_arguments(theory, max_args=max_args)
    attacks = derive_attacks(theory, arguments, policy=policy)
    # one pair per edge from a list comprehension: most arguments have one
    # child, so a zip and a repeat per argument would cost more than they save
    sub_edges = frozenset(
        [(child.canonical_id, a) for a, arg in arguments.items() for child in arg.direct_subs]
    )
    return ArgumentationGraph._formed(arguments, attacks, sub_edges)


def induced_subgraph(graph: ArgumentationGraph, ids: Iterable[str]) -> ArgumentationGraph:
    """The graph restricted to ``ids``; arguments keep the parent's sorted order.

    The restriction of a well-formed graph is well formed, so it is handed
    over unchecked; only the ids are checked.
    """
    keep = set(ids)
    unknown = keep - graph.arguments.keys()
    if unknown:
        raise ValueError(f"unknown argument ids: {sorted(unknown)}")
    kept = [i for i in graph.ids() if i in keep]
    return ArgumentationGraph._formed(
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
    for b, a in graph.sorted_attacks():
        lines.append(f'  "{b}" -> "{a}";')
    for b, a in sorted(graph.sub_edges):
        lines.append(f'  "{b}" -> "{a}" [style=dashed, label="sub"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
