"""Labelling enumeration over argumentation graphs.

Three labelling families are supported:

* {ON, OFF} labellings of subgraph membership, filtered by a structural
  criterion (all subsets, subargument-complete, rule-complete, or legal);
* {IN, OUT, UN} labellings under the conflict-free, complete, grounded,
  preferred or stable semantics;
* combined {IN, OUT, UN, OFF} labellings: a semantics labelling of some
  subargument-complete subgraph, OFF everywhere else.

Complete, preferred and stable labellings are found by a backtracking search
over the arguments the grounded labelling leaves UN, since every complete
labelling agrees with the grounded one on its IN and OUT arguments; preferred
ones are the complete ones with a maximal IN-set, stable ones those with
nothing UN.  Every other family is enumerated exhaustively: 2^n subsets or
3^n assignments for n arguments.  Every enumeration is capped at
MAX_ENUM_ARGUMENTS arguments and is deterministic: results are sorted by the
label sequence in canonical-id order with IN < OUT < UN < ON < OFF.

Every step reads the index the graph keeps from its validation:
``graph.attackers`` for the attackers of each argument and ``graph.ids()``
for the sorted id order.  Labellings are built with :meth:`Labelling.over`,
their labels listed in that order, so none is sorted or checked again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .core import ArgLabel, ArgumentationGraph, Labelling, LabelSet
from .construct import induced_subgraph, is_legal, is_rule_complete, is_subargument_complete
from .errors import CapExceededError

MAX_ENUM_ARGUMENTS = 16


class Semantics(Enum):
    CF = "cf"
    COMPLETE = "complete"
    GROUNDED = "grounded"
    PREFERRED = "preferred"
    STABLE = "stable"


class OnOffCriterion(Enum):
    ALL = "all"
    SUBARG_COMPLETE = "subarg_complete"
    RULE_COMPLETE = "rule_complete"
    LEGAL = "legal"


@dataclass(frozen=True)
class LabellingSpec:
    """What counts as a labelling.

    For {ON, OFF} the ``criterion`` applies and ``semantics`` must be unset.
    For {IN, OUT, UN} and {IN, OUT, UN, OFF} the ``semantics`` applies; a
    missing semantics means every total assignment is admitted (useful for
    epistemic distributions).  ``legal_only`` restricts the subgraphs visited
    by combined {IN, OUT, UN, OFF} labellings from subargument-complete to
    legal ones.
    """

    label_set: LabelSet
    semantics: Optional[Semantics] = None
    criterion: OnOffCriterion = OnOffCriterion.ALL
    legal_only: bool = False

    def __post_init__(self):
        if self.label_set is LabelSet.ON_OFF and self.semantics is not None:
            raise ValueError("{ON,OFF} specs take a criterion, not a semantics")
        if self.label_set is not LabelSet.ON_OFF and self.criterion is not OnOffCriterion.ALL:
            raise ValueError("structural criteria only apply to {ON,OFF} specs")


def _grounded_sets(graph: ArgumentationGraph) -> Tuple[Set[str], Set[str]]:
    """IN and OUT sets of the grounded labelling, by least fixpoint."""
    att = graph.attackers
    in_set: Set[str] = set()
    out_set: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for a in graph.ids():
            if a in in_set or a in out_set:
                continue
            if att[a] <= out_set:
                in_set.add(a)
                changed = True
            elif att[a] & in_set:
                out_set.add(a)
                changed = True
    return in_set, out_set


def grounded_labelling(graph: ArgumentationGraph) -> Labelling:
    """Least fixpoint computation of the unique grounded labelling."""
    return _labelling_from_in_set(graph, frozenset(_grounded_sets(graph)[0]))


def _complete_in_sets(graph: ArgumentationGraph) -> List[FrozenSet[str]]:
    """IN-sets of complete labellings, ordered as the bit vectors over sorted ids.

    A complete labelling is determined by its IN-set: the OUT-set is exactly
    the set of arguments with an attacker in it, and the IN-set must be
    conflict-free and equal the set of arguments whose attackers are all OUT.
    Every complete labelling extends the grounded one, so the search only
    decides the grounded-UN arguments, in sorted order: each is first left
    out, then put in unless that puts it IN with an attacker.  A leaf's
    IN-set is grounded IN plus the chosen set S.  The condition holds on the
    grounded IN and OUT arguments for every such S (grounded UN arguments
    neither attack grounded IN ones nor are attacked by them), so it is
    tested on the grounded-UN arguments only.
    """
    att = graph.attackers
    g_in, g_out = _grounded_sets(graph)
    undecided = [a for a in graph.ids() if a not in g_in and a not in g_out]
    targets: Dict[str, Set[str]] = {a: set() for a in undecided}
    for b, a in graph.attacks:
        if b in targets:
            targets[b].add(a)
    out: List[FrozenSet[str]] = []
    chosen: Set[str] = set()

    def is_complete() -> bool:
        out_set = g_out | {a for a in undecided if att[a] & chosen}
        if chosen & out_set:
            return False
        return all((a in chosen) == (att[a] <= out_set) for a in undecided)

    def search(i: int) -> None:
        if i == len(undecided):
            if is_complete():
                out.append(frozenset(g_in | chosen))
            return
        search(i + 1)
        a = undecided[i]
        if a not in att[a] and not (att[a] & chosen or targets[a] & chosen):
            chosen.add(a)
            search(i + 1)
            chosen.remove(a)

    search(0)
    return out


def _maximal(sets: List[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """The sets with no strict superset among ``sets``, largest first.

    Visited largest first, a set is maximal unless it lies strictly inside
    one of the maximal sets already kept.
    """
    kept: List[FrozenSet[str]] = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s < t for t in kept):
            kept.append(s)
    return kept


def _labelling_from_in_set(graph: ArgumentationGraph, s: FrozenSet[str]) -> Labelling:
    att = graph.attackers
    labels = (
        ArgLabel.IN if a in s else ArgLabel.OUT if att[a] & s else ArgLabel.UN
        for a in graph.ids()
    )
    return Labelling.over(graph, LabelSet.IN_OUT_UN, labels)


def _cf_labellings(graph: ArgumentationGraph) -> List[Labelling]:
    """Conflict-free labellings: no IN argument has an IN attacker, and every
    OUT argument has at least one IN attacker."""
    ids = graph.ids()
    att = graph.attackers
    out: List[Labelling] = []
    for s in _subsets(ids):
        if any(att[a] & s for a in s):
            continue
        choices = [
            (ArgLabel.IN,) if a in s
            else (ArgLabel.OUT, ArgLabel.UN) if att[a] & s
            else (ArgLabel.UN,)
            for a in ids
        ]
        for combo in itertools.product(*choices):
            out.append(Labelling.over(graph, LabelSet.IN_OUT_UN, combo))
    return out


def _semantics_labellings(graph: ArgumentationGraph, semantics: Semantics) -> List[Labelling]:
    if semantics is Semantics.CF:
        return _cf_labellings(graph)
    if semantics is Semantics.GROUNDED:
        return [grounded_labelling(graph)]
    att = graph.attackers
    in_sets = _complete_in_sets(graph)
    if semantics is Semantics.PREFERRED:
        in_sets = _maximal(in_sets)
    elif semantics is Semantics.STABLE:  # nothing left UN
        in_sets = [s for s in in_sets if all(a in s or att[a] & s for a in graph.ids())]
    return [_labelling_from_in_set(graph, s) for s in in_sets]


def _subsets(ids: Sequence[str]) -> Iterator[FrozenSet[str]]:
    for bits in itertools.product((False, True), repeat=len(ids)):
        yield frozenset(a for a, b in zip(ids, bits) if b)


def check_cap(graph: ArgumentationGraph, max_args: int) -> None:
    """Raise CapExceededError when the graph has more than ``max_args`` arguments."""
    if len(graph.arguments) > max_args:
        raise CapExceededError(
            f"{len(graph.arguments)} arguments exceeds the enumeration cap of {max_args}"
        )


_CRITERION_TESTS = {
    OnOffCriterion.ALL: lambda g, s: True,
    OnOffCriterion.SUBARG_COMPLETE: is_subargument_complete,
    OnOffCriterion.RULE_COMPLETE: is_rule_complete,
    OnOffCriterion.LEGAL: is_legal,
}


def labellings(
    graph: ArgumentationGraph,
    spec: LabellingSpec,
    max_args: int = MAX_ENUM_ARGUMENTS,
) -> List[Labelling]:
    """All labellings the given LabellingSpec admits, in deterministic order."""
    check_cap(graph, max_args)
    ids = graph.ids()
    result: List[Labelling] = []

    if spec.label_set is LabelSet.ON_OFF:
        admit = _CRITERION_TESTS[spec.criterion]
        for s in _subsets(ids):
            if admit(graph, s):
                labels = (ArgLabel.ON if a in s else ArgLabel.OFF for a in ids)
                result.append(Labelling.over(graph, LabelSet.ON_OFF, labels))

    elif spec.label_set is LabelSet.IN_OUT_UN:
        if spec.semantics is None:
            labels = (ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN)
            for combo in itertools.product(labels, repeat=len(ids)):
                result.append(Labelling.over(graph, LabelSet.IN_OUT_UN, combo))
        else:
            result = _semantics_labellings(graph, spec.semantics)

    else:  # IN_OUT_UN_OFF: combined labellings over admissible subgraphs
        if spec.semantics is None:
            raise ValueError("combined {IN,OUT,UN,OFF} labellings need a semantics")
        admit = is_legal if spec.legal_only else is_subargument_complete
        for s in _subsets(ids):
            if not admit(graph, s):
                continue
            sub = induced_subgraph(graph, s)
            for inner in _semantics_labellings(sub, spec.semantics):
                result.append(combine_with_off(graph, inner))

    return sorted(result, key=Labelling.sort_key)


def combine_with_off(graph: ArgumentationGraph, inner: Labelling) -> Labelling:
    """Extend a subgraph labelling to the whole graph with OFF outside."""
    mapping = inner.mapping
    labels = (mapping.get(a, ArgLabel.OFF) for a in graph.ids())
    return Labelling.over(graph, LabelSet.IN_OUT_UN_OFF, labels)
