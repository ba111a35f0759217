"""Labelling enumeration over argumentation graphs.

Three labelling families are supported:

* {ON, OFF} labellings of subgraph membership, filtered by a structural
  criterion (all subsets, subargument-complete, rule-complete, or legal);
* {IN, OUT, UN} labellings under the conflict-free, complete, grounded,
  preferred or stable semantics;
* combined {IN, OUT, UN, OFF} labellings: a semantics labelling of some
  subargument-complete subgraph, OFF everywhere else.

The grounded labelling is a least fixpoint.  Every other semantics reads
one backtracking search for conflict-free IN-sets: conflict-free labellings
over all present arguments, complete, preferred and stable ones over the
arguments the grounded labelling leaves UN, since every complete labelling
agrees with the grounded one on its IN and OUT arguments; preferred ones are
the complete ones with a maximal IN-set, stable ones those with nothing UN.
Those grounded-UN arguments are searched piece by piece, each connected piece
of the attacks among them once per graph (see :func:`label_rows`).
{ON, OFF} labellings, the subgraphs of combined labellings and {IN, OUT, UN}
assignments without a semantics are enumerated exhaustively: 2^n subsets or
3^n assignments for n arguments.  Every enumeration is capped at
MAX_ENUM_ARGUMENTS arguments and is deterministic: results are sorted by the
label sequence in canonical-id order with IN < OUT < UN < ON < OFF.

Every step reads the graph's attacker index, built once per graph, as
bitmasks: ``graph.attacker_masks`` holds the attackers of each argument,
bit j standing for ``graph.ids()[j]``, and the IN, OUT and absent sets of a
search are ``int`` masks over the same positions.  One function,
:func:`label_rows`, runs the search for a subgraph and returns its label
rows at given positions, sorted.  :func:`grounded_labelling` and
:func:`subgraph_labellings` build a labelling from each of its rows at every
position, with :meth:`Labelling.over`; :func:`labellings` holds the rows of
every branch first, sorts them once and builds each labelling once.  So none
is sorted or checked again.  A labelling frame asks :func:`label_rows` for
the rows of each part at its component's positions alone, and builds none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Collection, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import ArgLabel, ArgumentationGraph, Labelling, LabelSet, _bits, _connected, _rank_key
from .construct import is_legal, is_rule_complete, is_subargument_complete
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
        if self.legal_only and self.label_set is not LabelSet.IN_OUT_UN_OFF:
            raise ValueError("legal_only only applies to {IN,OUT,UN,OFF} specs")


Labels = Tuple[ArgLabel, ...]  # one label per argument, in ``graph.ids()`` order


def _grounded_masks(att: Sequence[int], absent: int) -> Tuple[int, int]:
    """IN and OUT masks of the grounded labelling, by least fixpoint; OUT starts as ``absent``.

    ``att`` holds each argument's attackers as a bitmask (``graph.attacker_masks``).
    """
    in_set = 0
    out_set = absent
    undecided = _bits(((1 << len(att)) - 1) & ~absent)
    changed = True
    while changed:
        changed = False
        still = []
        for i in undecided:
            a = att[i]
            if not a & ~out_set:
                in_set |= 1 << i
                changed = True
            elif a & in_set:
                out_set |= 1 << i
                changed = True
            else:
                still.append(i)
        undecided = still
    return in_set, out_set


def grounded_labelling(graph: ArgumentationGraph) -> Labelling:
    """Least fixpoint computation of the unique grounded labelling."""
    every = range(len(graph.ids()))
    labels = label_rows(graph, (1 << len(every)) - 1, Semantics.GROUNDED, every)[0]
    return Labelling.over(graph, LabelSet.IN_OUT_UN, labels)


def _conflict_free_masks(att: Sequence[int], positions: Sequence[int]) -> List[int]:
    """Every conflict-free subset of ``positions`` as a bitmask, by backtracking.

    The positions are decided in the order given: each is first left out,
    then put in unless that puts it IN with an attacker (itself included).
    The subsets come out in that visiting order, which for ascending
    ``positions`` is the order of the bit vectors over them.  The search runs
    on an explicit stack, the put-in branch pushed below the left-out one, so
    it leaves no recursive closure, and no reference cycle, behind.
    """
    out: List[int] = []
    n = len(positions)
    # (positions decided, chosen mask, union of the chosen arguments' attackers)
    stack = [(0, 0, 0)]
    while stack:
        k, chosen, hit = stack.pop()
        if k == n:
            out.append(chosen)
            continue
        i = positions[k]
        bit = 1 << i
        if not (att[i] & (chosen | bit) or hit & bit):
            stack.append((k + 1, chosen | bit, hit | att[i]))
        stack.append((k + 1, chosen, hit))
    return out


def _complete_in_masks(att: Sequence[int], absent: int) -> List[int]:
    """IN-sets of complete labellings as bitmasks, ordered as the bit vectors over sorted ids.

    A complete labelling is determined by its IN-set: the OUT-set is exactly
    the set of arguments with an attacker in it, and the IN-set must be
    conflict-free and equal the set of arguments whose attackers are all OUT.
    Every complete labelling extends the grounded one, so only the conflict-free
    subsets S of the grounded-UN arguments are tried.  A candidate IN-set is
    grounded IN plus S.  The condition holds on the grounded IN and OUT
    arguments for every such S (grounded UN arguments neither attack grounded
    IN ones nor are attacked by them), so it is tested on the grounded-UN
    arguments only.  Absent arguments are grounded OUT.
    """
    g_in, g_out = _grounded_masks(att, absent)
    undecided = _bits(((1 << len(att)) - 1) & ~(g_in | g_out))

    def is_complete(chosen: int) -> bool:
        out_set = g_out
        for i in undecided:
            if att[i] & chosen:
                out_set |= 1 << i
        if chosen & out_set:
            return False
        # the undecided arguments whose attackers are all OUT must be exactly the chosen ones
        not_out = ~out_set
        accepted = 0
        for i in undecided:
            if not att[i] & not_out:
                accepted |= 1 << i
        return accepted == chosen

    return [g_in | s for s in _conflict_free_masks(att, undecided) if is_complete(s)]


def _maximal(sets: List[int]) -> List[int]:
    """The bitmasks with no strict superset among ``sets``, largest first.

    Visited largest first, a set is maximal unless it lies strictly inside
    one of the maximal sets already kept.
    """
    kept: List[int] = []
    for s in sorted(sets, key=int.bit_count, reverse=True):
        if not any(s & t == s and s != t for t in kept):
            kept.append(s)
    return kept


_IN, _OUT, _UN, _ON, _OFF = ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN, ArgLabel.ON, ArgLabel.OFF


def _in_set_labels(att: Sequence[int], s: int, absent: int, positions: Iterable[int]) -> Labels:
    """The labels at ``positions`` of the IN-set ``s``: its attacked arguments OUT."""
    return tuple(
        _OFF if absent >> i & 1
        else _IN if s >> i & 1 else _OUT if att[i] & s else _UN
        for i in positions
    )


def _cf_labels(att: Sequence[int], absent: int, positions: Sequence[int]) -> List[Labels]:
    """Conflict-free labellings at ``positions``: no IN argument has an IN
    attacker, and every OUT argument has at least one IN attacker.  Each
    conflict-free IN-set leaves OUT or UN free on the arguments it attacks."""
    out: List[Labels] = []
    for s in _conflict_free_masks(att, _bits(((1 << len(att)) - 1) & ~absent)):
        choices = [
            (_OFF,) if absent >> i & 1
            else (_IN,) if s >> i & 1
            else (_OUT, _UN) if att[i] & s
            else (_UN,)
            for i in positions
        ]
        out.extend(itertools.product(*choices))
    return out


def label_rows(
    graph: ArgumentationGraph, present: int, semantics: Semantics, positions: Sequence[int]
) -> List[Labels]:
    """Semantics labels of the subgraph on ``present`` (a bitmask over
    ``graph.ids()``), OFF outside it, each row the labels at ``positions``.

    Every present argument must lie at ``positions``, ascending: the rows are
    then the subgraph's labellings cut to those positions, one row each, in
    the order of :meth:`Labelling.sort_key`.  No cap is checked.

    Complete, preferred and stable rows are searched piece by piece.  The
    arguments the grounded labelling leaves UN split into connected pieces of
    the attacks among them.  A grounded-UN argument is attacked only by
    grounded-OUT, absent or grounded-UN arguments, and the grounded-UN ones
    lie in its own piece; so each piece's labels depend on that piece alone,
    whatever else is present.  The complete IN-sets are then grounded IN
    joined with one complete IN-set of each piece labelled alone, every
    combination once, and the preferred ones are those joined from each
    piece's maximal sets.  Each piece's sets are searched once per graph
    and semantics, kept in ``graph._piece_in_masks``, and shared by every
    subgraph whose search meets the same piece.
    """
    att = graph.attacker_masks
    full = (1 << len(att)) - 1
    absent = full ^ present
    if semantics is Semantics.CF:
        return sorted(_cf_labels(att, absent, positions), key=_rank_key)
    g_in, g_out = _grounded_masks(att, absent)
    if semantics is Semantics.GROUNDED:
        return [_in_set_labels(att, g_in, absent, positions)]
    preferred = semantics is Semantics.PREFERRED
    memo = graph._piece_in_masks
    undecided = full & ~(g_in | g_out)
    in_sets = [g_in]
    for piece in _connected(att[i] & undecided | 1 << i for i in _bits(undecided)):
        key = (preferred, piece)
        choices = memo.get(key)
        if choices is None:
            choices = _complete_in_masks(att, full ^ piece)
            memo[key] = choices = tuple(_maximal(choices) if preferred else choices)
        in_sets = [s | t for s in in_sets for t in choices]
    rows = [_in_set_labels(att, s, absent, positions) for s in in_sets]
    if semantics is Semantics.STABLE:  # nothing left UN
        rows = [row for row in rows if _UN not in row]
    return sorted(rows, key=_rank_key)


def _subsets(ids: Sequence[str]) -> Iterator[FrozenSet[str]]:
    for bits in itertools.product((False, True), repeat=len(ids)):
        yield frozenset(a for a, b in zip(ids, bits) if b)


def check_cap(n: int, max_args: int) -> None:
    """Raise CapExceededError when ``n`` arguments are more than ``max_args``."""
    if n > max_args:
        raise CapExceededError(f"{n} arguments exceeds the enumeration cap of {max_args}")


_CRITERION_TESTS = {
    OnOffCriterion.ALL: lambda g, s: True,
    OnOffCriterion.SUBARG_COMPLETE: is_subargument_complete,
    OnOffCriterion.RULE_COMPLETE: is_rule_complete,
    OnOffCriterion.LEGAL: is_legal,
}


def subgraph_labellings(
    graph: ArgumentationGraph, subset: Collection[str], semantics: Semantics, max_args: int
) -> List[Labelling]:
    """Semantics labellings of the subgraph on ``subset``, OFF outside it, sorted.

    Labelled in place on ``graph``'s index: an absent attacker counts as OUT,
    so "all attackers OUT" is ``att[a] <= OUT | absent``, and every other test
    meets ``att[a]`` with an IN set inside ``subset``.  The cap applies to
    ``len(subset)``; ids outside the graph are ignored.  The labellings are
    :func:`label_rows` at every position.
    """
    check_cap(len(subset), max_args)
    bit = graph._bit
    present = sum(map(bit.__getitem__, bit.keys() & subset))
    rows = label_rows(graph, present, semantics, range(len(bit)))
    return [Labelling.over(graph, LabelSet.IN_OUT_UN_OFF, row) for row in rows]


def labellings(
    graph: ArgumentationGraph,
    spec: LabellingSpec,
    max_args: int = MAX_ENUM_ARGUMENTS,
) -> List[Labelling]:
    """All labellings the given LabellingSpec admits, in deterministic order.

    Each branch yields label rows over ``graph.ids()``, a combined spec those
    of :func:`label_rows` for each admitted subgraph; the rows are sorted once
    and each becomes one labelling.  Only the whole graph's cap is checked.
    """
    check_cap(len(graph.arguments), max_args)
    ids = graph.ids()
    every = range(len(ids))

    if spec.label_set is LabelSet.ON_OFF:
        admit = _CRITERION_TESTS[spec.criterion]
        rows = (
            tuple(_ON if a in s else _OFF for a in ids) for s in _subsets(ids) if admit(graph, s)
        )

    elif spec.label_set is LabelSet.IN_OUT_UN:
        if spec.semantics is None:
            rows = itertools.product((_IN, _OUT, _UN), repeat=len(ids))
        else:
            rows = label_rows(graph, (1 << len(ids)) - 1, spec.semantics, every)

    else:  # IN_OUT_UN_OFF: combined labellings over admissible subgraphs
        if spec.semantics is None:
            raise ValueError("combined {IN,OUT,UN,OFF} labellings need a semantics")
        admit = is_legal if spec.legal_only else is_subargument_complete
        bit = graph._bit
        rows = (
            row for s in _subsets(ids) if admit(graph, s)
            for row in label_rows(graph, sum(map(bit.__getitem__, s)), spec.semantics, every)
        )

    return [Labelling.over(graph, spec.label_set, row) for row in sorted(rows, key=_rank_key)]
