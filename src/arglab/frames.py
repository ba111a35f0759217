"""Probabilistic frames over theories, graphs and labellings.

All frames carry sparse distributions with exact rational probabilities.
Each frame's constructor takes its outcomes as a mapping or as (outcome,
probability) pairs, merges duplicate outcomes, drops zeros, checks that the
total is exactly 1 and stores the result read-only; every conversion below
goes through those constructors.  Probabilities must be ``Fraction`` or
``int``; a ``float`` is rejected.  Sums over outcomes (merging duplicates,
the product distribution, the marginal tables) add plain ``int`` numerators
over one common denominator and build a single ``Fraction`` per result.  A
labelling frame's tables read its support column by column: every labelling
lists its labels in ``graph.ids()`` order.

* PTF: distribution over subsets of rule ids of a theory.
* PGF: distribution over subsets of argument ids of a graph.
* PLF: distribution over labellings admitted by a labelling spec.
* PEF: distribution over believed argument sets (epistemic).
* PAG: independent per-argument probabilities on an abstract graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .core import (
    ArgLabel,
    ArgumentationGraph,
    DefeasibleTheory,
    Labelling,
    LabelSet,
    Literal,
)
from .construct import (
    MAX_ARGUMENTS,
    MAX_SUBTHEORY_RULES,
    PreferencePolicy,
    build_graph,
    is_legal,
    is_subargument_complete,
)
from .errors import CapExceededError, DistributionError
from .semantics import (
    MAX_ENUM_ARGUMENTS,
    LabellingSpec,
    Semantics,
    check_cap,
    labellings as enumerate_labellings,  # not called here; perfbench/test_gate.py reads the alias
    subgraph_labellings,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def _scaled(ps: Collection[Fraction]) -> Tuple[int, List[int]]:
    """The probabilities as ``int`` numerators over one common denominator.

    The denominator is the least common multiple of theirs, so a sum costs
    one integer addition per term instead of a gcd-normalised ``Fraction``
    addition.  Returns that denominator and the numerators, in order;
    ``Fraction(n, den)`` is a probability or a sum of them.
    """
    den = math.lcm(*(p.denominator for p in ps))
    return den, [p.numerator * (den // p.denominator) for p in ps]


def _cell_sums(cells: Iterable[Hashable], nums: Iterable[int]) -> Dict[Hashable, int]:
    """Numerators summed per cell, the i-th numerator into the i-th cell; cells
    in first-seen order."""
    sums: Dict[Hashable, int] = {}
    for cell, n in zip(cells, nums):
        sums[cell] = sums.get(cell, 0) + n
    return sums


def _check_rational(p, what) -> None:
    if not isinstance(p, (Fraction, int)):
        raise DistributionError(f"probability {p!r} for {what} is not a Fraction or an int")


def _normalise(entries) -> Mapping[object, Fraction]:
    """Merge duplicate outcomes, drop zeros, and check the distribution axioms.

    ``entries`` is a mapping or an iterable of (outcome, probability) pairs.
    """
    if isinstance(entries, Mapping):
        entries = entries.items()
    kept = []
    for key, p in entries:
        _check_rational(p, key)
        if p.numerator < 0:
            raise DistributionError(f"negative probability {p} for {key}")
        if p.numerator:
            kept.append((key, p))
    den, nums = _scaled([p for _, p in kept])
    sums = _cell_sums((key for key, _ in kept), nums)
    total = sum(nums)
    if total != den:
        raise DistributionError(f"probabilities sum to {Fraction(total, den)}, expected 1")
    return MappingProxyType({key: Fraction(n, den) for key, n in sums.items()})


def _check_subsets(probs: Mapping, known: Mapping[str, object], message: str) -> None:
    for subset in probs:
        if not subset <= known.keys():
            raise DistributionError(message.format(sorted(subset)))


@dataclass(frozen=True)
class PTF:
    """Probabilistic theory frame: distribution over rule subsets."""

    theory: DefeasibleTheory
    probs: Mapping[FrozenSet[str], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "probs", _normalise(self.probs))
        _check_subsets(self.probs, self.theory.rules, "subset {} mentions unknown rules")


def _product(items: Mapping[str, Fraction]) -> Iterator[Tuple[FrozenSet[str], Fraction]]:
    """Subsets under independent inclusion, each item present with its probability.

    Only items with 0 < p < 1 are branched on: the others are in every subset
    or in none, so 2^k subsets are visited for k uncertain items.  Over the
    product of their denominators, a subset's numerator is the product of
    each item's numerator n, when present, or d - n, when absent.
    """
    certain = frozenset(i for i, p in items.items() if p == 1)
    uncertain = sorted(i for i, p in items.items() if 0 < p < 1)
    factors = [(i, items[i].numerator, items[i].denominator) for i in uncertain]
    den = math.prod(d for _, _, d in factors)
    for bits in itertools.product((False, True), repeat=len(factors)):
        subset = set(certain)
        num = 1
        for (item, n, d), present in zip(factors, bits):
            if present:
                subset.add(item)
                num *= n
            else:
                num *= d - n
        yield frozenset(subset), Fraction(num, den)


def _check_unit(p, what: str) -> None:
    _check_rational(p, what)
    if not 0 <= p <= 1:
        raise DistributionError(f"p({what}) = {p} outside [0, 1]")


def ptf_independent(theory: DefeasibleTheory, max_rules: int = MAX_SUBTHEORY_RULES) -> PTF:
    """Product distribution from per-rule probabilities.

    Rules without a declared probability are treated as certain (p = 1).
    Raises CapExceededError, before any subset is built, when more than
    ``max_rules`` rules have 0 < p < 1.
    """
    for rid, p in theory.rule_probs.items():
        _check_unit(p, rid)
    uncertain = sum(1 for p in theory.rule_probs.values() if 0 < p < 1)
    if uncertain > max_rules:
        raise CapExceededError(
            f"{uncertain} uncertain rules exceeds the subtheory enumeration cap of {max_rules}"
        )
    return PTF(theory, _product({rid: theory.rule_probs.get(rid, ONE) for rid in theory.rules}))


@dataclass(frozen=True)
class PGF:
    """Probabilistic graph frame: distribution over argument-id subsets."""

    graph: ArgumentationGraph
    probs: Mapping[FrozenSet[str], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "probs", _normalise(self.probs))
        _check_subsets(self.probs, self.graph.arguments, "subset {} mentions unknown arguments")


@dataclass(frozen=True)
class PLF:
    """Probabilistic labelling frame: distribution over labellings."""

    graph: ArgumentationGraph
    spec: LabellingSpec
    probs: Mapping[Labelling, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "probs", _normalise(self.probs))
        ids = self.graph.ids()
        for labelling in self.probs:
            if labelling.label_set is not self.spec.label_set:
                raise DistributionError("labelling outcome has the wrong label set")
            if labelling.ids is not ids and labelling.ids != ids:
                raise DistributionError("labelling outcome is not total over the graph")

    def support(self) -> List[Labelling]:
        return sorted(self.probs, key=Labelling.sort_key)

    @cached_property
    def marginals(self) -> Dict[str, Dict[ArgLabel, Fraction]]:
        """Probability of each label per argument id; labels never carried are absent.

        Every outcome's labels are aligned to ``graph.ids()``, so each
        argument's row is summed down one column of the support.
        """
        den, nums = _scaled(self.probs.values())
        columns = zip(*(labelling.labels for labelling in self.probs))
        table: Dict[str, Dict[ArgLabel, Fraction]] = {a: {} for a in self.graph.arguments}
        for arg_id, column in zip(self.graph.ids(), columns):
            sums = _cell_sums(column, nums)
            table[arg_id] = {label: Fraction(n, den) for label, n in sums.items()}
        return table

    @cached_property
    def conclusion_label_sets(self) -> Dict[Literal, Dict[FrozenSet[ArgLabel], Fraction]]:
        """Per concluded statement, the probability of each set of labels that
        the arguments concluding it carry together.

        Statement labels depend on that set alone, so one pass over the support
        serves every statement, label and scheme.  Each statement reads the
        columns of its concluding arguments: the labels found there are summed
        first, and merged into label sets once per distinct combination.
        """
        arguments = self.graph.arguments
        table: Dict[Literal, Dict[FrozenSet[ArgLabel], Fraction]] = {
            arg.conclusion: {} for arg in arguments.values()
        }
        columns: Dict[Literal, List[int]] = {}
        for j, arg_id in enumerate(self.graph.ids()):
            columns.setdefault(arguments[arg_id].conclusion, []).append(j)
        den, nums = _scaled(self.probs.values())
        rows = [labelling.labels for labelling in self.probs]
        for c, cols in columns.items():
            # one column reads a label, several a tuple of labels
            pick = operator.itemgetter(*cols)
            merged: Dict[FrozenSet[ArgLabel], int] = {}
            for carried, n in _cell_sums(map(pick, rows), nums).items():
                labels = frozenset(carried) if len(cols) > 1 else frozenset((carried,))
                merged[labels] = merged.get(labels, 0) + n
            table[c] = {labels: Fraction(n, den) for labels, n in merged.items()}
        return table


@dataclass(frozen=True)
class PEF:
    """Probabilistic epistemic frame: distribution over believed argument sets."""

    graph: ArgumentationGraph
    probs: Mapping[FrozenSet[str], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "probs", _normalise(self.probs))
        message = "believed set {} mentions unknown arguments"
        _check_subsets(self.probs, self.graph.arguments, message)


@dataclass(frozen=True)
class PAG:
    """Independent per-argument probabilities on an abstract graph.

    Subargument structure is ignored; only attacks matter here.
    """

    graph: ArgumentationGraph
    arg_probs: Mapping[str, Fraction]

    def __post_init__(self):
        ids = set(self.graph.arguments)
        if set(self.arg_probs) != ids:
            missing = sorted(ids - set(self.arg_probs))
            extra = sorted(set(self.arg_probs) - ids)
            raise DistributionError(
                f"argument probabilities must cover the graph exactly "
                f"(missing {missing}, unknown {extra})"
            )
        for arg_id, p in self.arg_probs.items():
            _check_unit(p, arg_id)


# --- conversions -------------------------------------------------------------


def pgf_from_ptf(
    ptf: PTF,
    policy: PreferencePolicy = PreferencePolicy.LAST_LINK,
    max_args: int = MAX_ARGUMENTS,
) -> PGF:
    """Push a theory distribution forward to the generated argument sets.

    Each rule subset maps to the set of arguments its subtheory generates; the
    mapping is neither injective nor surjective in general, so probabilities
    accumulate.  The carrier graph is built from the full theory.  Since an
    argument's construction depends only on the rules it uses, the subtheory
    of rule subset S generates exactly the graph arguments A with
    rules(A) <= S.
    """
    graph = build_graph(ptf.theory, policy=policy, max_args=max_args)
    used = [(a, arg.rules()) for a, arg in graph.arguments.items()]
    sets = ((frozenset(a for a, rules in used if rules <= s), p) for s, p in ptf.probs.items())
    return PGF(graph, sets)


def _plf_from_sets(
    graph: ArgumentationGraph,
    probs: Mapping[FrozenSet[str], Fraction],
    label_set: LabelSet,
    member: ArgLabel,
    other: ArgLabel,
) -> PLF:
    """Labelling frame marking each outcome's members ``member``, the rest ``other``."""

    def labelling(subset: FrozenSet[str]) -> Labelling:
        labels = (member if a in subset else other for a in graph.ids())
        return Labelling.over(graph, label_set, labels)

    return PLF(graph, LabellingSpec(label_set), ((labelling(s), p) for s, p in probs.items()))


def _sets_from_plf(
    plf: PLF, label_set: LabelSet, member: ArgLabel, name: str
) -> Iterator[Tuple[FrozenSet[str], Fraction]]:
    """The ``member``-labelled set of each outcome; inverse of :func:`_plf_from_sets`."""
    if plf.spec.label_set is not label_set:
        labels = ", ".join(l.value for l in sorted(label_set.labels, key=lambda l: l.rank))
        raise DistributionError(f"{name} needs an {{{labels}}} labelling frame")
    return ((l.with_label(member), p) for l, p in plf.probs.items())


def plf_from_pgf(pgf: PGF) -> PLF:
    """The {ON, OFF} labelling frame marking membership of each subgraph."""
    return _plf_from_sets(pgf.graph, pgf.probs, LabelSet.ON_OFF, ArgLabel.ON, ArgLabel.OFF)


def pgf_from_plf(plf: PLF) -> PGF:
    """Inverse of :func:`plf_from_pgf`; requires an {ON, OFF} frame."""
    return PGF(plf.graph, _sets_from_plf(plf, LabelSet.ON_OFF, ArgLabel.ON, "pgf_from_plf"))


@dataclass(frozen=True)
class SublabellingWeights:
    """Conditional weights for choosing among a subgraph's labellings.

    Each entry pairs a partial label assignment with a weight.  A labelling's
    weight is the sum over entries whose assignment it extends.  When a
    subgraph has a single labelling the weight is 1 regardless; when no entry
    matches any of a subgraph's labellings, the uniform distribution is used.
    Otherwise the matched weights must sum to exactly 1 across the subgraph's
    labellings.  Those labellings are {IN, OUT, UN} labellings of the
    subgraph, so :meth:`from_entries` rejects an entry labelling an argument
    ON or OFF: it could never match.
    """

    entries: Tuple[Tuple[Tuple[Tuple[str, ArgLabel], ...], Fraction], ...] = ()

    @staticmethod
    def from_entries(
        entries: Iterable[Tuple[Mapping[str, ArgLabel], Fraction]]
    ) -> "SublabellingWeights":
        packed = []
        for assignment, w in entries:
            key = tuple(sorted(assignment.items()))
            shown = ", ".join(f"{a}={l.value}" for a, l in key)
            _check_rational(w, f"weight entry {{{shown}}}")
            if w < 0:
                raise DistributionError(f"negative weight {w}")
            for arg_id, label in key:
                if label not in LabelSet.IN_OUT_UN.labels:
                    raise DistributionError(
                        f"weight entry {{{shown}}} labels {arg_id} {label.value}, which never "
                        f"matches: weights choose among a subgraph's IN, OUT and UN labellings"
                    )
            packed.append((key, w))
        return SublabellingWeights(tuple(packed))

    def weights_for(self, inner_labellings: List[Labelling]) -> List[Fraction]:
        k = len(inner_labellings)
        if k <= 1:
            return [ONE] * k
        weights = []
        for labelling in inner_labellings:
            mapping = labelling.mapping
            w = sum(
                (
                    value
                    for assignment, value in self.entries
                    if all(mapping.get(a) is l for a, l in assignment)
                ),
                ZERO,
            )
            weights.append(w)
        if all(w == 0 for w in weights):
            return [Fraction(1, k)] * k
        if sum(weights, ZERO) != 1:
            raise DistributionError(
                f"weights {weights} do not sum to 1 over {k} labellings"
            )
        return weights


def plf_with_semantics(
    pgf: PGF,
    semantics: Semantics,
    weights: Optional[SublabellingWeights] = None,
    legal_only: bool = False,
    max_args: int = MAX_ENUM_ARGUMENTS,
) -> PLF:
    """Combined {IN, OUT, UN, OFF} frame from a subgraph distribution.

    Every subgraph in the support contributes its semantics labellings,
    extended with OFF outside, split by the sublabelling weights (uniform by
    default).  A subgraph with no labelling under the semantics (an odd
    attack cycle has no stable one), or a weight entry naming an argument
    outside the graph, raises DistributionError.
    """
    weights = weights or SublabellingWeights()
    named = {a for assignment, _ in weights.entries for a, _ in assignment}
    unknown = sorted(named - pgf.graph.arguments.keys())
    if unknown:
        raise DistributionError(f"weights name unknown arguments {unknown}")
    admit = is_legal if legal_only else is_subargument_complete
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=legal_only)
    entries = []
    for subset, p in pgf.probs.items():
        if not admit(pgf.graph, subset):
            kind = "legal" if legal_only else "subargument-complete"
            raise DistributionError(f"subgraph {sorted(subset)} is not {kind}")
        inner = subgraph_labellings(pgf.graph, subset, semantics, max_args)
        if not inner:
            raise DistributionError(f"subgraph {sorted(subset)} has no {semantics.value} labelling")
        entries += ((l, p * w) for l, w in zip(inner, weights.weights_for(inner)))
    return PLF(pgf.graph, spec, entries)


def pef_from_plf(plf: PLF) -> PEF:
    """Believed sets are the IN sets of an {IN, OUT, UN} frame."""
    return PEF(plf.graph, _sets_from_plf(plf, LabelSet.IN_OUT_UN, ArgLabel.IN, "pef_from_plf"))


def plf_from_pef(pef: PEF) -> PLF:
    """Believed arguments become IN, everything else OUT."""
    return _plf_from_sets(pef.graph, pef.probs, LabelSet.IN_OUT_UN, ArgLabel.IN, ArgLabel.OUT)


def pag_to_pgf(pag: PAG, max_args: int = MAX_ENUM_ARGUMENTS) -> PGF:
    """Subgraph distribution of independent argument presence."""
    check_cap(len(pag.graph.arguments), max_args)
    return PGF(pag.graph, _product(pag.arg_probs))


def extension_probability(
    pag: PAG,
    semantics: Semantics,
    ids: Iterable[str],
    max_args: int = MAX_ENUM_ARGUMENTS,
) -> Fraction:
    """Probability that the given set is the IN set of some labelling of the
    surviving subgraph, under independent argument presence."""
    target = frozenset(ids)
    unknown = target - set(pag.graph.arguments)
    if unknown:
        raise KeyError(f"unknown argument ids: {sorted(unknown)}")
    total = ZERO
    pgf = pag_to_pgf(pag, max_args=max_args)
    for subset, p in pgf.probs.items():
        if target <= subset and any(
            labelling.with_label(ArgLabel.IN) == target
            for labelling in subgraph_labellings(pag.graph, subset, semantics, max_args)
        ):
            total += p
    return total
