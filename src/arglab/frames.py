"""Probabilistic frames over theories, graphs and labellings.

All frames carry sparse distributions with exact rational probabilities.
Each frame's constructor takes its outcomes as a mapping or as (outcome,
probability) pairs, merges duplicate outcomes, drops zeros, checks that the
total is exactly 1 and stores the result read-only; every conversion below
goes through those constructors.

* PTF: distribution over subsets of rule ids of a theory.
* PGF: distribution over subsets of argument ids of a graph.
* PLF: distribution over labellings admitted by a labelling spec.
* PEF: distribution over believed argument sets (epistemic).
* PAG: independent per-argument probabilities on an abstract graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from .core import ArgLabel, ArgumentationGraph, DefeasibleTheory, Labelling, LabelSet
from .construct import (
    MAX_ARGUMENTS,
    PreferencePolicy,
    build_graph,
    induced_subgraph,
    is_legal,
    is_subargument_complete,
)
from .errors import CapExceededError, DistributionError
from .semantics import (
    MAX_ENUM_ARGUMENTS,
    LabellingSpec,
    Semantics,
    combine_with_off,
    labellings as enumerate_labellings,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def _normalise(entries) -> Mapping[object, Fraction]:
    """Merge duplicate outcomes, drop zeros, and check the distribution axioms.

    ``entries`` is a mapping or an iterable of (outcome, probability) pairs.
    """
    if isinstance(entries, Mapping):
        entries = entries.items()
    probs: Dict[object, Fraction] = {}
    for key, p in entries:
        if p < 0:
            raise DistributionError(f"negative probability {p} for {key}")
        if p == 0:
            continue
        probs[key] = probs.get(key, ZERO) + p
    total = sum(probs.values(), ZERO)
    if total != 1:
        raise DistributionError(f"probabilities sum to {total}, expected 1")
    return MappingProxyType(probs)


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
    or in none, so 2^k subsets are visited for k uncertain items.
    """
    certain = frozenset(i for i, p in items.items() if p == 1)
    uncertain = sorted(i for i, p in items.items() if 0 < p < 1)
    for bits in itertools.product((False, True), repeat=len(uncertain)):
        subset = set(certain)
        p = ONE
        for item, present in zip(uncertain, bits):
            if present:
                subset.add(item)
            p *= items[item] if present else 1 - items[item]
        yield frozenset(subset), p


def ptf_independent(theory: DefeasibleTheory) -> PTF:
    """Product distribution from per-rule probabilities.

    Rules without a declared probability are treated as certain (p = 1).
    """
    for rid, p in theory.rule_probs.items():
        if not 0 <= p <= 1:
            raise DistributionError(f"p({rid}) = {p} outside [0, 1]")
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
        ids = self.graph.arguments.keys()
        for labelling in self.probs:
            if labelling.label_set is not self.spec.label_set:
                raise DistributionError("labelling outcome has the wrong label set")
            if {a for a, _ in labelling.entries} != ids:
                raise DistributionError("labelling outcome is not total over the graph")

    def support(self) -> List[Labelling]:
        return sorted(self.probs, key=Labelling.sort_key)

    @cached_property
    def marginals(self) -> Dict[str, Dict[ArgLabel, Fraction]]:
        """Probability of each label per argument id; labels never carried are absent."""
        table: Dict[str, Dict[ArgLabel, Fraction]] = {a: {} for a in self.graph.arguments}
        for labelling, p in self.probs.items():
            for arg_id, label in labelling.entries:
                row = table[arg_id]
                row[label] = row.get(label, ZERO) + p
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
            if not 0 <= p <= 1:
                raise DistributionError(f"p({arg_id}) = {p} outside [0, 1]")


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
        mapping = {a: member if a in subset else other for a in graph.arguments}
        return Labelling.from_mapping(label_set, mapping)

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
    labellings.
    """

    entries: Tuple[Tuple[Tuple[Tuple[str, ArgLabel], ...], Fraction], ...] = ()

    @staticmethod
    def from_entries(
        entries: Iterable[Tuple[Mapping[str, ArgLabel], Fraction]]
    ) -> "SublabellingWeights":
        packed = []
        for assignment, w in entries:
            if w < 0:
                raise DistributionError(f"negative weight {w}")
            packed.append((tuple(sorted(assignment.items())), w))
        return SublabellingWeights(tuple(packed))

    def weights_for(self, inner_labellings: List[Labelling]) -> List[Fraction]:
        k = len(inner_labellings)
        if k == 1:
            return [ONE]
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
    default).
    """
    weights = weights or SublabellingWeights()
    admit = is_legal if legal_only else is_subargument_complete
    spec = LabellingSpec(
        LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=legal_only
    )
    inner_spec = LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics)
    entries = []
    for subset, p in pgf.probs.items():
        if not admit(pgf.graph, subset):
            kind = "legal" if legal_only else "subargument-complete"
            raise DistributionError(f"subgraph {sorted(subset)} is not {kind}")
        sub = induced_subgraph(pgf.graph, subset)
        inner = enumerate_labellings(sub, inner_spec, max_args=max_args)
        for labelling, w in zip(inner, weights.weights_for(inner)):
            entries.append((combine_with_off(pgf.graph, labelling), p * w))
    return PLF(pgf.graph, spec, entries)


def pef_from_plf(plf: PLF) -> PEF:
    """Believed sets are the IN sets of an {IN, OUT, UN} frame."""
    return PEF(plf.graph, _sets_from_plf(plf, LabelSet.IN_OUT_UN, ArgLabel.IN, "pef_from_plf"))


def plf_from_pef(pef: PEF) -> PLF:
    """Believed arguments become IN, everything else OUT."""
    return _plf_from_sets(pef.graph, pef.probs, LabelSet.IN_OUT_UN, ArgLabel.IN, ArgLabel.OUT)


def pag_to_pgf(pag: PAG, max_args: int = MAX_ENUM_ARGUMENTS) -> PGF:
    """Subgraph distribution of independent argument presence."""
    n = len(pag.graph.arguments)
    if n > max_args:
        raise CapExceededError(
            f"{n} arguments exceeds the subset enumeration cap of {max_args}"
        )
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
    abstract = pag.graph.without_sub_edges()
    inner_spec = LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics)
    total = ZERO
    pgf = pag_to_pgf(pag, max_args=max_args)
    for subset, p in pgf.probs.items():
        if not target <= subset:
            continue
        sub = induced_subgraph(abstract, subset)
        for labelling in enumerate_labellings(sub, inner_spec, max_args=max_args):
            if labelling.with_label(ArgLabel.IN) == target:
                total += p
                break
    return total
