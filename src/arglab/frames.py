"""Probabilistic frames over theories, graphs and labellings.

A frame holds its distribution as a :class:`Distribution`: an ``int``
numerator per outcome (``nums``) over one ``int`` denominator (``den``).  Its
constructor alone merges outcomes, drops zeros and checks the total, for
outside input and internal results alike; outside probabilities must be
``Fraction`` or ``int`` (a ``float`` is rejected).  Every conversion below is a
pushforward (:meth:`Distribution.map`), as are a labelling frame's marginal
tables, read column by column (each labelling lists its labels in
``graph.ids()`` order), and the statement and predicate queries of
:mod:`arglab.marginals`.  Read as a ``Mapping``, a distribution yields
``Fraction``s, so ``frame.probs`` and the rows of the tables are read-only
``Fraction`` mappings: only a value that is read or emitted becomes one.

* PTF: distribution over subsets of rule ids of a theory.
* PGF: distribution over subsets of argument ids of a graph.
* PLF: distribution over labellings admitted by a labelling spec.
* PEF: distribution over believed argument sets (epistemic).
* PAG: independent per-argument probabilities on an abstract graph.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
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


class Distribution(Mapping):
    """Read-only distribution: an ``int`` numerator per outcome over one denominator.

    ``Distribution(den, pairs)`` takes (outcome, numerator) pairs, merges
    repeated outcomes, drops zeros and checks that the numerators sum to
    ``den``.  Read as a mapping, an outcome's probability is
    ``Fraction(nums[outcome], den)``, built when it is read.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, pairs: Iterable[Tuple[Hashable, int]]):
        nums: Dict[Hashable, int] = {}
        for outcome, n in pairs:
            if n:
                nums[outcome] = nums.get(outcome, 0) + n
        total = sum(nums.values())
        if total != den:
            raise DistributionError(f"probabilities sum to {Fraction(total, den)}, expected 1")
        self.den = den
        self.nums: Mapping[Hashable, int] = MappingProxyType(nums)

    def __getitem__(self, outcome) -> Fraction:
        return Fraction(self.nums[outcome], self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self) -> str:
        return f"Distribution({dict(self.items())!r})"

    def along(self, cells: Iterable[Hashable]) -> "Distribution":
        """Pushforward onto ``cells``: the i-th outcome's mass goes to the i-th cell."""
        return Distribution(self.den, zip(cells, self.nums.values()))

    def map(self, f: Callable[[Hashable], Hashable]) -> "Distribution":
        """Pushforward along ``f``: each outcome's mass goes to its image."""
        return self.along(map(f, self.nums))


def _check_rational(p, noun: str, what) -> None:
    if not isinstance(p, (Fraction, int)):
        raise DistributionError(f"{noun} {p!r} for {what} is not a Fraction or an int")


def _normalise(entries) -> Distribution:
    """Outside input, a mapping or (outcome, probability) pairs, scaled to the
    least common multiple of its denominators; a :class:`Distribution` is kept."""
    if isinstance(entries, Distribution):
        return entries
    entries = list(entries.items() if isinstance(entries, Mapping) else entries)
    for key, p in entries:
        _check_rational(p, "probability", key)
        if p < 0:
            raise DistributionError(f"negative probability {p} for {key}")
    den = math.lcm(*(p.denominator for _, p in entries))
    return Distribution(den, ((key, p.numerator * (den // p.denominator)) for key, p in entries))


class _Frame:
    """The constructor every frame shares: ``probs`` becomes a
    :class:`Distribution`, and each outcome must pass the frame's ``_check``."""

    def __post_init__(self):
        object.__setattr__(self, "probs", _normalise(self.probs))
        for outcome in self.probs:
            self._check(outcome)


@dataclass(frozen=True)
class PTF(_Frame):
    """Probabilistic theory frame: distribution over rule subsets."""

    theory: DefeasibleTheory
    probs: Mapping[FrozenSet[str], Fraction]

    def _check(self, subset: FrozenSet[str]) -> None:
        if not subset <= self.theory.rules.keys():
            raise DistributionError(f"subset {sorted(subset)} mentions unknown rules")


def _product(items: Mapping[str, Fraction]) -> Distribution:
    """Subsets under independent inclusion, each item present with its probability.

    Only items with 0 < p < 1 are branched on: the others are in every subset
    or in none, so 2^k subsets are visited for k uncertain items.  Over the
    product of their denominators, a subset's numerator is the product of
    each item's numerator n, when present, or d - n, when absent.
    """
    certain = frozenset(i for i, p in items.items() if p == 1)
    factors = [(i, p.numerator, p.denominator) for i, p in sorted(items.items()) if 0 < p < 1]
    pairs = []
    for bits in itertools.product((False, True), repeat=len(factors)):
        subset = set(certain)
        num = 1
        for (item, n, d), present in zip(factors, bits):
            if present:
                subset.add(item)
                num *= n
            else:
                num *= d - n
        pairs.append((frozenset(subset), num))
    return Distribution(math.prod(d for _, _, d in factors), pairs)


def _check_unit(p, what: str) -> None:
    _check_rational(p, "probability", what)
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
class PGF(_Frame):
    """Probabilistic graph frame: distribution over argument-id subsets."""

    graph: ArgumentationGraph
    probs: Mapping[FrozenSet[str], Fraction]

    def _check(self, subset: FrozenSet[str]) -> None:
        if not subset <= self.graph.arguments.keys():
            raise DistributionError(f"subset {sorted(subset)} mentions unknown arguments")


@dataclass(frozen=True)
class PLF(_Frame):
    """Probabilistic labelling frame: distribution over labellings."""

    graph: ArgumentationGraph
    spec: LabellingSpec
    probs: Mapping[Labelling, Fraction]

    def _check(self, labelling: Labelling) -> None:
        if labelling.label_set is not self.spec.label_set:
            raise DistributionError("labelling outcome has the wrong label set")
        ids = self.graph.ids()
        if labelling.ids is not ids and labelling.ids != ids:
            raise DistributionError("labelling outcome is not total over the graph")

    def support(self) -> List[Labelling]:
        return sorted(self.probs, key=Labelling.sort_key)

    @cached_property
    def _columns(self) -> List[Tuple[ArgLabel, ...]]:
        """The support's labels, one tuple per argument in ``graph.ids()`` order."""
        return list(zip(*(labelling.labels for labelling in self.probs)))

    @cached_property
    def marginals(self) -> Dict[str, Distribution]:
        """Distribution of each argument's label, keyed by argument id: the
        support pushed forward onto the argument's column."""
        return dict(zip(self.graph.ids(), map(self.probs.along, self._columns)))

    @cached_property
    def conclusion_label_sets(self) -> Dict[Literal, Distribution]:
        """Per concluded statement, the distribution of the set of labels that
        the arguments concluding it carry together.

        Statement labels depend on that set alone, so one table serves every
        statement, label and scheme.  A statement's row pushes the support
        forward onto the label tuples read across its concluding arguments'
        columns, then onto the sets of those labels.
        """
        arguments = self.graph.arguments
        columns: Dict[Literal, List[Tuple[ArgLabel, ...]]] = {}
        for arg_id, column in zip(self.graph.ids(), self._columns):
            columns.setdefault(arguments[arg_id].conclusion, []).append(column)
        return {c: self.probs.along(zip(*cols)).map(frozenset) for c, cols in columns.items()}


@dataclass(frozen=True)
class PEF(_Frame):
    """Probabilistic epistemic frame: distribution over believed argument sets."""

    graph: ArgumentationGraph
    probs: Mapping[FrozenSet[str], Fraction]

    def _check(self, believed: FrozenSet[str]) -> None:
        if not believed <= self.graph.arguments.keys():
            raise DistributionError(f"believed set {sorted(believed)} mentions unknown arguments")


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
    return PGF(graph, ptf.probs.map(lambda s: frozenset(a for a, rules in used if rules <= s)))


def _plf_from_sets(
    graph: ArgumentationGraph,
    probs: Distribution,
    label_set: LabelSet,
    member: ArgLabel,
    other: ArgLabel,
) -> PLF:
    """Labelling frame marking each outcome's members ``member``, the rest ``other``."""

    def labelling(subset: FrozenSet[str]) -> Labelling:
        labels = (member if a in subset else other for a in graph.ids())
        return Labelling.over(graph, label_set, labels)

    return PLF(graph, LabellingSpec(label_set), probs.map(labelling))


def _sets_from_plf(plf: PLF, label_set: LabelSet, member: ArgLabel, name: str) -> Distribution:
    """The ``member``-labelled set of each outcome; inverse of :func:`_plf_from_sets`."""
    if plf.spec.label_set is not label_set:
        labels = ", ".join(l.value for l in sorted(label_set.labels, key=lambda l: l.rank))
        raise DistributionError(f"{name} needs an {{{labels}}} labelling frame")
    return plf.probs.map(lambda l: l.with_label(member))


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
            _check_rational(w, "weight", f"entry {{{shown}}}")
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
    default).  A labelling's numerator is its subgraph's numerator times its
    weight's, scaled to the least common multiple ``m`` of the weights'
    denominators, over the subgraph distribution's denominator times ``m``.
    A subgraph with no labelling under the semantics (an odd attack cycle has
    no stable one), or a weight entry naming an argument outside the graph,
    raises DistributionError.
    """
    weights = weights or SublabellingWeights()
    named = {a for assignment, _ in weights.entries for a, _ in assignment}
    unknown = sorted(named - pgf.graph.arguments.keys())
    if unknown:
        raise DistributionError(f"weights name unknown arguments {unknown}")
    admit = is_legal if legal_only else is_subargument_complete
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=legal_only)
    groups = []
    for subset, n in pgf.probs.nums.items():
        if not admit(pgf.graph, subset):
            kind = "legal" if legal_only else "subargument-complete"
            raise DistributionError(f"subgraph {sorted(subset)} is not {kind}")
        inner = subgraph_labellings(pgf.graph, subset, semantics, max_args)
        if not inner:
            raise DistributionError(f"subgraph {sorted(subset)} has no {semantics.value} labelling")
        groups.append((n, inner, weights.weights_for(inner)))
    m = math.lcm(*(w.denominator for _, _, ws in groups for w in ws))
    entries = (
        (l, n * w.numerator * (m // w.denominator))
        for n, inner, ws in groups for l, w in zip(inner, ws)
    )
    return PLF(pgf.graph, spec, Distribution(pgf.probs.den * m, entries))


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

    def extends(subset: FrozenSet[str]) -> bool:
        return target <= subset and any(
            labelling.with_label(ArgLabel.IN) == target
            for labelling in subgraph_labellings(pag.graph, subset, semantics, max_args)
        )

    return pag_to_pgf(pag, max_args=max_args).probs.map(extends).get(True, ZERO)
