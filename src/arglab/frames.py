"""Probabilistic frames over theories, graphs and labellings.

A frame holds its distribution as a :class:`Distribution`: an ``int``
numerator per outcome (``nums``) over one ``int`` denominator (``den``).  Its
constructor merges outcomes, drops zeros and checks the total, for outside
input and internal results alike; outside probabilities must be
``Fraction`` or ``int`` (a ``float`` is rejected).  Every conversion below is a
pushforward (:meth:`Distribution.map`), as are the statement and predicate
queries of :mod:`arglab.marginals`.  A labelling frame's argument table sums
every column of a factor in one pass over its numerators (each labelling
lists its labels in ``graph.ids()`` order); those sums, of a checked
distribution, need no second check, and are the one input taken unchecked,
by ``Distribution._summed``.  Read as a ``Mapping``, a distribution yields
``Fraction``s, so ``frame.probs`` and the rows of the tables are read-only
``Fraction`` mappings: only a value that is read or emitted becomes one.

A labelling frame is a graph, a spec and its factors, the factors held in
independent groups.  ``PLF(graph, spec, probs)`` checks outside input and
holds it as one factor in one group; ``PLF._formed`` hands over the factors
the engine built, unchecked.  :func:`plf_with_semantics` builds one factor
per connected component of the graph's attacks and sub-edges
(:attr:`ArgumentationGraph.components`), unless a sublabelling weight is
given: no label crosses a component, so a subgraph's labellings are the
product of its parts' labellings inside the components.  Its factors form
one group, whose source is the subgraph distribution keyed by each
subgraph's parts.  The ``independent`` frame (:func:`plf_independent`) and
an argument frame (:func:`plf_from_pag`) are products of independent items,
rules or arguments, and are built group by group: the components needing a
common uncertain item are one group, which enumerates its own items alone,
so the joint subgraph distribution is never built.  Tables are read per
factor: an argument's row from its own factor's group, a statement's from
the groups of the factors holding its concluding arguments only.  ``probs``
is built only when read, in the product order of the groups, the first
group outermost, each group's parts in its source's order, and each
combination's labellings in the product order of its parts' labellings.  A
statement's row lists its label sets in the order they first occur there.

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
    Sequence,
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
    label_rows,
    labellings as enumerate_labellings,  # not called here; perfbench/test_gate.py reads the alias
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

    @classmethod
    def _summed(cls, den: int, nums: Dict[Hashable, int]) -> "Distribution":
        """The distribution of ``nums``, taken as it is: for numerators the
        caller has merged already, none zero, summing to ``den`` by
        construction, as the sums of a checked distribution's columns do."""
        dist = object.__new__(cls)
        dist.den = den
        dist.nums = MappingProxyType(nums)
        return dist

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
    """The constructor the subset-keyed frames share: ``probs`` becomes a
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
    or in none.  From the certain set, each of the k uncertain items, in sorted
    order, with probability n/d, doubles the (subset, numerator) pairs held:
    each becomes its subset without the item, times d - n, then with it, times
    n, so 2^k pairs over the product of the denominators d.
    """
    pairs = [(frozenset(i for i, p in items.items() if p == 1), 1)]
    den = 1
    for item, p in sorted(items.items()):
        if 0 < p < 1:
            n, d = p.numerator, p.denominator
            pairs = [pair for s, m in pairs for pair in ((s, m * (d - n)), (s | {item}, m * n))]
            den *= d
    return Distribution(den, pairs)


def _check_unit(p, what: str) -> None:
    _check_rational(p, "probability", what)
    if not 0 <= p <= 1:
        raise DistributionError(f"p({what}) = {p} outside [0, 1]")


def _rule_chances(theory: DefeasibleTheory, max_rules: int) -> Dict[str, Fraction]:
    """Each rule's probability, 1 where none is declared; raises
    CapExceededError when more than ``max_rules`` rules have 0 < p < 1."""
    for rid, p in theory.rule_probs.items():
        _check_unit(p, rid)
    uncertain = sum(1 for p in theory.rule_probs.values() if 0 < p < 1)
    if uncertain > max_rules:
        raise CapExceededError(
            f"{uncertain} uncertain rules exceeds the subtheory enumeration cap of {max_rules}"
        )
    return {rid: theory.rule_probs.get(rid, ONE) for rid in theory.rules}


def ptf_independent(theory: DefeasibleTheory, max_rules: int = MAX_SUBTHEORY_RULES) -> PTF:
    """Product distribution from per-rule probabilities.

    Rules without a declared probability are treated as certain (p = 1).
    Raises CapExceededError, before any subset is built, when more than
    ``max_rules`` rules have 0 < p < 1.
    """
    return PTF(theory, _product(_rule_chances(theory, max_rules)))


@dataclass(frozen=True)
class PGF(_Frame):
    """Probabilistic graph frame: distribution over argument-id subsets."""

    graph: ArgumentationGraph
    probs: Mapping[FrozenSet[str], Fraction]

    def _check(self, subset: FrozenSet[str]) -> None:
        if not subset <= self.graph.arguments.keys():
            raise DistributionError(f"subset {sorted(subset)} mentions unknown arguments")


Kernel = Mapping[Hashable, Tuple[Tuple[Tuple[ArgLabel, ...], int], ...]]


@dataclass(frozen=True)
class _Factors:
    """A labelling distribution split over blocks of arguments, the blocks
    over independent groups.

    Factor i labels the arguments at ``positions[i]``, ascending positions in
    ``graph.ids()``.  Each of ``groups`` is a pair: the indices of its
    factors, ascending, and its source, a distribution over tuples of their
    parts, one part per factor.  Every factor lies in one group, and the
    groups are independent: the frame's distribution over parts is the
    product of their sources.  ``kernels[i]`` maps each part of factor i to
    its label tuples at ``positions[i]``, each with a numerator over
    ``scales[i]``.
    """

    positions: Tuple[Tuple[int, ...], ...]
    groups: Tuple[Tuple[Tuple[int, ...], Distribution], ...]
    kernels: Tuple[Kernel, ...]
    scales: Tuple[int, ...]

    @cached_property
    def dists(self) -> Tuple[Distribution, ...]:
        """Each factor's distribution over its label tuples: its margin of
        its group's source pushed through its kernel."""
        dists: Dict[int, Distribution] = {}
        for factors, source in self.groups:
            for k, i in enumerate(factors):
                margin = source.along(parts[k] for parts in source.nums)
                kernel = self.kernels[i]
                dists[i] = Distribution(margin.den * self.scales[i], (
                    (t, n * w) for r, n in margin.nums.items() for t, w in kernel[r]
                ))
        return tuple(map(dists.__getitem__, range(len(self.positions))))

    def joint(self, factors: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Distribution]:
        """The given factors together: their positions, ascending, and the
        distribution over label tuples at them.

        Each group holding some of them has its source pushed onto their
        parts, and the groups' pushforwards are multiplied, exact by
        independence, the first group outermost.  Each combination of parts
        expands into the product of its parts' label tuples, the factors
        taken group by group, the first outermost."""
        if len(factors) == 1:
            return self.positions[factors[0]], self.dists[factors[0]]
        wanted = set(factors)
        held: List[int] = []
        combos, den = [((), 1)], 1
        for members, source in self.groups:
            ks = [k for k, i in enumerate(members) if i in wanted]
            if ks:
                held += (members[k] for k in ks)
                margin = source.along(tuple(parts[k] for k in ks) for parts in source.nums)
                combos = [(c + r, m * n) for c, m in combos for r, n in margin.nums.items()]
                den *= margin.den
        joined = [j for i in held for j in self.positions[i]]
        order = sorted(range(len(joined)), key=joined.__getitem__)
        arrange = operator.itemgetter(*order)  # two or more positions: a tuple
        kernels = [self.kernels[i] for i in held]
        pairs = (
            (arrange(sum((t for t, _ in combo), ())), n * math.prod(w for _, w in combo))
            for parts, n in combos
            for combo in itertools.product(*(k[r] for k, r in zip(kernels, parts)))
        )
        den *= math.prod(self.scales[i] for i in held)
        return tuple(joined[k] for k in order), Distribution(den, pairs)

    @classmethod
    def _whole(cls, width: int, rows: Distribution) -> "_Factors":
        """One factor over a graph's ``width`` arguments, each label row its own part."""
        kernel = {t: ((t, 1),) for t in rows.nums}
        source = rows.along((t,) for t in rows.nums)
        return cls((tuple(range(width)),), (((0,), source),), (kernel,), (1,))


class _LabelSets(dict):
    def __missing__(self, labels: Tuple[ArgLabel, ...]) -> FrozenSet[ArgLabel]:
        self[labels] = found = frozenset(labels)
        return found


class PLF:
    """Probabilistic labelling frame: distribution over labellings.

    A frame is its graph, its spec and its factors, and ``probs`` is built
    from them when read.  ``PLF(graph, spec, probs)`` checks outside input,
    each labelling total over the graph in the spec's label set, and holds it
    as one factor; ``PLF._formed`` hands over the engine's factors unchecked.
    """

    def __init__(self, graph: ArgumentationGraph, spec: LabellingSpec,
                 probs: Mapping[Labelling, Fraction]):
        probs = _normalise(probs)
        ids, labels = graph.ids(), spec.label_set.labels
        for labelling in probs:
            if labelling.label_set is not spec.label_set:
                raise DistributionError("labelling outcome has the wrong label set")
            if labelling.ids is not ids and labelling.ids != ids:
                raise DistributionError("labelling outcome is not total over the graph")
            if len(labelling.labels) != len(ids):
                raise DistributionError("labelling outcome does not give one label per argument")
            if not labels.issuperset(labelling.labels):
                raise DistributionError("labelling outcome has a label outside its label set")
        self.graph, self.spec = graph, spec
        self._factors = _Factors._whole(len(ids), probs.along(l.labels for l in probs))

    @classmethod
    def _formed(cls, graph: ArgumentationGraph, spec: LabellingSpec, factors: _Factors) -> "PLF":
        plf = cls.__new__(cls)
        plf.graph, plf.spec, plf._factors = graph, spec, factors
        return plf

    @cached_property
    def probs(self) -> Distribution:
        """Every factor together, each outcome a labelling, in the product
        order of the groups, the first group outermost (:meth:`_Factors.joint`).
        For a frame of one group, such as :func:`plf_with_semantics` builds,
        that is subgraph by subgraph in the subgraph distribution's order."""
        label_set, ids = self.spec.label_set, self.graph.ids()
        _, joint = self._factors.joint(tuple(range(len(self._factors.positions))))
        return joint.map(lambda labels: Labelling(label_set, ids, labels))

    def support(self) -> List[Labelling]:
        return sorted(self.probs, key=Labelling.sort_key)

    @cached_property
    def marginals(self) -> Dict[str, Distribution]:
        """Distribution of each argument's label, keyed by argument id: its
        factor pushed forward onto the argument's column.

        Every column of a factor is summed in one pass over its numerators.
        Each column's sums are positive and add up to the factor's
        denominator, so the rows are built by :meth:`Distribution._summed`,
        with no second merge or check."""
        rows: Dict[int, Distribution] = {}
        for positions, dist in zip(self._factors.positions, self._factors.dists):
            sums: List[Dict[ArgLabel, int]] = [{} for _ in positions]
            for labels, n in dist.nums.items():
                for column, label in zip(sums, labels):
                    column[label] = column.get(label, 0) + n
            rows.update(zip(positions, (Distribution._summed(dist.den, c) for c in sums)))
        return {a: rows[j] for j, a in enumerate(self.graph.ids())}

    @cached_property
    def conclusion_label_sets(self) -> Dict[Literal, Distribution]:
        """Per concluded statement, the distribution of the set of labels that
        the arguments concluding it carry together.

        Statement labels depend on that set alone, so one table serves every
        statement, label and scheme.  A statement's row joins only the
        factors holding its concluding arguments, and pushes their joint
        forward onto the sets of those arguments' labels, each set built once
        per frame (:class:`_LabelSets`), however often its tuple recurs.
        """
        factors = self._factors
        owner = {j: i for i, positions in enumerate(factors.positions) for j in positions}
        arguments = self.graph.arguments
        concluding: Dict[Literal, List[int]] = {}
        for j, arg_id in enumerate(self.graph.ids()):
            concluding.setdefault(arguments[arg_id].conclusion, []).append(j)
        joints: Dict[Tuple[int, ...], Tuple[Distribution, Dict[int, Tuple[ArgLabel, ...]]]] = {}
        table, label_sets = {}, _LabelSets()
        for c, js in concluding.items():
            held = tuple(sorted({owner[j] for j in js}))
            if held not in joints:
                positions, joint = factors.joint(held)
                joints[held] = joint, dict(zip(positions, zip(*joint.nums)))
            joint, columns = joints[held]
            table[c] = joint.along(map(label_sets.__getitem__, zip(*(columns[j] for j in js))))
        return table


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
    ids = graph.ids()
    rows = probs.along(tuple(member if a in s else other for a in ids) for s in probs.nums)
    return PLF._formed(graph, LabellingSpec(label_set), _Factors._whole(len(ids), rows))


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


_UNWEIGHTED = SublabellingWeights()


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

    The frame has one factor per connected component of the attacks and
    sub-edges (``graph.components``), unless a weight entry is given
    (weights are summed per whole labelling) or there are fewer than two
    components: then it has one, the whole graph.  A factor labels each
    distinct part of a support subgraph inside its component once, as label
    rows at the component's positions (:func:`label_rows`), and splits
    uniformly among them; only weights, read off whole labellings, have
    labellings built.  No label crosses a component, so
    each subgraph's labellings are the product of its parts', and the frame
    keeps the subgraph distribution keyed by each subgraph's parts.  The
    admissibility test and the enumeration cap still apply to each whole
    support subgraph, in the distribution's order, and the subgraph named
    for having no labelling is the first with a part that has none.  Each
    subgraph's weights are read off as soon as it is labelled, so the first
    subgraph refused for any reason is the one named.
    """
    weights = weights or _UNWEIGHTED
    graph = pgf.graph
    named = {a for assignment, _ in weights.entries for a, _ in assignment}
    unknown = sorted(named - graph.arguments.keys())
    if unknown:
        raise DistributionError(f"weights name unknown arguments {unknown}")
    admit = is_legal if legal_only else is_subargument_complete
    ids, bit = graph.ids(), graph._bit
    # weights are summed per whole labelling: with them, one factor
    components = [tuple(range(len(ids)))] if weights.entries or not ids else graph.components
    blocks = [sum(1 << j for j in positions) for positions in components]
    labelled = [_Parts(graph, semantics, positions, weights) for positions in components]
    outcomes = []
    for subset in pgf.probs.nums:
        if not admit(graph, subset):
            kind = "legal" if legal_only else "subargument-complete"
            raise DistributionError(f"subgraph {sorted(subset)} is not {kind}")
        check_cap(len(subset), max_args)
        present = sum(map(bit.__getitem__, subset))
        parts = tuple(present & block for block in blocks)
        for seen, r in zip(labelled, parts):
            if not seen[r]:
                raise DistributionError(
                    f"subgraph {sorted(subset)} has no {semantics.value} labelling"
                )
        outcomes.append(parts)
    group = (tuple(range(len(components))), pgf.probs.along(outcomes))
    return _combined(graph, semantics, legal_only, components, (group,), labelled)


def _combined(
    graph: ArgumentationGraph,
    semantics: Semantics,
    legal_only: bool,
    components: Sequence[Tuple[int, ...]],
    groups: Tuple[Tuple[Tuple[int, ...], Distribution], ...],
    labelled: Sequence["_Parts"],
) -> PLF:
    """The combined frame of these factors and groups, each factor's parts labelled."""
    kernels, scales = zip(*(seen.kernel() for seen in labelled))
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=legal_only)
    return PLF._formed(graph, spec, _Factors(tuple(components), groups, kernels, scales))


class _Parts(dict):
    """One factor's distinct parts, each a bitmask over ``graph.ids()``, each
    mapped to its label rows at the factor's positions (:func:`label_rows`)
    when first looked up.  With sublabelling weights (one factor, each row a
    whole labelling) a part's weights are read off as soon as it is
    labelled, so a subgraph's weight error comes before any later one's."""

    def __init__(self, graph: ArgumentationGraph, semantics: Semantics,
                 positions: Tuple[int, ...], weights: SublabellingWeights):
        super().__init__()
        self.graph, self.semantics, self.positions, self.weights = graph, semantics, positions, weights
        self.split: Dict[int, List[Fraction]] = {}

    def __missing__(self, part: int) -> List[Tuple[ArgLabel, ...]]:
        self[part] = rows = label_rows(self.graph, part, self.semantics, self.positions)
        if self.weights.entries:
            labellings = [Labelling.over(self.graph, LabelSet.IN_OUT_UN_OFF, t) for t in rows]
            self.split[part] = self.weights.weights_for(labellings)
        return rows

    def kernel(self) -> Tuple[Kernel, int]:
        """Each part's rows with their numerators, over the scale returned:
        the weights scaled to the least common multiple of their
        denominators, or else each of a part's k rows weighing 1/k."""
        if self.weights.entries:
            m = math.lcm(*(w.denominator for ws in self.split.values() for w in ws))
            return {
                r: tuple((t, w.numerator * (m // w.denominator)) for t, w in zip(self[r], ws))
                for r, ws in self.split.items()
            }, m
        m = math.lcm(*map(len, self.values()))
        return {r: tuple((t, m // len(rows)) for t in rows) for r, rows in self.items()}, m


def _grouped(
    graph: ArgumentationGraph,
    semantics: Semantics,
    legal_only: bool,
    max_args: int,
    needs: Mapping[str, FrozenSet[str]],
    chances: Mapping[str, Fraction],
) -> Optional[PLF]:
    """The combined frame of independent items (rules or arguments), built
    group by group; None where the joint build is needed for its first error.

    An argument in ``needs`` is present exactly when the uncertain items it
    needs are, each independently with its probability in ``chances``; any
    other argument is never present.  Components needing a common item are
    one group, and each group enumerates only its own items with
    :func:`_product`, each outcome mapped straight onto its components'
    parts.  Every support subgraph is the union of one outcome per group, so
    the largest has the sum of the groups' largest totals.  When that is
    over ``max_args``, or some part has no labelling, the joint frame
    refuses, and None is returned for it to name the first refused subgraph.
    """
    ids = graph.ids()
    components = graph.components if ids else ((),)
    # per component, each argument that can be present: its bit and the items it needs
    live = [[(1 << j, needs[ids[j]]) for j in positions if ids[j] in needs]
            for positions in components]
    found: List[Tuple[List[int], set]] = []
    for k, args in enumerate(live):
        members, items = [k], set().union(*(n for _, n in args))
        rest = []
        for other, shared in found:
            if shared & items:
                members, items = other + members, items | shared
            else:
                rest.append((other, shared))
        found = rest + [(members, items)]
    found.sort(key=lambda group: min(group[0]))
    groups, largest = [], 0
    for members, items in found:
        members.sort()
        source = _product({item: chances[item] for item in items})
        dist = source.along(
            tuple(sum(b for b, n in live[k] if n <= s) for k in members) for s in source.nums
        )
        largest += max(sum(map(int.bit_count, parts)) for parts in dist.nums)
        groups.append((tuple(members), dist))
    if largest > max_args:
        return None
    labelled = [_Parts(graph, semantics, positions, _UNWEIGHTED) for positions in components]
    for members, dist in groups:
        for parts in dist.nums:
            if not all(labelled[k][r] for k, r in zip(members, parts)):
                return None
    return _combined(graph, semantics, legal_only, components, tuple(groups), labelled)


def plf_independent(
    theory: DefeasibleTheory,
    semantics: Semantics,
    policy: PreferencePolicy = PreferencePolicy.LAST_LINK,
    weights: Optional[SublabellingWeights] = None,
    legal_only: bool = False,
    max_args: int = MAX_ENUM_ARGUMENTS,
) -> PLF:
    """The frame of ``plf_with_semantics(pgf_from_ptf(ptf_independent(theory),
    policy), semantics, weights, legal_only, max_args)``, built from
    independent groups of components, with the same errors.

    The rule probabilities are checked and the graph built first, as that
    composition does.  An argument needs the uncertain rules it uses, and is
    never present if it uses a rule with p = 0.  A subgraph pushed from a rule
    subset S holds every argument whose rules lie in S, so it is legal by
    construction and no admissibility test runs.  With weights, or where
    :func:`_grouped` refuses, the composition itself builds the frame.
    """
    if not (weights and weights.entries):
        chances = _rule_chances(theory, MAX_SUBTHEORY_RULES)
        graph = build_graph(theory, policy=policy)
        needs = {
            a: frozenset(r for r in rules if chances[r] < 1)
            for a, rules in ((a, arg.rules()) for a, arg in graph.arguments.items())
            if all(chances[r] for r in rules)
        }
        plf = _grouped(graph, semantics, legal_only, max_args, needs, chances)
        if plf is not None:
            return plf
    pgf = pgf_from_ptf(ptf_independent(theory), policy=policy)
    return plf_with_semantics(pgf, semantics, weights, legal_only, max_args)


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


def plf_from_pag(
    pag: PAG,
    semantics: Semantics,
    weights: Optional[SublabellingWeights] = None,
    legal_only: bool = False,
    max_args: int = MAX_ENUM_ARGUMENTS,
) -> PLF:
    """The frame of ``plf_with_semantics(pag_to_pgf(pag, max_args), semantics,
    weights, legal_only, max_args)``, each component its own group, with the
    same errors.

    The whole graph's cap is checked first, as :func:`pag_to_pgf` checks it.
    An argument with p = 0 is never present, and one with 0 < p < 1 needs
    itself.  With weights, or ``legal_only`` (rule-completeness reads rules
    used anywhere in a subgraph, not one component), or sub-edges in the
    graph (each subgraph is then tested for subargument-completeness, which
    independent presence does not give), or where :func:`_grouped` refuses,
    the composition itself builds the frame.
    """
    if not (weights and weights.entries or legal_only or pag.graph.sub_edges):
        check_cap(len(pag.graph.arguments), max_args)
        needs = {a: frozenset([a] if p < 1 else ()) for a, p in pag.arg_probs.items() if p}
        plf = _grouped(pag.graph, semantics, legal_only, max_args, needs, pag.arg_probs)
        if plf is not None:
            return plf
    pgf = pag_to_pgf(pag, max_args=max_args)
    return plf_with_semantics(pgf, semantics, weights, legal_only, max_args)


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
    graph, bit = pag.graph, pag.graph._bit
    every = range(len(bit))
    wanted = sum(map(bit.__getitem__, target))

    def extends(subset: FrozenSet[str]) -> bool:
        """Whether some labelling of the subgraph has exactly ``target`` IN,
        read off its label rows at every position as an IN mask."""
        if not target <= subset:
            return False
        rows = label_rows(graph, sum(map(bit.__getitem__, subset)), semantics, every)
        return any(
            sum(1 << j for j, label in enumerate(row) if label is ArgLabel.IN) == wanted
            for row in rows
        )

    # pag_to_pgf checks the whole graph's cap, which bounds every subgraph
    return pag_to_pgf(pag, max_args=max_args).probs.map(extends).get(True, ZERO)
