"""Marginal queries, statement labels, justification, and property checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Collection, FrozenSet, Iterable, List, Mapping, Optional

from .core import (
    ArgLabel,
    ArgumentationGraph,
    DefeasibleTheory,
    Justification,
    Labelling,
    Literal,
    in_conflict,
)
from .frames import ONE, PLF, ZERO, Distribution
from .semantics import Semantics

_COMPLETE_FAMILY = set(Semantics) - {Semantics.CF}
# an unproposed statement has no concluding argument: surely the empty label set
_UNPROPOSED = Distribution(1, [(frozenset(), 1)])


def argument_label_probability(plf: PLF, arg_id: str, label: ArgLabel) -> Fraction:
    """Read off the frame's marginal table; raises KeyError for unknown ids."""
    return plf.marginals[arg_id].get(label, ZERO)


def joint_probability(plf: PLF, assignment: Mapping[str, ArgLabel]) -> Fraction:
    """Probability that every named argument carries its label, read off the
    joint of the frame's factors holding them alone; raises KeyError for
    unknown ids."""
    ids = plf.graph.ids()
    for arg_id in assignment:
        if arg_id not in plf.graph.arguments:
            raise KeyError(arg_id)
    wanted = {ids.index(a): label for a, label in assignment.items()}
    if not wanted:
        return ONE
    factors = plf._factors
    held = tuple(i for i, js in enumerate(factors.positions) if not wanted.keys().isdisjoint(js))
    positions, joint = factors.joint(held)
    columns = [(positions.index(j), label) for j, label in wanted.items()]
    holds = joint.map(lambda labels: all(labels[k] is label for k, label in columns))
    return holds.get(True, ZERO)


class StatementLabel(Enum):
    IN = "in"
    OUT = "out"
    UN = "un"
    OFF = "off"
    UNP = "unp"  # unproposed: no argument concludes the statement
    NO = "no"  # bivalent complement of "in"


class StatementScheme(Enum):
    BIVALENT = "bivalent"
    WORSTCASE = "worstcase"


def statement_label(
    labelling: Labelling,
    graph: ArgumentationGraph,
    statement: Literal,
    scheme: StatementScheme = StatementScheme.WORSTCASE,
) -> StatementLabel:
    """Label of a statement under one argument labelling.

    Bivalent: ``in`` when some IN argument concludes it, ``no`` otherwise.
    Worst-case: ``in`` likewise; ``un`` when there is no IN argument but some
    UN one; ``out`` when arguments exist, all are OUT or OFF, and at least one
    is OUT; ``off`` when all of them are OFF; ``unp`` when no argument
    concludes the statement at all.
    """
    mapping = labelling.mapping
    labels = [mapping[a] for a in _concluding_ids(graph, statement)]
    return _statement_label_of(labels, scheme)


def _concluding_ids(graph: ArgumentationGraph, statement: Literal) -> FrozenSet[str]:
    return frozenset(
        a.canonical_id for a in graph.arguments.values() if a.conclusion == statement
    )


def _statement_label_of(
    labels: Collection[ArgLabel], scheme: StatementScheme
) -> StatementLabel:
    """Statement label from the labels of the arguments concluding it."""
    if scheme is StatementScheme.BIVALENT:
        return StatementLabel.IN if ArgLabel.IN in labels else StatementLabel.NO
    if not labels:
        return StatementLabel.UNP
    if ArgLabel.IN in labels:
        return StatementLabel.IN
    if ArgLabel.UN in labels:
        return StatementLabel.UN
    if ArgLabel.OUT in labels:
        return StatementLabel.OUT
    return StatementLabel.OFF


def statement_marginal(
    plf: PLF,
    statement: Literal,
    scheme: StatementScheme = StatementScheme.WORSTCASE,
) -> Mapping[StatementLabel, Fraction]:
    """Probability of each label of the statement; labels never carried are absent.

    Pushes the frame's row of conclusion label sets forward onto statement
    labels.  The table (:attr:`PLF.conclusion_label_sets`) is built once per
    frame, each row from the joint of the factors holding the statement's
    concluding arguments alone, so the cost per call does not grow with the
    support.
    """
    sets = plf.conclusion_label_sets.get(statement, _UNPROPOSED)
    return sets.map(lambda labels: _statement_label_of(labels, scheme))


def statement_label_probability(
    plf: PLF,
    statement: Literal,
    label: StatementLabel,
    scheme: StatementScheme = StatementScheme.WORSTCASE,
) -> Fraction:
    """Probability that the statement carries ``label``: the sum of
    :func:`statement_label` over the support, read off :func:`statement_marginal`."""
    return statement_marginal(plf, statement, scheme).get(label, ZERO)


def justification_from_plf(plf: PLF, arg_id: str) -> Justification:
    """Justification status read off the label marginals.

    Off-justified when OFF has probability 1, skeptically justified when IN
    has probability 1, credulously justified when IN has probability strictly
    between 0 and 1, and not justified otherwise.  Agrees with the
    semi-skeptical status over the support labellings.  The argument's row
    of :attr:`PLF.marginals` is read as numerators, compared with its
    denominator.
    """
    row = plf.marginals[arg_id]
    nums, den = row.nums, row.den
    if nums.get(ArgLabel.OFF) == den:
        return Justification.OFJ
    n_in = nums.get(ArgLabel.IN, 0)
    if n_in == den:
        return Justification.SKJ
    if n_in:
        return Justification.CRJ
    return Justification.NOJ


@dataclass
class PropertyResult:
    name: str
    applicable: bool
    holds: Optional[bool] = None
    mandatory: bool = True
    violations: List[str] = field(default_factory=list)


@dataclass
class PropertyReport:
    results: List[PropertyResult]

    @property
    def ok(self) -> bool:
        return all(
            r.holds for r in self.results if r.applicable and r.mandatory
        )

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _result(
    name: str, applicable: bool, violations: Iterable[str], mandatory: bool = True
) -> PropertyResult:
    """A property that holds unless ``violations`` yields one; read only when applicable."""
    found = list(violations) if applicable else []
    return PropertyResult(name, applicable, not found, mandatory, found)


def check_properties(
    plf: PLF, theory: Optional[DefeasibleTheory] = None
) -> PropertyReport:
    """Structural sanity checks on a labelling frame.

    The optimism bound is diagnostic only; everything else applicable must
    hold for the report to be ok.
    """
    graph = plf.graph
    labels = plf.spec.label_set.labels
    has_in = ArgLabel.IN in labels
    has_off = ArgLabel.OFF in labels
    ids = graph.ids()

    def p(arg_id: str, label: ArgLabel) -> Fraction:
        return argument_label_probability(plf, arg_id, label)

    def certain(a: str) -> Fraction:
        return p(a, ArgLabel.IN) + (p(a, ArgLabel.OFF) if has_off else ZERO)

    def symmetric(phi: Literal, psi: Literal) -> bool:
        if theory is None:
            return psi == phi.complement()
        return in_conflict(theory, phi, psi) and in_conflict(theory, psi, phi)

    def p_in(statement: Literal) -> Fraction:
        return statement_label_probability(plf, statement, StatementLabel.IN)

    conclusions = sorted({a.conclusion for a in graph.arguments.values()}, key=str)
    return PropertyReport([
        # No IN probability mass on both ends of an attack.
        _result("coherence", has_in, (
            f"attack ({b}, {a})" for b, a in graph.sorted_attacks()
            if p(a, ArgLabel.IN) + p(b, ArgLabel.IN) > 1
        )),
        # Unattacked arguments are certain: IN, or IN-unless-absent.
        _result("foundedness", plf.spec.semantics in _COMPLETE_FAMILY, (
            a for a in ids if not graph.attackers[a] and certain(a) != 1
        )),
        # Being accepted is at most as likely as being present.
        _result("in_implies_on", has_in and has_off, (
            a for a in ids if p(a, ArgLabel.IN) > 1 - p(a, ArgLabel.OFF)
        )),
        # A present argument has all its subarguments present.
        _result("subargument_on_monotone", has_off and bool(graph.sub_edges), (
            f"sub edge ({child}, {parent})" for child, parent in sorted(graph.sub_edges)
            if 1 - p(parent, ArgLabel.OFF) > 1 - p(child, ArgLabel.OFF)
        )),
        # Statements in mutual conflict cannot both be accepted.
        _result("conflicting_statements", has_in, (
            f"({phi}, {psi})" for phi, psi in itertools.combinations(conclusions, 2)
            if symmetric(phi, psi) and p_in(phi) + p_in(psi) > 1
        )),
        # Diagnostic: lower bound on acceptance from attacker acceptance.
        _result("optimism", has_in, (
            a for a in ids
            if p(a, ArgLabel.IN) < 1 - sum((p(b, ArgLabel.IN) for b in graph.attackers[a]), ZERO)
        ), mandatory=False),
    ])
