"""Marginal queries, statement labels, justification, and property checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Mapping, Optional

from .core import (
    ArgLabel,
    ArgumentationGraph,
    DefeasibleTheory,
    Justification,
    Labelling,
    LabelSet,
    Literal,
    in_conflict,
)
from .frames import PLF, ZERO
from .semantics import Semantics

_COMPLETE_FAMILY = {
    Semantics.COMPLETE,
    Semantics.GROUNDED,
    Semantics.PREFERRED,
    Semantics.STABLE,
}


def argument_label_probability(plf: PLF, arg_id: str, label: ArgLabel) -> Fraction:
    """Read off the frame's marginal table; raises KeyError for unknown ids."""
    return plf.marginals[arg_id].get(label, ZERO)


def joint_probability(plf: PLF, assignment: Mapping[str, ArgLabel]) -> Fraction:
    for arg_id in assignment:
        if arg_id not in plf.graph.arguments:
            raise KeyError(arg_id)
    return sum(
        (
            p
            for l, p in plf.probs.items()
            if all(l.label(a) is lab for a, lab in assignment.items())
        ),
        ZERO,
    )


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
    labels = [
        mapping[a.canonical_id] for a in graph.arguments.values() if a.conclusion == statement
    ]
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


def statement_label_probability(
    plf: PLF,
    statement: Literal,
    label: StatementLabel,
    scheme: StatementScheme = StatementScheme.WORSTCASE,
) -> Fraction:
    return sum(
        (
            p
            for l, p in plf.probs.items()
            if statement_label(l, plf.graph, statement, scheme) is label
        ),
        ZERO,
    )


def justification_from_plf(plf: PLF, arg_id: str) -> Justification:
    """Justification status read off the label marginals.

    Off-justified when OFF has probability 1, skeptically justified when IN
    has probability 1, credulously justified when IN has probability strictly
    between 0 and 1, and not justified otherwise.  Agrees with the
    semi-skeptical status over the support labellings.
    """
    p_in = argument_label_probability(plf, arg_id, ArgLabel.IN)
    if plf.spec.label_set is LabelSet.IN_OUT_UN_OFF:
        if argument_label_probability(plf, arg_id, ArgLabel.OFF) == 1:
            return Justification.OFJ
    if p_in == 1:
        return Justification.SKJ
    if p_in > 0:
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

    results: List[PropertyResult] = []

    # No IN probability mass on both ends of an attack.
    coherence = PropertyResult("coherence", applicable=has_in, holds=True)
    if has_in:
        for b, a in sorted(graph.attacks):
            if p(a, ArgLabel.IN) + p(b, ArgLabel.IN) > 1:
                coherence.holds = False
                coherence.violations.append(f"attack ({b}, {a})")
    results.append(coherence)

    # Unattacked arguments are certain: IN, or IN-unless-absent.
    founded_applicable = plf.spec.semantics in _COMPLETE_FAMILY
    foundedness = PropertyResult("foundedness", applicable=founded_applicable, holds=True)
    if founded_applicable:
        attacked = {a for _, a in graph.attacks}
        for a in ids:
            if a in attacked:
                continue
            certain = p(a, ArgLabel.IN)
            if has_off:
                certain += p(a, ArgLabel.OFF)
            if certain != 1:
                foundedness.holds = False
                foundedness.violations.append(a)
    results.append(foundedness)

    # Being accepted is at most as likely as being present.
    in_on = PropertyResult("in_implies_on", applicable=has_in and has_off, holds=True)
    if in_on.applicable:
        for a in ids:
            if p(a, ArgLabel.IN) > 1 - p(a, ArgLabel.OFF):
                in_on.holds = False
                in_on.violations.append(a)
    results.append(in_on)

    # A present argument has all its subarguments present.
    sub_mono = PropertyResult(
        "subargument_on_monotone",
        applicable=has_off and bool(graph.sub_edges),
        holds=True,
    )
    if sub_mono.applicable:
        for child, parent in sorted(graph.sub_edges):
            if 1 - p(parent, ArgLabel.OFF) > 1 - p(child, ArgLabel.OFF):
                sub_mono.holds = False
                sub_mono.violations.append(f"sub edge ({child}, {parent})")
    results.append(sub_mono)

    # Statements in mutual conflict cannot both be accepted.
    conflict_bounds = PropertyResult("conflicting_statements", applicable=has_in, holds=True)
    if has_in:
        conclusions = sorted(
            {a.conclusion for a in graph.arguments.values()}, key=str
        )
        seen = set()
        for phi in conclusions:
            for psi in conclusions:
                if (psi, phi) in seen or phi == psi:
                    continue
                symmetric = (
                    theory is not None
                    and in_conflict(theory, phi, psi)
                    and in_conflict(theory, psi, phi)
                ) or (theory is None and psi == phi.complement())
                if not symmetric:
                    continue
                seen.add((phi, psi))
                p_phi = statement_label_probability(plf, phi, StatementLabel.IN)
                p_psi = statement_label_probability(plf, psi, StatementLabel.IN)
                if p_phi + p_psi > 1:
                    conflict_bounds.holds = False
                    conflict_bounds.violations.append(f"({phi}, {psi})")
    results.append(conflict_bounds)

    # Diagnostic: lower bound on acceptance from attacker acceptance.
    optimism = PropertyResult("optimism", applicable=has_in, holds=True, mandatory=False)
    if has_in:
        for a in ids:
            bound = 1 - sum((p(b, ArgLabel.IN) for b in graph.attackers_of(a)), ZERO)
            if p(a, ArgLabel.IN) < bound:
                optimism.holds = False
                optimism.violations.append(a)
    results.append(optimism)

    return PropertyReport(results)
