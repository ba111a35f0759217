from fractions import Fraction

import pytest

from arglab import (
    PEF,
    ArgLabel,
    Justification,
    Labelling,
    LabellingSpec,
    LabelSet,
    PLF,
    Semantics,
    StatementLabel,
    StatementScheme,
    argument_label_probability,
    check_properties,
    joint_probability,
    justification_from_plf,
    lit,
    pgf_from_ptf,
    plf_from_pef,
    plf_from_pgf,
    plf_with_semantics,
    ptf_independent,
    semi_skeptical_justification,
    statement_label,
    statement_label_probability,
)

F = Fraction
B, C = "rb()", "rc()"


@pytest.fixture
def mutual_plf(mutual_graph):
    """Preferred-combined frame over two mutually attacking arguments."""
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=Semantics.PREFERRED)

    def lab(**labels):
        return Labelling.from_mapping(
            LabelSet.IN_OUT_UN_OFF, {B: labels["b"], C: labels["c"]}
        )

    probs = {
        lab(b=ArgLabel.IN, c=ArgLabel.OUT): F(2, 5),
        lab(b=ArgLabel.OUT, c=ArgLabel.IN): F(2, 5),
        lab(b=ArgLabel.IN, c=ArgLabel.OFF): F(1, 5),
    }
    return PLF(mutual_graph, spec, probs)


def test_argument_marginals(mutual_plf):
    assert argument_label_probability(mutual_plf, B, ArgLabel.IN) == F(3, 5)
    assert argument_label_probability(mutual_plf, B, ArgLabel.OUT) == F(2, 5)
    assert argument_label_probability(mutual_plf, B, ArgLabel.OFF) == 0
    assert argument_label_probability(mutual_plf, C, ArgLabel.IN) == F(2, 5)
    assert argument_label_probability(mutual_plf, C, ArgLabel.OUT) == F(2, 5)
    assert argument_label_probability(mutual_plf, C, ArgLabel.OFF) == F(1, 5)
    with pytest.raises(KeyError):
        argument_label_probability(mutual_plf, "nope()", ArgLabel.IN)


def test_joint_probability(mutual_plf):
    assert joint_probability(mutual_plf, {B: ArgLabel.IN, C: ArgLabel.OUT}) == F(2, 5)
    assert joint_probability(mutual_plf, {B: ArgLabel.IN}) == F(3, 5)
    assert joint_probability(mutual_plf, {B: ArgLabel.IN, C: ArgLabel.IN}) == 0
    assert joint_probability(mutual_plf, {}) == 1


def test_justification_crj_both(mutual_plf):
    assert justification_from_plf(mutual_plf, B) is Justification.CRJ
    assert justification_from_plf(mutual_plf, C) is Justification.CRJ


def test_justification_matches_semi_skeptical(running_theory, mutual_graph):
    pgf = pgf_from_ptf(ptf_independent(running_theory))
    # an argument OFF in every {ON, OFF} labelling is off-justified there too
    on, off = ArgLabel.ON, ArgLabel.OFF
    on_off = PLF(mutual_graph, LabellingSpec(LabelSet.ON_OFF), {
        Labelling.from_mapping(LabelSet.ON_OFF, {B: on, C: off}): F(1, 2),
        Labelling.from_mapping(LabelSet.ON_OFF, {B: off, C: off}): F(1, 2),
    })
    for plf in (plf_with_semantics(pgf, Semantics.GROUNDED), plf_from_pgf(pgf), on_off):
        support = plf.support()
        for arg_id in plf.graph.arguments:
            assert justification_from_plf(plf, arg_id) is semi_skeptical_justification(
                support, arg_id
            )
    assert justification_from_plf(on_off, C) is Justification.OFJ


def test_statement_label_clauses(mutual_graph):
    b, nb, x = lit("b"), lit("-b"), lit("x")

    def lab(lb, lc):
        return Labelling.from_mapping(LabelSet.IN_OUT_UN_OFF, {B: lb, C: lc})

    worst = StatementScheme.WORSTCASE
    assert statement_label(lab(ArgLabel.IN, ArgLabel.OUT), mutual_graph, b, worst) is StatementLabel.IN
    assert statement_label(lab(ArgLabel.OUT, ArgLabel.IN), mutual_graph, b, worst) is StatementLabel.OUT
    assert statement_label(lab(ArgLabel.UN, ArgLabel.UN), mutual_graph, b, worst) is StatementLabel.UN
    # UN dominates OUT when both appear for the same statement
    assert statement_label(lab(ArgLabel.OFF, ArgLabel.OFF), mutual_graph, b, worst) is StatementLabel.OFF
    assert statement_label(lab(ArgLabel.OUT, ArgLabel.OFF), mutual_graph, b, worst) is StatementLabel.OUT
    assert statement_label(lab(ArgLabel.IN, ArgLabel.IN), mutual_graph, x, worst) is StatementLabel.UNP

    bi = StatementScheme.BIVALENT
    assert statement_label(lab(ArgLabel.IN, ArgLabel.OUT), mutual_graph, b, bi) is StatementLabel.IN
    assert statement_label(lab(ArgLabel.OUT, ArgLabel.IN), mutual_graph, b, bi) is StatementLabel.NO
    assert statement_label(lab(ArgLabel.IN, ArgLabel.IN), mutual_graph, x, bi) is StatementLabel.NO
    assert statement_label(lab(ArgLabel.OUT, ArgLabel.IN), mutual_graph, nb, bi) is StatementLabel.IN


def test_statement_marginals(mutual_plf):
    b, nb = lit("b"), lit("-b")
    assert statement_label_probability(mutual_plf, b, StatementLabel.IN) == F(3, 5)
    assert statement_label_probability(mutual_plf, b, StatementLabel.OUT) == F(2, 5)
    assert statement_label_probability(mutual_plf, nb, StatementLabel.IN) == F(2, 5)
    assert statement_label_probability(mutual_plf, nb, StatementLabel.OFF) == F(1, 5)
    bi = StatementScheme.BIVALENT
    assert statement_label_probability(mutual_plf, b, StatementLabel.IN, bi) == F(3, 5)
    assert statement_label_probability(mutual_plf, b, StatementLabel.NO, bi) == F(2, 5)


def test_check_properties_clean_pipeline(running_theory, mutual_theory):
    plf = plf_with_semantics(
        pgf_from_ptf(ptf_independent(running_theory)), Semantics.GROUNDED
    )
    report = check_properties(plf, running_theory)
    assert report.ok
    for name in (
        "coherence",
        "foundedness",
        "in_implies_on",
        "subargument_on_monotone",
        "conflicting_statements",
    ):
        assert report.result(name).applicable
        assert report.result(name).holds


def test_check_properties_flags_incoherent_beliefs(mutual_graph, mutual_theory):
    # believing both of two mutually attacking arguments is incoherent
    pef = PEF(mutual_graph, {frozenset({B, C}): F(1)})
    report = check_properties(plf_from_pef(pef), mutual_theory)
    assert not report.ok
    coherence = report.result("coherence")
    assert coherence.holds is False
    assert coherence.violations
    assert report.result("conflicting_statements").holds is False
    # structural checks that need OFF are out of scope here
    assert not report.result("in_implies_on").applicable


def test_optimism_is_diagnostic_only(mutual_graph, mutual_theory):
    # believing neither argument violates the optimism bound but nothing else
    pef = PEF(mutual_graph, {frozenset(): F(1)})
    report = check_properties(plf_from_pef(pef), mutual_theory)
    optimism = report.result("optimism")
    assert optimism.holds is False
    assert not optimism.mandatory
    assert report.ok


def test_statement_marginal_sums_to_one(mutual_plf):
    for phi in (lit("b"), lit("-b"), lit("zzz")):
        total = sum(
            statement_label_probability(mutual_plf, phi, l)
            for l in StatementLabel
            if l is not StatementLabel.NO
        )
        assert total == 1
