"""End-to-end acceptance checks, one test per criterion.

All probability comparisons are exact (rational arithmetic); no tolerances.
"""

import random
from fractions import Fraction

from arglab import (
    PAG,
    PEF,
    PLF,
    PTF,
    ArgLabel,
    Justification,
    Labelling,
    LabellingSpec,
    LabelSet,
    Semantics,
    StatementLabel,
    SublabellingWeights,
    argument_label_probability,
    check_properties,
    extension_probability,
    grounded_labelling,
    justification_from_plf,
    labellings,
    lit,
    pef_from_plf,
    pgf_from_plf,
    pgf_from_ptf,
    plf_from_pef,
    plf_from_pgf,
    plf_with_semantics,
    ptf_independent,
    statement_label_probability,
)
from arglab.construct import is_legal
from randgen import random_distribution, small_graph_theory

from conftest import A_B, A_B1, A_B2, A_C, A_D, C_A, C_AB, C_B, C_BC
from test_frames import CHAIN_PTF

F = Fraction
B, C = "rb()", "rc()"


def _passed(n):
    print(f"acceptance criterion {n}: PASS")


def test_criterion_1_argument_and_attack_construction(running_graph):
    assert set(running_graph.arguments) == {A_B1, A_B2, A_B, A_C, A_D}
    assert running_graph.attacks == {(A_B, A_C), (A_C, A_D), (A_D, A_C)}
    _passed(1)


def test_criterion_2_grounded_preferred_stable_agree(running_graph):
    expected = {
        A_B1: ArgLabel.IN,
        A_B2: ArgLabel.IN,
        A_B: ArgLabel.IN,
        A_C: ArgLabel.OUT,
        A_D: ArgLabel.IN,
    }
    assert grounded_labelling(running_graph).mapping == expected
    for semantics in (Semantics.GROUNDED, Semantics.PREFERRED, Semantics.STABLE):
        spec = LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics)
        assert [l.mapping for l in labellings(running_graph, spec)] == [expected]
    _passed(2)


def test_criterion_3_subtheory_distribution_pushforward(chain_theory):
    pgf = pgf_from_ptf(PTF(chain_theory, CHAIN_PTF))
    h12, h2, h4 = frozenset(), frozenset({C_A, C_B, C_AB, C_BC}), frozenset({C_A, C_B, C_AB})
    assert pgf.probs.get(h12, F(0)) == F(4, 16)
    assert pgf.probs.get(h2, F(0)) == F(0)
    assert pgf.probs.get(h4, F(0)) == F(2, 16)
    assert len(pgf.probs) == 9 and sum(pgf.probs.values()) == 1
    _passed(3)


def test_criterion_4_independent_grounded_pipeline(running_theory):
    plf = plf_with_semantics(
        pgf_from_ptf(ptf_independent(running_theory)), Semantics.GROUNDED
    )
    assert sorted(plf.probs.values()) == [F(1, 10), F(1, 10), F(2, 5), F(2, 5)]
    assert statement_label_probability(plf, lit("-b"), StatementLabel.IN) == F(1, 10)
    assert statement_label_probability(plf, lit("-b"), StatementLabel.OFF) == F(9, 10)
    assert statement_label_probability(plf, lit("c"), StatementLabel.UN) == F(9, 10)
    assert statement_label_probability(plf, lit("c"), StatementLabel.OUT) == F(1, 10)
    assert statement_label_probability(plf, lit("-c"), StatementLabel.IN) == F(1, 10)
    _passed(4)


def test_criterion_5_preferred_pipeline_with_weights(running_theory):
    weights = SublabellingWeights.from_entries(
        [({A_C: ArgLabel.IN}, F(2, 3)), ({A_D: ArgLabel.IN}, F(1, 3))]
    )
    plf = plf_with_semantics(
        pgf_from_ptf(ptf_independent(running_theory)),
        Semantics.PREFERRED,
        weights=weights,
    )
    assert sorted(plf.probs.values()) == sorted(
        [F(2, 15), F(4, 15), F(2, 15), F(4, 15), F(1, 30), F(1, 15), F(1, 10)]
    )
    # exact values; rounding the seven addends first gives roughly 0.61/0.39
    assert statement_label_probability(plf, lit("c"), StatementLabel.IN) == F(3, 5)
    assert statement_label_probability(plf, lit("-c"), StatementLabel.IN) == F(2, 5)
    _passed(5)


def _mutual_plf(mutual_graph):
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=Semantics.PREFERRED)

    def lab(lb, lc):
        return Labelling.from_mapping(LabelSet.IN_OUT_UN_OFF, {B: lb, C: lc})

    return PLF(
        mutual_graph,
        spec,
        {
            lab(ArgLabel.IN, ArgLabel.OUT): F(2, 5),
            lab(ArgLabel.OUT, ArgLabel.IN): F(2, 5),
            lab(ArgLabel.IN, ArgLabel.OFF): F(1, 5),
        },
    )


def test_criterion_6_explicit_labelling_frame(mutual_graph):
    plf = _mutual_plf(mutual_graph)
    assert argument_label_probability(plf, B, ArgLabel.IN) == F(3, 5)
    assert argument_label_probability(plf, B, ArgLabel.OUT) == F(2, 5)
    assert argument_label_probability(plf, C, ArgLabel.IN) == F(2, 5)
    assert argument_label_probability(plf, C, ArgLabel.OUT) == F(2, 5)
    assert argument_label_probability(plf, C, ArgLabel.OFF) == F(1, 5)
    assert justification_from_plf(plf, B) is Justification.CRJ
    assert justification_from_plf(plf, C) is Justification.CRJ
    _passed(6)


def test_criterion_7_extension_probability_vs_labelling_frame(mutual_graph):
    pag = PAG(mutual_graph.without_sub_edges(), {B: F(1), C: F(1)})
    assert extension_probability(pag, Semantics.PREFERRED, {B}) == 1
    assert extension_probability(pag, Semantics.PREFERRED, {C}) == 1
    # while the labelling frame view of the same scenario spreads the mass
    assert argument_label_probability(_mutual_plf(mutual_graph), B, ArgLabel.IN) == F(3, 5)
    _passed(7)


def test_criterion_8_property_sweep():
    rng = random.Random(2026)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 4000, "generator failed to produce enough theories"
        pair = small_graph_theory(rng, max_args=8)
        if pair is None:
            continue
        theory, graph = pair
        checked += 1
        small = len(graph.arguments) <= 6

        # grounded fixpoint agrees with enumeration, which yields the
        # inclusion-minimal IN set among complete labellings
        grounded = grounded_labelling(graph)
        complete = labellings(graph, LabellingSpec(LabelSet.IN_OUT_UN, semantics=Semantics.COMPLETE))
        assert grounded in complete
        g_in = grounded.with_label(ArgLabel.IN)
        for l in complete:
            assert g_in <= l.with_label(ArgLabel.IN)
        assert labellings(graph, LabellingSpec(LabelSet.IN_OUT_UN, semantics=Semantics.GROUNDED)) == [grounded]

        # stable labellings leave nothing undecided and are complete
        stable = labellings(graph, LabellingSpec(LabelSet.IN_OUT_UN, semantics=Semantics.STABLE))
        for l in stable:
            assert l.with_label(ArgLabel.UN) == frozenset()
            assert l in complete

        # subtheory distributions only ever hit legal subgraphs
        pgf = pgf_from_ptf(ptf_independent(theory), max_args=500)
        assert sum(pgf.probs.values()) == 1
        for subset in pgf.probs:
            assert is_legal(pgf.graph, subset)

        # PGF <-> PLF({ON,OFF}) round-trip
        assert dict(pgf_from_plf(plf_from_pgf(pgf)).probs) == dict(pgf.probs)

        # PEF <-> PLF round-trip on a random epistemic distribution
        ids = sorted(graph.arguments)
        believed = list({frozenset(a for a in ids if rng.random() < 0.5) for _ in range(3)})
        pef = PEF(graph, random_distribution(rng, believed))
        assert dict(pef_from_plf(plf_from_pef(pef)).probs) == dict(pef.probs)

        # grounded labelling frame: marginals behave
        plf = plf_with_semantics(pgf, Semantics.GROUNDED)
        report = check_properties(plf, theory)
        for name in ("foundedness", "in_implies_on", "subargument_on_monotone"):
            result = report.result(name)
            assert not result.applicable or result.holds, (name, result.violations)
        for arg_id in ids:
            total = sum(
                argument_label_probability(plf, arg_id, l)
                for l in LabelSet.IN_OUT_UN_OFF.labels
            )
            assert total == 1
        statements = {a.conclusion for a in graph.arguments.values()} | {lit("zzz")}
        for phi in statements:
            p_unp = statement_label_probability(plf, phi, StatementLabel.UNP)
            assert p_unp in (F(0), F(1))
            per_label = sum(
                statement_label_probability(plf, phi, l)
                for l in StatementLabel
                if l is not StatementLabel.NO
            )
            assert per_label == 1

        if small:
            # coherence under conflict-free labellings
            cf_plf = plf_with_semantics(pgf, Semantics.CF)
            assert check_properties(cf_plf, theory).result("coherence").holds
            # foundedness under complete labellings
            complete_plf = plf_with_semantics(pgf, Semantics.COMPLETE)
            assert check_properties(complete_plf, theory).result("foundedness").holds

    assert checked == 200
    _passed(8)
