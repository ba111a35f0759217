from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arglab import (
    PAG,
    DefeasibleTheory,
    PEF,
    PGF,
    PLF,
    PTF,
    ArgLabel,
    CapExceededError,
    DistributionError,
    Labelling,
    LabellingSpec,
    LabelSet,
    Semantics,
    StatementLabel,
    SublabellingWeights,
    argument_label_probability,
    extension_probability,
    lit,
    pag_to_pgf,
    parse_theory,
    pef_from_plf,
    pgf_from_plf,
    pgf_from_ptf,
    plf_from_pef,
    plf_from_pgf,
    plf_with_semantics,
    ptf_independent,
    statement_marginal,
)
from arglab.construct import is_legal
from strategies import capped_graph, distributions, theories

from conftest import A_B, A_B1, A_B2, A_C, A_D, C_A, C_AB, C_ABC, C_B, C_BC

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"


def fs(*ids):
    return frozenset(ids)


def test_ptf_independent_running_example(running_theory):
    ptf = ptf_independent(running_theory)
    certain = {"rb", "rc", "rd"}
    expect = {
        fs(*certain): F(2, 5),
        fs("rb1", *certain): F(2, 5),
        fs("rb2", *certain): F(1, 10),
        fs("rb1", "rb2", *certain): F(1, 10),
    }
    assert dict(ptf.probs) == expect


def test_ptf_independent_zero_probability_rule():
    theory = parse_theory("r1 : => a.\nr2 : => b.\np(r1) = 0.\n")
    ptf = ptf_independent(theory)
    assert dict(ptf.probs) == {fs("r2"): F(1)}


def test_ptf_independent_rejects_bad_probability():
    theory = parse_theory("r1 : => a.\np(r1) = 3/2.\n")
    with pytest.raises(DistributionError):
        ptf_independent(theory)


def test_ptf_independent_caps_uncertain_rules():
    theory = parse_theory(
        "r1 : => a.\nr2 : => b.\nr3 : => c.\nr4 : => d.\n"
        "p(r1) = 1/2.\np(r2) = 1/3.\np(r3) = 1/4.\np(r4) = 1.\n"
    )
    with pytest.raises(CapExceededError, match="3 uncertain rules"):
        ptf_independent(theory, max_rules=2)
    # certain rules do not count against the cap
    assert len(ptf_independent(theory, max_rules=3).probs) == 8


def test_plf_with_semantics_rejects_subgraph_without_labelling():
    theory = parse_theory("r1 : ~b => a.\nr2 : ~c => b.\nr3 : ~a => c.\n")
    pgf = pgf_from_ptf(ptf_independent(theory))
    with pytest.raises(DistributionError, match="has no stable labelling"):
        plf_with_semantics(pgf, Semantics.STABLE)
    assert SublabellingWeights().weights_for([]) == []


# Explicit sixteen-subtheory distribution over the chain theory, in
# sixteenths; three subtheories get probability zero.
CHAIN_PTF = [
    (fs("r1", "r2", "r3", "r4"), F(1, 16)),
    (fs("r1", "r2", "r3"), F(2, 16)),
    (fs("r1", "r2", "r4"), F(0)),
    (fs("r1", "r2"), F(1, 16)),
    (fs("r1", "r3", "r4"), F(1, 16)),
    (fs("r1", "r3"), F(1, 16)),
    (fs("r1", "r4"), F(0)),
    (fs("r1"), F(2, 16)),
    (fs("r2", "r3", "r4"), F(1, 16)),
    (fs("r2", "r3"), F(1, 16)),
    (fs("r2", "r4"), F(1, 16)),
    (fs("r2"), F(1, 16)),
    (fs("r3", "r4"), F(0)),
    (fs("r3"), F(0)),
    (fs("r4"), F(3, 16)),
    (fs(), F(1, 16)),
]


def test_pgf_from_ptf_pushforward(chain_theory):
    pgf = pgf_from_ptf(PTF(chain_theory, CHAIN_PTF))
    expect = {
        fs(C_A, C_B, C_AB, C_BC, C_ABC): F(1, 16),
        fs(C_A, C_B, C_AB): F(1, 8),
        fs(C_A, C_B): F(1, 16),
        fs(C_A, C_AB, C_ABC): F(1, 16),
        fs(C_A, C_AB): F(1, 16),
        fs(C_A): F(1, 8),
        fs(C_B, C_BC): F(1, 8),
        fs(C_B): F(1, 8),
        fs(): F(1, 4),
    }
    assert dict(pgf.probs) == expect
    # unreachable or zero-mass subgraphs carry no probability
    for absent in (fs(C_A, C_B, C_AB, C_BC), fs(C_A, C_B, C_BC)):
        assert pgf.probs.get(absent, F(0)) == 0


def test_pgf_support_is_legal(chain_theory):
    pgf = pgf_from_ptf(PTF(chain_theory, CHAIN_PTF))
    for subset in pgf.probs:
        assert is_legal(pgf.graph, subset)


def test_pgf_plf_round_trip(chain_theory):
    pgf = pgf_from_ptf(PTF(chain_theory, CHAIN_PTF))
    plf = plf_from_pgf(pgf)
    assert dict(pgf_from_plf(plf).probs) == dict(pgf.probs)
    for labelling in plf.probs:
        on = labelling.with_label(ArgLabel.ON)
        assert plf.probs[labelling] == pgf.probs[on]


def test_pgf_from_plf_requires_on_off(mutual_graph):
    pef = PEF(mutual_graph, {fs("rb()"): F(1)})
    with pytest.raises(DistributionError):
        pgf_from_plf(plf_from_pef(pef))


def test_grounded_pipeline_running_example(running_theory):
    plf = plf_with_semantics(
        pgf_from_ptf(ptf_independent(running_theory)), Semantics.GROUNDED
    )
    by_mapping = {
        tuple(sorted((a, l.value) for a, l in lab.entries)): p
        for lab, p in plf.probs.items()
    }
    assert len(by_mapping) == 4
    full = tuple(
        sorted(
            {
                A_B1: "IN",
                A_B2: "IN",
                A_B: "IN",
                A_C: "OUT",
                A_D: "IN",
            }.items()
        )
    )
    assert by_mapping[full] == F(1, 10)
    assert sorted(by_mapping.values()) == [F(1, 10), F(1, 10), F(2, 5), F(2, 5)]


def _preferred_weights():
    return SublabellingWeights.from_entries(
        [({A_C: ArgLabel.IN}, F(2, 3)), ({A_D: ArgLabel.IN}, F(1, 3))]
    )


def test_preferred_pipeline_with_weights(running_theory):
    pgf = pgf_from_ptf(ptf_independent(running_theory))
    plf = plf_with_semantics(pgf, Semantics.PREFERRED, weights=_preferred_weights())
    assert sorted(plf.probs.values()) == sorted(
        [F(2, 15), F(4, 15), F(2, 15), F(4, 15), F(1, 30), F(1, 15), F(1, 10)]
    )
    assert sum(plf.probs.values()) == 1


def test_uniform_weights_by_default(mutual_graph):
    pgf = PGF(mutual_graph, {fs("rb()", "rc()"): F(4, 5), fs("rb()"): F(1, 5)})
    plf = plf_with_semantics(pgf, Semantics.PREFERRED)
    by_mapping = {frozenset(l.entries): p for l, p in plf.probs.items()}
    assert by_mapping == {
        frozenset({("rb()", ArgLabel.IN), ("rc()", ArgLabel.OUT)}): F(2, 5),
        frozenset({("rb()", ArgLabel.OUT), ("rc()", ArgLabel.IN)}): F(2, 5),
        frozenset({("rb()", ArgLabel.IN), ("rc()", ArgLabel.OFF)}): F(1, 5),
    }


def test_weights_must_sum_to_one(mutual_graph):
    pgf = PGF(mutual_graph, {fs("rb()", "rc()"): F(1)})
    bad = SublabellingWeights.from_entries(
        [({"rb()": ArgLabel.IN}, F(1, 2)), ({"rc()": ArgLabel.IN}, F(1, 4))]
    )
    with pytest.raises(DistributionError):
        plf_with_semantics(pgf, Semantics.PREFERRED, weights=bad)


def test_weights_naming_an_unknown_argument_are_rejected(mutual_graph):
    pgf = PGF(mutual_graph, {fs("rb()", "rc()"): F(1)})
    weights = SublabellingWeights.from_entries(
        [({"rb()": ArgLabel.IN}, F(1, 2)), ({"zz()": ArgLabel.IN, "rc()": ArgLabel.IN}, F(1, 2))]
    )
    with pytest.raises(DistributionError, match=r"weights name unknown arguments \['zz\(\)'\]"):
        plf_with_semantics(pgf, Semantics.PREFERRED, weights=weights)


@pytest.mark.parametrize("weight", [0.25, "x"])
def test_weight_that_is_not_rational_is_rejected_at_its_entry(weight):
    """The refusal names a weight, not a probability."""
    with pytest.raises(DistributionError, match=(
        r"^weight .* for entry \{ra\(\)=IN, rb\(\)=OUT\} is not a Fraction or an int$"
    )):
        SublabellingWeights.from_entries([({"rb()": ArgLabel.OUT, "ra()": ArgLabel.IN}, weight)])


def test_plf_with_semantics_rejects_incomplete_subgraphs(chain_graph):
    pgf = PGF(chain_graph, {fs(C_BC): F(1)})
    with pytest.raises(DistributionError):
        plf_with_semantics(pgf, Semantics.GROUNDED)


def test_pef_round_trip_and_marginal(mutual_graph):
    pef = PEF(mutual_graph, {fs("rb()"): F(2, 5), fs("rc()"): F(3, 5)})
    plf = plf_from_pef(pef)
    assert argument_label_probability(plf, "rb()", ArgLabel.IN) == F(2, 5)
    assert argument_label_probability(plf, "rc()", ArgLabel.IN) == F(3, 5)
    assert dict(pef_from_plf(plf).probs) == dict(pef.probs)
    # believed arguments are IN, everything else OUT
    for labelling, p in plf.probs.items():
        assert labelling.with_label(ArgLabel.UN) == frozenset()


def _rows(table):
    return {key: list(dist.items()) for key, dist in table.items()}


@given(theories(), st.data())
@settings(max_examples=25, deadline=None)
def test_pef_round_trip_random(theory, data):
    """A believed-set frame round-trips through its labelling frame.  A frame
    built by hand, and those of plf_from_pgf and plf_from_pef, build ``probs``
    only when read, and the checked constructor rebuilds each from its own
    ``probs``, with the same outcomes, tables and rows in the same order."""
    graph = capped_graph(theory, min_args=1)
    ids = graph.ids()
    subsets = st.frozensets(st.sampled_from(ids))
    pef = PEF(graph, data.draw(distributions(subsets)))
    assert dict(pef_from_plf(plf_from_pef(pef)).probs) == dict(pef.probs)
    label_set = data.draw(st.sampled_from(list(LabelSet)))
    labels = sorted(label_set.labels, key=lambda l: l.rank)
    rows = data.draw(distributions(st.tuples(*[st.sampled_from(labels) for _ in ids])))
    hand = PLF(graph, LabellingSpec(label_set),
               [(Labelling.over(graph, label_set, row), p) for row, p in rows.items()])
    pgf = PGF(graph, data.draw(distributions(subsets)))
    for plf in (hand, plf_from_pgf(pgf), plf_from_pef(pef)):
        assert "probs" not in vars(plf)
        rebuilt = PLF(plf.graph, plf.spec, list(plf.probs.items()))
        assert list(rebuilt.probs.items()) == list(plf.probs.items())
        assert _rows(rebuilt.marginals) == _rows(plf.marginals)
        assert _rows(rebuilt.conclusion_label_sets) == _rows(plf.conclusion_label_sets)
        assert rebuilt.support() == plf.support()
    assert [(l.labels, p) for l, p in hand.probs.items()] == list(rows.items())


def test_frames_are_handed_over_unchecked(running_theory, mutual_graph, monkeypatch):
    """The engine's labelling frames skip the checked constructor, whose
    checks hold by construction, and reading them never calls it either."""

    def checked(*args):
        raise AssertionError("the frame was checked again")

    monkeypatch.setattr(PLF, "__init__", checked)
    pgf = pgf_from_ptf(ptf_independent(running_theory))
    weights = SublabellingWeights.from_entries(
        [({"rb()": ArgLabel.IN}, F(1, 3)), ({"rc()": ArgLabel.IN}, F(2, 3))]
    )
    frames = [
        plf_with_semantics(pgf, Semantics.GROUNDED),
        plf_with_semantics(PGF(mutual_graph, {fs("rb()", "rc()"): F(1)}), Semantics.PREFERRED,
                           weights),
        plf_from_pgf(pgf),
        plf_from_pef(PEF(mutual_graph, {fs("rb()"): F(1)})),
    ]
    for plf in frames:
        assert plf.probs and plf.marginals and plf.conclusion_label_sets
    assert frames[1].marginals["rb()"][ArgLabel.IN] == F(1, 3)


def test_pag_subgraph_probability(mutual_graph):
    pag = PAG(
        mutual_graph.without_sub_edges(),
        {"rb()": F(1, 2), "rc()": F(1, 3)},
    )
    pgf = pag_to_pgf(pag)
    assert pgf.probs[fs("rb()")] == F(1, 3)
    assert pgf.probs[fs("rb()", "rc()")] == F(1, 6)
    assert sum(pgf.probs.values()) == 1


def test_pag_extension_probability(mutual_graph):
    abstract = mutual_graph.without_sub_edges()
    unit = PAG(abstract, {"rb()": F(1), "rc()": F(1)})
    assert extension_probability(unit, Semantics.PREFERRED, {"rb()"}) == 1
    assert extension_probability(unit, Semantics.PREFERRED, {"rc()"}) == 1
    assert extension_probability(unit, Semantics.GROUNDED, {"rb()"}) == 0
    assert extension_probability(unit, Semantics.GROUNDED, set()) == 1

    half = PAG(abstract, {"rb()": F(1, 2), "rc()": F(1, 2)})
    assert extension_probability(half, Semantics.PREFERRED, {"rb()"}) == F(1, 2)
    assert extension_probability(half, Semantics.GROUNDED, {"rb()"}) == F(1, 4)


def test_distribution_validation(mutual_graph):
    theory = parse_theory("r1 : => a.\n")
    with pytest.raises(DistributionError):
        PTF(theory, [(fs("r1"), F(1, 2))])  # does not sum to 1
    with pytest.raises(DistributionError):
        PTF(theory, [(fs("r1"), F(3, 2)), (fs(), F(-1, 2))])
    with pytest.raises(DistributionError):
        PTF(theory, [(fs("r9"), F(1))])  # unknown rule
    with pytest.raises(DistributionError):
        PGF(mutual_graph, {fs("nope()"): F(1)})
    # every frame constructor checks the total, however it is called
    with pytest.raises(DistributionError):
        PGF(mutual_graph, {fs("rb()"): F(1, 2)})
    with pytest.raises(DistributionError):
        PEF(mutual_graph, {fs("rb()"): F(7)})
    on_off = plf_from_pgf(PGF(mutual_graph, {fs("rb()"): F(1)}))
    (labelling,) = on_off.probs
    with pytest.raises(DistributionError):
        PLF(mutual_graph, on_off.spec, {labelling: F(2)})
    with pytest.raises(DistributionError):
        PLF(mutual_graph, on_off.spec, [(labelling, F(1, 2)), (labelling, F(1, 3))])
    # duplicates merge, zeros drop, and the stored distribution is read-only
    pgf = PGF(mutual_graph, [(fs("rb()"), F(1, 2)), (fs("rb()"), F(1, 2)), (fs(), F(0))])
    assert dict(pgf.probs) == {fs("rb()"): F(1)}
    with pytest.raises(TypeError):
        pgf.probs[fs()] = F(0)
    with pytest.raises(DistributionError):
        PAG(mutual_graph, {"rb()": F(1)})  # missing an argument
    with pytest.raises(DistributionError):
        PAG(mutual_graph, {"rb()": F(1), "rc()": F(2)})  # out of range


def test_checked_plf_pins_each_outcome_message(mutual_graph):
    """The checked constructor refuses a labelling in another label set, over
    other ids, with a label short, or with a label outside its label set."""
    ids = mutual_graph.ids()
    spec = LabellingSpec(LabelSet.IN_OUT_UN)
    wrong = [
        (Labelling(LabelSet.ON_OFF, ids, (ArgLabel.ON, ArgLabel.OFF)),
         r"^labelling outcome has the wrong label set$"),
        (Labelling(LabelSet.IN_OUT_UN, ids[:1], (ArgLabel.IN,)),
         r"^labelling outcome is not total over the graph$"),
        (Labelling(LabelSet.IN_OUT_UN, ids, (ArgLabel.IN,)),
         r"^labelling outcome does not give one label per argument$"),
        (Labelling(LabelSet.IN_OUT_UN, ids, (ArgLabel.ON, ArgLabel.OFF)),
         r"^labelling outcome has a label outside its label set$"),
    ]
    for labelling, message in wrong:
        with pytest.raises(DistributionError, match=message):
            PLF(mutual_graph, spec, {labelling: F(1)})


def test_distribution_probabilities_are_exact(mutual_graph):
    theory = parse_theory("r1 : => a.\n")
    with pytest.raises(DistributionError, match=r"^probabilities sum to 1/2, expected 1$"):
        PTF(theory, [(fs("r1"), F(1, 3)), (fs(), F(1, 6))])
    with pytest.raises(DistributionError, match=r"^negative probability -1/2 for"):
        PTF(theory, [(fs("r1"), F(3, 2)), (fs(), F(-1, 2))])
    # a float would silently break the all-Fraction invariant
    with pytest.raises(DistributionError, match="not a Fraction or an int"):
        PTF(theory, {fs("r1"): 0.5, fs(): 0.5})
    with pytest.raises(DistributionError, match="not a Fraction or an int"):
        ptf_independent(DefeasibleTheory(theory.rules, rule_probs={"r1": 0.5}))
    with pytest.raises(DistributionError, match="not a Fraction or an int"):
        PAG(mutual_graph, {"rb()": 0.5, "rc()": F(1)})
    # ints are exact and become Fractions
    ptf = PTF(theory, {fs("r1"): 1, fs(): 0})
    assert dict(ptf.probs) == {fs("r1"): F(1)}
    assert type(ptf.probs[fs("r1")]) is Fraction


def test_rule_used_in_two_components_is_read_off_the_subgraph_distribution():
    """In ``shared.dl`` the uncertain rule ``r`` builds ``r(rb1())`` and
    ``r(rb2())``, in two components, so the subgraph distribution is not the
    product of its parts.  The frame still has one factor per component, and
    ``a`` is IN exactly when ``r`` is present, 1/2: multiplying the two
    factors holding its arguments would give 1 - (1 - 1/6)(1 - 1/2) = 7/12."""
    pgf = pgf_from_ptf(ptf_independent(parse_theory((GOLDEN / "shared.dl").read_text())))
    for semantics in (Semantics.GROUNDED, Semantics.PREFERRED):
        plf = plf_with_semantics(pgf, semantics)
        ids = plf.graph.ids()
        factors = [{ids[j] for j in positions} for positions in plf._factors.positions]
        assert factors == [{"np()", "nq()"}, {"r(rb1())", "rb1()"}, {"r(rb2())", "rb2()"}]
        assert statement_marginal(plf, lit("a"))[StatementLabel.IN] == F(1, 2)
        p1, p2 = (plf.marginals[a][ArgLabel.IN] for a in ("r(rb1())", "r(rb2())"))
        assert (p1, p2) == (F(1, 6), F(1, 2))
        assert 1 - (1 - p1) * (1 - p2) == F(7, 12)
