from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arglab import TheoryParseError, lit, parse_rational, parse_theory, serialize_theory
from arglab.dsl import (
    parse_argument_probabilities,
    parse_assignment_distribution,
    parse_subset_distribution,
)
from arglab.core import ArgLabel, DefeasibleTheory, Literal, Rule

from conftest import RUNNING_EXAMPLE


def test_parse_running_example():
    t = parse_theory(RUNNING_EXAMPLE)
    assert set(t.rules) == {"rb1", "rb2", "rb", "rc", "rd"}
    rb = t.rules["rb"]
    assert rb.body_plain == (lit("b1"), lit("b2"))
    assert rb.head == lit("-b")
    rc = t.rules["rc"]
    assert rc.body_plain == ()
    assert rc.body_naf == {lit("-b")}
    assert rc.head == lit("c")
    assert t.rule_probs == {"rb1": Fraction(1, 2), "rb2": Fraction(1, 5)}


def test_parse_conflicts_and_superiority():
    t = parse_theory(
        "r1 : => a.\nr2 : => b.\nconflict(a, b).\nr1 > r2.\n# a comment\n"
    )
    assert (lit("a"), lit("b")) in t.conflicts
    assert ("r1", "r2") in t.superiority


def test_rationals_parse_exactly():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("0.4") == Fraction(2, 5)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("1") == 1
    for bad in ("1e-3", "-1/2", ".5", "1/", "nan"):
        with pytest.raises(TheoryParseError):
            parse_rational(bad)


@pytest.mark.parametrize(
    "text",
    [
        "r1 : => a",  # missing dot
        "r1 : => a.\nr1 : => b.",  # duplicate rule id
        "what is this.",
        "conflict(a).",
        "p(r1) = 1/2.",  # probability for unknown rule
        "r1 : => a.\nr1 > r2.",  # superiority over unknown rule
        "r1 : => a b.",  # malformed head literal
        "p(r1) = 0.5.\np(r1) = 0.5.",
    ],
)
def test_parse_errors(text):
    with pytest.raises(TheoryParseError):
        parse_theory(text)


def test_parse_error_reports_line():
    with pytest.raises(TheoryParseError) as err:
        parse_theory("r1 : => a.\nbroken\n")
    assert "line 2" in str(err.value)


def test_round_trip_running_example():
    t = parse_theory(RUNNING_EXAMPLE)
    assert parse_theory(serialize_theory(t)) == t


_atoms = st.sampled_from(["a", "b", "c", "d"])
_literals = st.builds(Literal, _atoms, st.booleans())


@st.composite
def theories(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    rules = {}
    for i in range(n):
        rid = f"r{i}"
        body = tuple(draw(st.lists(_literals, max_size=2)))
        naf = frozenset(draw(st.sets(_literals, max_size=2)))
        rules[rid] = Rule(rid, body, naf, draw(_literals))
    conflicts = frozenset(draw(st.sets(st.tuples(_literals, _literals), max_size=2)))
    superiority = frozenset()
    probs = {}
    if rules:
        ids = sorted(rules)
        superiority = frozenset(
            draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2))
        )
        for rid in ids:
            if draw(st.booleans()):
                probs[rid] = Fraction(
                    draw(st.integers(min_value=0, max_value=6)),
                    draw(st.integers(min_value=1, max_value=6)),
                )
    return DefeasibleTheory(rules, conflicts, superiority, probs)


@given(theories())
@settings(max_examples=150)
def test_serialize_parse_round_trip(theory):
    assert parse_theory(serialize_theory(theory)) == theory


def test_subset_distribution_files():
    entries = parse_subset_distribution("{r1, r2} : 1/2.\n{} : 1/2.\n")
    assert entries == [
        (frozenset({"r1", "r2"}), Fraction(1, 2)),
        (frozenset(), Fraction(1, 2)),
    ]
    with pytest.raises(TheoryParseError):
        parse_subset_distribution("r1 : 1.\n")
    with pytest.raises(TheoryParseError):
        parse_subset_distribution("{r1} : 1\n")


def test_assignment_distribution_files():
    entries = parse_assignment_distribution("{rb()=IN, rc()=OFF} : 2/3.\n")
    assert entries == [({"rb()": ArgLabel.IN, "rc()": ArgLabel.OFF}, Fraction(2, 3))]
    with pytest.raises(TheoryParseError):
        parse_assignment_distribution("{rb()=MAYBE} : 1.\n")
    with pytest.raises(TheoryParseError):
        parse_assignment_distribution("{rb()} : 1.\n")


def test_nested_ids_round_trip(running_graph):
    ids = running_graph.ids()
    assert any("," in a for a in ids)
    subset_text = "{" + ", ".join(ids) + "} : 1.\n"
    assert parse_subset_distribution(subset_text) == [(frozenset(ids), Fraction(1))]
    assignment = {a: ArgLabel.IN for a in ids}
    assignment_text = "{" + ", ".join(f"{a}={l.value}" for a, l in assignment.items()) + "} : 1.\n"
    assert parse_assignment_distribution(assignment_text) == [(assignment, Fraction(1))]
    for a in ids:
        assert parse_subset_distribution(f"{{{a}}} : 1.") == [(frozenset({a}), Fraction(1))]


def test_argument_probability_files():
    probs = parse_argument_probabilities("rb() : 1/2.\nrc() : 0.5. # half\n")
    assert probs == {"rb()": Fraction(1, 2), "rc()": Fraction(1, 2)}
    with pytest.raises(TheoryParseError):
        parse_argument_probabilities("rb() : 1.\nrb() : 0.\n")


def test_zero_denominator_is_a_parse_error():
    """Every file format reads its probabilities through parse_rational."""
    for text in ("1/0", "0/0"):
        with pytest.raises(TheoryParseError, match=f"zero denominator in '{text}'"):
            parse_rational(text)
    with pytest.raises(TheoryParseError, match="line 2, col 0: zero denominator"):
        parse_theory("r1 : => a.\np(r1) = 1/0.\n")
    with pytest.raises(TheoryParseError, match="zero denominator"):
        parse_subset_distribution("{r1} : 1/0.\n")
    with pytest.raises(TheoryParseError, match="zero denominator"):
        parse_assignment_distribution("{rb()=IN} : 3/0.\n")
    with pytest.raises(TheoryParseError, match="zero denominator"):
        parse_argument_probabilities("rb() : 1/0.\n")


def test_assignment_naming_an_id_twice_is_a_parse_error():
    with pytest.raises(TheoryParseError, match="line 2, col 1: duplicate id 'rb\\(\\)' in assignment"):
        parse_assignment_distribution("{rc()=IN} : 1/2.\n{rb()=IN, rc()=OUT, rb()=OUT} : 1/2.\n")
    # the same label twice is still a duplicate
    with pytest.raises(TheoryParseError, match="duplicate id"):
        parse_assignment_distribution("{rb()=IN, rb()=IN} : 1.\n")
    # nested ids are split whole, so ids sharing a subargument are distinct
    entries = parse_assignment_distribution("{rb(rb1(),rb2())=IN, rb1()=OUT} : 1.\n")
    assert entries == [({"rb(rb1(),rb2())": ArgLabel.IN, "rb1()": ArgLabel.OUT}, Fraction(1))]
