import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from arglab import (
    ArgLabel,
    Argument,
    ArgumentationGraph,
    DefeasibleTheory,
    Justification,
    Labelling,
    LabelSet,
    Literal,
    Rule,
    close_conflicts,
    in_conflict,
    lit,
    semi_skeptical_justification,
)


def test_literal_parse_and_complement():
    assert lit("a") == Literal("a", False)
    assert lit("-a") == Literal("a", True)
    assert lit("a").complement() == lit("-a")
    assert lit("-a").complement().complement() == lit("-a")
    assert str(lit("-foo")) == "-foo"
    with pytest.raises(ValueError):
        Literal.parse("a b")


def test_close_conflicts_adds_complement_pairs_both_ways():
    rules = {"r": Rule("r", (), frozenset(), lit("a"))}
    theory = DefeasibleTheory(rules)
    closed = close_conflicts(theory)
    assert (lit("a"), lit("-a")) in closed
    assert (lit("-a"), lit("a")) in closed


def test_declared_conflicts_stay_directional():
    rules = {"r": Rule("r", (), frozenset(), lit("a"))}
    theory = DefeasibleTheory(rules, conflicts=frozenset({(lit("a"), lit("b"))}))
    assert in_conflict(theory, lit("a"), lit("b"))
    assert not in_conflict(theory, lit("b"), lit("a"))
    # the closure keeps the declared direction too
    closed = close_conflicts(theory)
    assert (lit("a"), lit("b")) in closed
    assert (lit("b"), lit("a")) not in closed


def test_theory_validates_references():
    rules = {"r": Rule("r", (), frozenset(), lit("a"))}
    with pytest.raises(ValueError):
        DefeasibleTheory(rules, superiority=frozenset({("r", "missing")}))
    with pytest.raises(ValueError):
        DefeasibleTheory(rules, rule_probs={"missing": 1})


def test_argument_accessors():
    a = Argument("r1", lit("a"))
    ab = Argument("r3", lit("b"), (a,))
    abc = Argument("r4", lit("c"), (ab,), frozenset({lit("-x")}))
    assert a.canonical_id == "r1()"
    assert ab.canonical_id == "r3(r1())"
    assert abc.canonical_id == "r4(r3(r1()))"
    assert [s.canonical_id for s in abc.subarguments()] == [
        "r4(r3(r1()))",
        "r3(r1())",
        "r1()",
    ]
    assert abc.rules() == {"r1", "r3", "r4"}
    assert abc.naf_premises == {lit("-x")}


def _two_args():
    a = Argument("r1", lit("a"))
    b = Argument("r2", lit("b"), (a,))
    return a, b


def test_graph_rejects_reflexive_or_cyclic_sub_edges():
    a, b = _two_args()
    args = {x.canonical_id: x for x in (a, b)}
    with pytest.raises(ValueError, match=r"^reflexive subargument edge on r1\(\)$"):
        ArgumentationGraph(args, frozenset(), frozenset({(a.canonical_id, a.canonical_id)}))
    with pytest.raises(ValueError, match=r"^subargument relation has a cycle$"):
        ArgumentationGraph(
            args,
            frozenset(),
            frozenset({(a.canonical_id, b.canonical_id), (b.canonical_id, a.canonical_id)}),
        )


def test_graph_requires_attack_propagation_to_parents():
    a, b = _two_args()
    c = Argument("r5", lit("-a"))
    args = {x.canonical_id: x for x in (a, b, c)}
    sub = frozenset({(a.canonical_id, b.canonical_id)})
    # attack on the subargument alone is not well formed
    with pytest.raises(ValueError, match=r"^attack \(r5\(\), r1\(\)\) does not extend to parent r2\(r1\(\)\)$"):
        ArgumentationGraph(args, frozenset({(c.canonical_id, a.canonical_id)}), sub)
    # extending it to the parent is
    g = ArgumentationGraph(
        args,
        frozenset({(c.canonical_id, a.canonical_id), (c.canonical_id, b.canonical_id)}),
        sub,
    )
    assert sorted(g.attackers[b.canonical_id]) == [c.canonical_id]


def test_graph_rejects_unknown_edge_endpoints():
    a, b = _two_args()
    args = {a.canonical_id: a}
    with pytest.raises(ValueError, match=r"^edge \(r1\(\), r2\(r1\(\)\)\) mentions unknown argument$"):
        ArgumentationGraph(args, frozenset({(a.canonical_id, b.canonical_id)}), frozenset())
    with pytest.raises(ValueError, match=r"^edge \(r1\(\), r2\(r1\(\)\)\) mentions unknown argument$"):
        ArgumentationGraph(args, frozenset(), frozenset({(a.canonical_id, b.canonical_id)}))


def test_sorted_attacks_on_hand_built_graphs():
    a, b = _two_args()
    args = {x.canonical_id: x for x in (a, b, Argument("r5", lit("-a")), Argument("r0", lit("d")))}
    assert ArgumentationGraph({}, frozenset(), frozenset()).sorted_attacks() == []
    assert ArgumentationGraph(args, frozenset(), frozenset()).sorted_attacks() == []
    # self-attacks, an attacker of several targets, and r0() attacking nothing
    attacks = frozenset({
        ("r5()", "r5()"), ("r5()", "r2(r1())"), ("r5()", "r1()"), ("r1()", "r1()"), ("r2(r1())", "r5()")
    })
    assert ArgumentationGraph(args, attacks, frozenset()).sorted_attacks() == sorted(attacks) == [
        ("r1()", "r1()"),
        ("r2(r1())", "r5()"),
        ("r5()", "r1()"),
        ("r5()", "r2(r1())"),
        ("r5()", "r5()"),
    ]


def test_labelling_construction_and_queries():
    l = Labelling.from_mapping(
        LabelSet.IN_OUT_UN, {"x": ArgLabel.IN, "y": ArgLabel.OUT, "z": ArgLabel.UN}
    )
    assert l.label("x") is ArgLabel.IN
    assert l.with_label(ArgLabel.OUT) == {"y"}
    assert l.sort_key() == (0, 1, 2)
    assert str(l) == "{x=IN, y=OUT, z=UN}"
    with pytest.raises(KeyError):
        l.label("w")
    with pytest.raises(ValueError):
        Labelling.from_mapping(LabelSet.IN_OUT_UN, {"x": ArgLabel.OFF})


def test_labelling_pickles_across_processes():
    """A labelling loaded in another process hashes like one built there."""
    l = Labelling.from_mapping(LabelSet.IN_OUT_UN, {"x": ArgLabel.IN, "y": ArgLabel.UN})
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import pickle, sys\n"
        "from arglab import ArgLabel, Labelling, LabelSet\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Labelling.from_mapping(LabelSet.IN_OUT_UN, {'x': ArgLabel.IN, 'y': ArgLabel.UN})\n"
        "print(loaded == fresh, hash(loaded) == hash(fresh), {fresh: 1}.get(loaded))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(l), capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (0, b"True True 1\n"), done.stderr
    assert pickle.loads(pickle.dumps(l)) == l


def test_label_order_ranks():
    ranks = [ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN, ArgLabel.ON, ArgLabel.OFF]
    assert [l.rank for l in ranks] == [0, 1, 2, 3, 4]


def _single(label):
    return Labelling.from_mapping(LabelSet.IN_OUT_UN_OFF, {"x": label})


def test_semi_skeptical_justification_cases():
    assert semi_skeptical_justification([_single(ArgLabel.OFF)], "x") is Justification.OFJ
    assert semi_skeptical_justification([_single(ArgLabel.IN)], "x") is Justification.SKJ
    assert (
        semi_skeptical_justification([_single(ArgLabel.IN), _single(ArgLabel.OUT)], "x")
        is Justification.CRJ
    )
    assert (
        semi_skeptical_justification([_single(ArgLabel.OUT), _single(ArgLabel.OFF)], "x")
        is Justification.NOJ
    )
    assert (
        semi_skeptical_justification([_single(ArgLabel.UN)], "x") is Justification.NOJ
    )
    with pytest.raises(ValueError):
        semi_skeptical_justification([], "x")
