import gc

import pytest
from hypothesis import given, settings

from arglab import (
    ArgLabel,
    Argument,
    ArgumentationGraph,
    CapExceededError,
    Labelling,
    LabellingSpec,
    LabelSet,
    OnOffCriterion,
    Semantics,
    grounded_labelling,
    labellings,
    lit,
    subgraph_labellings,
)
from arglab.semantics import MAX_ENUM_ARGUMENTS
from strategies import capped_graph, theories

from conftest import A_B, A_B1, A_B2, A_C, A_D, C_A, C_AB, C_B, C_BC


def _spec(semantics, label_set=LabelSet.IN_OUT_UN, **kw):
    return LabellingSpec(label_set, semantics=semantics, **kw)


def _in_set(labelling):
    return labelling.with_label(ArgLabel.IN)


def test_grounded_running_example(running_graph):
    l = grounded_labelling(running_graph)
    assert l.mapping == {
        A_B1: ArgLabel.IN,
        A_B2: ArgLabel.IN,
        A_B: ArgLabel.IN,
        A_C: ArgLabel.OUT,
        A_D: ArgLabel.IN,
    }


def test_preferred_and_stable_agree_on_running_example(running_graph):
    grounded = labellings(running_graph, _spec(Semantics.GROUNDED))
    for semantics in (Semantics.PREFERRED, Semantics.STABLE):
        assert labellings(running_graph, _spec(semantics)) == grounded


def test_mutual_attack_labellings(mutual_graph):
    b, c = "rb()", "rc()"
    grounded = grounded_labelling(mutual_graph)
    assert grounded.mapping == {b: ArgLabel.UN, c: ArgLabel.UN}

    complete = labellings(mutual_graph, _spec(Semantics.COMPLETE))
    assert [_in_set(l) for l in complete] == [{b}, {c}, frozenset()]

    preferred = labellings(mutual_graph, _spec(Semantics.PREFERRED))
    assert [_in_set(l) for l in preferred] == [{b}, {c}]
    assert labellings(mutual_graph, _spec(Semantics.STABLE)) == preferred

    # conflict-free: IN sets {}, {b}, {c}; OUT needs an IN attacker
    cf = labellings(mutual_graph, _spec(Semantics.CF))
    assert len(cf) == 5
    for l in cf:
        for x, y in ((b, c), (c, b)):
            if l.label(x) is ArgLabel.IN:
                assert l.label(y) is not ArgLabel.IN
            if l.label(x) is ArgLabel.OUT:
                assert l.label(y) is ArgLabel.IN


def _attack_cycle(n):
    args = [Argument(f"r{i}", lit("a") if i % 2 else lit("-a")) for i in range(n)]
    ids = [a.canonical_id for a in args]
    attacks = frozenset((ids[i], ids[(i + 1) % n]) for i in range(n))
    return ArgumentationGraph({i: a for i, a in zip(ids, args)}, attacks, frozenset())


def test_odd_cycle_has_no_stable_labelling():
    graph = _attack_cycle(3)
    assert labellings(graph, _spec(Semantics.STABLE)) == []
    preferred = labellings(graph, _spec(Semantics.PREFERRED))
    assert len(preferred) == 1
    assert preferred[0].with_label(ArgLabel.UN) == set(graph.arguments)


def test_on_off_criteria_counts(chain_graph):
    def count(criterion):
        spec = LabellingSpec(LabelSet.ON_OFF, criterion=criterion)
        return len(labellings(chain_graph, spec))

    assert count(OnOffCriterion.ALL) == 32
    assert count(OnOffCriterion.SUBARG_COMPLETE) == 12
    assert count(OnOffCriterion.LEGAL) == 10
    assert count(OnOffCriterion.RULE_COMPLETE) >= 10


def test_all_inoutun_enumeration(mutual_graph):
    spec = LabellingSpec(LabelSet.IN_OUT_UN)
    assert len(labellings(mutual_graph, spec)) == 9


def test_combined_labellings_mutual(mutual_graph):
    b, c = "rb()", "rc()"
    result = labellings(mutual_graph, _spec(Semantics.GROUNDED, LabelSet.IN_OUT_UN_OFF))
    mappings = [l.mapping for l in result]
    assert {b: ArgLabel.UN, c: ArgLabel.UN} in mappings
    assert {b: ArgLabel.IN, c: ArgLabel.OFF} in mappings
    assert {b: ArgLabel.OFF, c: ArgLabel.IN} in mappings
    assert {b: ArgLabel.OFF, c: ArgLabel.OFF} in mappings
    assert len(result) == 4


def test_combined_restricted_to_subargument_complete_subgraphs(running_graph):
    result = labellings(running_graph, _spec(Semantics.GROUNDED, LabelSet.IN_OUT_UN_OFF))
    # one labelling per subargument-complete subgraph under grounded semantics
    target = {
        A_B1: ArgLabel.IN,
        A_B2: ArgLabel.OFF,
        A_B: ArgLabel.OFF,
        A_C: ArgLabel.UN,
        A_D: ArgLabel.UN,
    }
    assert target in [l.mapping for l in result]
    # no labelling ever switches a subargument off under its parent
    for l in result:
        for child, parent in running_graph.sub_edges:
            if l.label(parent) is not ArgLabel.OFF:
                assert l.label(child) is not ArgLabel.OFF


def test_combined_legal_only_flag(chain_graph):
    subarg = labellings(chain_graph, _spec(Semantics.GROUNDED, LabelSet.IN_OUT_UN_OFF))
    legal = labellings(
        chain_graph, _spec(Semantics.GROUNDED, LabelSet.IN_OUT_UN_OFF, legal_only=True)
    )
    assert len(subarg) == 12
    assert len(legal) == 10
    off = {a: ArgLabel.OFF for a in chain_graph.arguments}
    not_legal = dict(off, **{C_A: ArgLabel.IN, C_B: ArgLabel.IN, C_AB: ArgLabel.IN, C_BC: ArgLabel.IN})
    assert not_legal in [l.mapping for l in subarg]
    assert not_legal not in [l.mapping for l in legal]


def test_labellings_sorted_deterministically(mutual_graph):
    result = labellings(mutual_graph, _spec(Semantics.COMPLETE))
    keys = [l.sort_key() for l in result]
    assert keys == sorted(keys)


def test_enumeration_cap():
    args = {f"r{i}()": Argument(f"r{i}", lit("a")) for i in range(17)}
    graph = ArgumentationGraph(args, frozenset(), frozenset())
    with pytest.raises(CapExceededError):
        labellings(graph, LabellingSpec(LabelSet.ON_OFF))


def test_disjoint_mutual_attacks_at_the_cap():
    # 8 pairs, 16 arguments: each pair is b IN, c IN or both UN in a complete
    # labelling; a preferred (and stable) one picks a side in every pair
    args, attacks = {}, set()
    for i in range(8):
        b, c = Argument(f"rb{i}", lit(f"b{i}")), Argument(f"rc{i}", lit(f"-b{i}"))
        args[b.canonical_id], args[c.canonical_id] = b, c
        attacks |= {(b.canonical_id, c.canonical_id), (c.canonical_id, b.canonical_id)}
    graph = ArgumentationGraph(args, frozenset(attacks), frozenset())
    assert len(graph.arguments) == MAX_ENUM_ARGUMENTS

    complete = labellings(graph, _spec(Semantics.COMPLETE))
    preferred = labellings(graph, _spec(Semantics.PREFERRED))
    stable = labellings(graph, _spec(Semantics.STABLE))
    assert (len(complete), len(preferred), len(stable)) == (6561, 256, 256)
    assert preferred == stable
    assert all(len(_in_set(l)) == 8 for l in preferred)
    assert preferred == [l for l in complete if len(_in_set(l)) == 8]


def test_preferred_search_leaves_no_reference_cycle():
    """The conflict-free search keeps its own stack: what a preferred
    enumeration allocates is freed when it is dropped, not left for the
    cyclic collector."""
    args, attacks = {}, set()
    for i in range(3):
        b, c = Argument(f"rb{i}", lit(f"b{i}")), Argument(f"rc{i}", lit(f"-b{i}"))
        args[b.canonical_id], args[c.canonical_id] = b, c
        attacks |= {(b.canonical_id, c.canonical_id), (c.canonical_id, b.canonical_id)}
    graph = ArgumentationGraph(args, frozenset(attacks), frozenset())
    present = graph.ids()[1:]
    gc.collect()
    gc.disable()
    try:
        result = subgraph_labellings(graph, present, Semantics.PREFERRED, MAX_ENUM_ARGUMENTS)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(result) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        LabellingSpec(LabelSet.ON_OFF, semantics=Semantics.GROUNDED)
    with pytest.raises(ValueError):
        LabellingSpec(LabelSet.IN_OUT_UN, criterion=OnOffCriterion.LEGAL)


@pytest.mark.parametrize("label_set", [LabelSet.ON_OFF, LabelSet.IN_OUT_UN])
def test_legal_only_needs_combined_labellings(label_set):
    """legal_only picks the subgraphs of combined labellings; no other label set has any."""
    semantics = None if label_set is LabelSet.ON_OFF else Semantics.COMPLETE
    with pytest.raises(ValueError, match="legal_only only applies to {IN,OUT,UN,OFF} specs"):
        LabellingSpec(label_set, semantics=semantics, legal_only=True)
    LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=Semantics.COMPLETE, legal_only=True)


@given(theories())
@settings(max_examples=60, deadline=None)
def test_grounded_fixpoint_matches_enumeration_on_random_graphs(theory):
    graph = capped_graph(theory, min_args=1)
    grounded = grounded_labelling(graph)
    complete = labellings(graph, _spec(Semantics.COMPLETE))
    assert grounded in complete
    for l in complete:
        assert _in_set(grounded) <= _in_set(l)
    assert labellings(graph, _spec(Semantics.GROUNDED)) == [grounded]
