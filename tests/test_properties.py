"""Invariant checks on randomly drawn attack graphs.

The complete, preferred and stable invariants are checked on the labelling
search and on the brute-force oracle alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from arglab import (
    ArgLabel,
    Argument,
    ArgumentationGraph,
    LabellingSpec,
    LabelSet,
    Semantics,
    grounded_labelling,
    labellings,
    lit,
)
from test_oracles import brute_force_labellings


@st.composite
def attack_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    args = {f"r{i}()": Argument(f"r{i}", lit(f"a{i}")) for i in range(n)}
    ids = sorted(args)
    pairs = [(b, a) for b in ids for a in ids]
    attacks = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=n * n)))
    return ArgumentationGraph(args, attacks, frozenset())


def _sem(graph, semantics):
    return labellings(graph, LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics))


# Each enumerates complete, preferred and stable labellings.
ENUMERATORS = (_sem, brute_force_labellings)


@given(attack_graphs())
@settings(max_examples=200, deadline=None)
def test_semantics_subset_chain(graph):
    cf = _sem(graph, Semantics.CF)
    grounded = _sem(graph, Semantics.GROUNDED)
    for enumerate_ in ENUMERATORS:
        complete = enumerate_(graph, Semantics.COMPLETE)
        preferred = enumerate_(graph, Semantics.PREFERRED)
        stable = enumerate_(graph, Semantics.STABLE)
        assert set(stable) <= set(preferred) <= set(complete) <= set(cf)
        assert set(grounded) <= set(complete)
        assert complete, "a complete labelling always exists"
        assert preferred, "a preferred labelling always exists"


@given(attack_graphs())
@settings(max_examples=200, deadline=None)
def test_grounded_is_least_complete(graph):
    grounded = grounded_labelling(graph)
    g_in = grounded.with_label(ArgLabel.IN)
    g_out = grounded.with_label(ArgLabel.OUT)
    for enumerate_ in ENUMERATORS:
        for l in enumerate_(graph, Semantics.COMPLETE):
            assert g_in <= l.with_label(ArgLabel.IN)
            assert g_out <= l.with_label(ArgLabel.OUT)


@given(attack_graphs())
@settings(max_examples=100, deadline=None)
def test_preferred_in_sets_are_maximal(graph):
    for enumerate_ in ENUMERATORS:
        preferred = [l.with_label(ArgLabel.IN) for l in enumerate_(graph, Semantics.PREFERRED)]
        complete = [l.with_label(ArgLabel.IN) for l in enumerate_(graph, Semantics.COMPLETE)]
        for p in preferred:
            assert not any(p < c for c in complete)
        for c in complete:
            assert any(c <= p for p in preferred)


@given(attack_graphs())
@settings(max_examples=100, deadline=None)
def test_combined_labellings_never_drop_probability(graph):
    # every subargument-complete subgraph contributes exactly one grounded
    # labelling, extended by OFF
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=Semantics.GROUNDED)
    combined = labellings(graph, spec)
    assert len(combined) == 2 ** len(graph.arguments)
    assert len(set(combined)) == len(combined)
