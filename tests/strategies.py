"""Hypothesis strategies shared by the property tests: generated theories,
their graphs under a cap, and exact distributions over generated outcomes."""

from fractions import Fraction

from hypothesis import reject
from hypothesis import strategies as st

from arglab import CapExceededError, DefeasibleTheory, Literal, PreferencePolicy, Rule, build_graph

F = Fraction

literals = st.builds(Literal, st.sampled_from(["a", "b", "c", "d"]), st.booleans())
# coprime denominators (7, 11, 13) make the common denominator of the sums non-trivial
probabilities = st.sampled_from(
    [F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1), F(2, 7), F(5, 11), F(4, 13)]
)
policies = st.sampled_from(list(PreferencePolicy))


def _renamed(theory):
    """The theory with every rule id ``r…`` renamed ``s…`` and every atom ``x``
    renamed ``x2``, so that it shares no rule and no literal with a theory
    drawn by :func:`theories`."""

    def lit2(l):
        return Literal(l.atom + "2", l.negated)

    def rid2(rid):
        return "s" + rid[1:]

    rules = {
        rid2(rid): Rule(rid2(rid), tuple(map(lit2, r.body_plain)),
                        frozenset(map(lit2, r.body_naf)), lit2(r.head))
        for rid, r in theory.rules.items()
    }
    return DefeasibleTheory(
        rules,
        frozenset((lit2(a), lit2(b)) for a, b in theory.conflicts),
        frozenset((rid2(a), rid2(b)) for a, b in theory.superiority),
        {rid2(rid): p for rid, p in theory.rule_probs.items()},
    )


@st.composite
def theories(draw, max_rules=6, nested=False, union=False, argued=False):
    """Theories with at least one rule and every rule probability in [0, 1].

    With ``nested``, the first two rules have no plain premise and the last
    has their heads as its plain premises, so the graph always holds a nested
    argument id with two subarguments, such as ``r3(r0(),r1())``.  With
    ``argued``, the first rule has no plain premise, so the theory has at
    least one argument.  With ``union``, the theory is the disjoint union of
    two such theories, the second renamed apart: no attack, subargument or
    rule links their arguments, so its graph has at least two components
    whenever both halves have arguments, as they do with ``argued``.
    """
    if union:
        first = draw(theories(max_rules, nested, argued=argued))
        second = _renamed(draw(theories(max_rules, nested, argued=argued)))
        return DefeasibleTheory(
            {**first.rules, **second.rules},
            first.conflicts | second.conflicts,
            first.superiority | second.superiority,
            {**first.rule_probs, **second.rule_probs},
        )
    n = draw(st.integers(min_value=3 if nested else 1, max_value=max_rules))
    rules = {}
    for i in range(n):
        rid = f"r{i}"
        body = tuple(draw(st.lists(literals, max_size=2)))
        if nested and i in (0, 1) or argued and i == 0:
            body = ()
        elif nested and i == n - 1:
            body = (rules["r0"].head, rules["r1"].head)
        naf = frozenset(draw(st.sets(literals, max_size=1)))
        rules[rid] = Rule(rid, body, naf, draw(literals))
    ids = sorted(rules)
    conflicts = frozenset(draw(st.sets(st.tuples(literals, literals), max_size=2)))
    superiority = frozenset(
        draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2))
    )
    probs = {rid: draw(probabilities) for rid in ids if draw(st.booleans())}
    return DefeasibleTheory(rules, conflicts, superiority, probs)


def capped_graph(theory, policy=PreferencePolicy.LAST_LINK, max_args=8, min_args=0):
    """The theory's graph; the example is rejected unless it has between
    ``min_args`` and ``max_args`` arguments.  Call it inside ``@given``."""
    try:
        graph = build_graph(theory, policy=policy, max_args=200)
    except CapExceededError:
        reject()
    if not min_args <= len(graph.arguments) <= max_args:
        reject()
    return graph


@st.composite
def distributions(draw, outcomes, max_size=3):
    """Exact rational distribution over one to ``max_size`` distinct outcomes
    drawn from the ``outcomes`` strategy."""
    chosen = draw(st.lists(outcomes, min_size=1, max_size=max_size, unique=True))
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in chosen]
    total = sum(weights)
    return {o: F(w, total) for o, w in zip(chosen, weights)}
