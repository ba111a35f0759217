"""Rewritten paths against the brute-force code they replaced, on generated theories.

Each oracle below is the straightforward version of a rewritten path: attack
derivation over every target, subargument and attacker; graph validation over
every subargument edge and attack; the pushforward that rebuilds arguments per
rule subset; the product over all 2^n subsets; and the argument and statement
marginals that rescan the support on every call.  Results must agree exactly,
under both preference policies.
"""

import itertools
from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from arglab import (
    PAG,
    PTF,
    ArgumentationGraph,
    CapExceededError,
    DefeasibleTheory,
    Literal,
    PreferencePolicy,
    Rule,
    Semantics,
    StatementLabel,
    StatementScheme,
    argument_label_probability,
    build_arguments,
    build_graph,
    close_conflicts,
    derive_attacks,
    pag_to_pgf,
    pgf_from_ptf,
    plf_with_semantics,
    ptf_independent,
    statement_label,
    statement_label_probability,
)

F = Fraction

_literals = st.builds(Literal, st.sampled_from(["a", "b", "c", "d"]), st.booleans())
_probabilities = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)])
_policies = st.sampled_from(list(PreferencePolicy))


@st.composite
def theories(draw, max_rules=6):
    """Theories with at least one rule and every rule probability in [0, 1]."""
    n = draw(st.integers(min_value=1, max_value=max_rules))
    rules = {}
    for i in range(n):
        rid = f"r{i}"
        body = tuple(draw(st.lists(_literals, max_size=2)))
        naf = frozenset(draw(st.sets(_literals, max_size=1)))
        rules[rid] = Rule(rid, body, naf, draw(_literals))
    ids = sorted(rules)
    conflicts = frozenset(draw(st.sets(st.tuples(_literals, _literals), max_size=2)))
    superiority = frozenset(
        draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2))
    )
    probs = {rid: draw(_probabilities) for rid in ids if draw(st.booleans())}
    return DefeasibleTheory(rules, conflicts, superiority, probs)


def _graph(theory, policy, max_args):
    try:
        graph = build_graph(theory, policy=policy, max_args=200)
    except CapExceededError:
        reject()
    if len(graph.arguments) > max_args:
        reject()
    return graph


# --- oracles -----------------------------------------------------------------


def triple_loop_attacks(theory, arguments, policy):
    """Every target, every subargument of it, every candidate attacker."""
    conflicts = close_conflicts(theory)

    def preferred(x, y):
        if policy is PreferencePolicy.NONE:
            return False
        return (x.top_rule, y.top_rule) in theory.superiority

    attacks = set()
    for target in arguments.values():
        for sub in target.subarguments():
            for attacker in arguments.values():
                undercuts = attacker.conclusion in sub.naf_premises
                rebuts = (
                    attacker.conclusion,
                    sub.conclusion,
                ) in conflicts and not preferred(sub, attacker)
                if undercuts or rebuts:
                    attacks.add((attacker.canonical_id, target.canonical_id))
    return frozenset(attacks)


def attacks_extend_quadratic(attacks, sub_edges):
    """Every subargument edge against every attack."""
    return all(
        target != b or (attacker, a) in attacks
        for b, a in sub_edges
        for attacker, target in attacks
    )


def rebuilt_pushforward(ptf):
    """Each rule subset's subtheory builds its own arguments."""
    probs = {}
    for subset, p in ptf.probs.items():
        key = frozenset(build_arguments(ptf.theory.restricted_to(subset)))
        probs[key] = probs.get(key, F(0)) + p
    return probs


def full_product(items):
    """Independent inclusion over every one of the 2^n subsets."""
    ids = sorted(items)
    probs = {}
    for bits in itertools.product((False, True), repeat=len(ids)):
        p = F(1)
        for item, present in zip(ids, bits):
            p *= items[item] if present else 1 - items[item]
        if p:
            probs[frozenset(a for a, b in zip(ids, bits) if b)] = p
    return probs


def scanned_label_probability(plf, arg_id, label):
    """Scan the whole support for one argument and label."""
    return sum((p for l, p in plf.probs.items() if l.label(arg_id) is label), F(0))


def summed_statement_probability(plf, statement, label, scheme):
    """Label the statement in each support labelling on its own."""
    graph = plf.graph
    return sum(
        (p for l, p in plf.probs.items() if statement_label(l, graph, statement, scheme) is label),
        F(0),
    )


# --- comparisons -------------------------------------------------------------


@given(theories(), _policies)
@settings(max_examples=200, deadline=None)
def test_derive_attacks_matches_triple_loop(theory, policy):
    arguments = dict(_graph(theory, policy, max_args=60).arguments)
    expect = triple_loop_attacks(theory, arguments, policy)
    assert derive_attacks(theory, arguments, policy) == expect


@given(theories(), _policies, st.data())
@settings(max_examples=150, deadline=None)
def test_derive_attacks_matches_triple_loop_on_partial_arguments(theory, policy, data):
    """Subarguments left out of the dict are still walked as targets' parts."""
    graph = _graph(theory, policy, max_args=60)
    kept = data.draw(st.sets(st.sampled_from(graph.ids()))) if graph.arguments else set()
    arguments = {a: graph.arguments[a] for a in kept}
    expect = triple_loop_attacks(theory, arguments, policy)
    assert derive_attacks(theory, arguments, policy) == expect


@given(theories(), _policies, st.data())
@settings(max_examples=200, deadline=None)
def test_graph_validation_matches_quadratic_check(theory, policy, data):
    graph = _graph(theory, policy, max_args=60)
    ids = graph.ids()
    if not ids:
        reject()
    if graph.attacks and data.draw(st.booleans()):
        attacks = graph.attacks - {data.draw(st.sampled_from(sorted(graph.attacks)))}
    else:
        attacks = graph.attacks | {
            (data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)))
        }
    try:
        ArgumentationGraph(graph.arguments, attacks, graph.sub_edges)
        accepted = True
    except ValueError as exc:
        assert "does not extend to parent" in str(exc)
        accepted = False
    assert accepted == attacks_extend_quadratic(attacks, graph.sub_edges)


@given(theories(), _policies, st.data())
@settings(max_examples=150, deadline=None)
def test_pgf_from_ptf_matches_rebuilt_pushforward(theory, policy, data):
    _graph(theory, policy, max_args=200)
    rids = sorted(theory.rules)
    subsets = data.draw(
        st.lists(st.frozensets(st.sampled_from(rids)), min_size=1, max_size=5)
    )
    weights = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=len(subsets),
                 max_size=len(subsets))
    )
    probs = {}
    for subset, w in zip(subsets, weights):
        probs[subset] = probs.get(subset, F(0)) + F(w, sum(weights))
    ptf = PTF(theory, probs)
    pgf = pgf_from_ptf(ptf, policy=policy)
    assert pgf.graph == build_graph(theory, policy=policy)
    assert dict(pgf.probs) == rebuilt_pushforward(ptf)


@given(theories(max_rules=8))
@settings(max_examples=150, deadline=None)
def test_ptf_independent_matches_full_product(theory):
    items = {rid: theory.rule_probs.get(rid, F(1)) for rid in theory.rules}
    assert dict(ptf_independent(theory).probs) == full_product(items)


@given(theories(), _policies, st.data())
@settings(max_examples=100, deadline=None)
def test_pag_to_pgf_matches_full_product(theory, policy, data):
    graph = _graph(theory, policy, max_args=10).without_sub_edges()
    items = {a: data.draw(_probabilities) for a in graph.ids()}
    assert dict(pag_to_pgf(PAG(graph, items)).probs) == full_product(items)


@given(theories(max_rules=5), _policies, st.sampled_from([Semantics.GROUNDED, Semantics.PREFERRED]))
@settings(max_examples=60, deadline=None)
def test_argument_marginals_match_support_scan(theory, policy, semantics):
    _graph(theory, policy, max_args=8)
    plf = plf_with_semantics(pgf_from_ptf(ptf_independent(theory), policy=policy), semantics)
    for arg_id in plf.graph.ids():
        for label in plf.spec.label_set.labels:
            expect = scanned_label_probability(plf, arg_id, label)
            assert argument_label_probability(plf, arg_id, label) == expect


@given(theories(max_rules=5), _policies, st.sampled_from([Semantics.GROUNDED, Semantics.PREFERRED]))
@settings(max_examples=60, deadline=None)
def test_statement_marginals_match_per_labelling_sum(theory, policy, semantics):
    _graph(theory, policy, max_args=8)
    plf = plf_with_semantics(pgf_from_ptf(ptf_independent(theory), policy=policy), semantics)
    # every literal of the theory, so unproposed statements are covered too
    for statement in sorted(theory.literals(), key=str):
        for scheme in StatementScheme:
            for label in StatementLabel:
                expect = summed_statement_probability(plf, statement, label, scheme)
                assert statement_label_probability(plf, statement, label, scheme) == expect
