"""Rewritten paths against the brute-force code they replaced, on generated theories.

Each oracle below is the straightforward version of a rewritten path: attack
derivation over every target, subargument and attacker; graph validation over
every subargument edge and attack; the attackers index inverted from the
attack set; the pushforward that rebuilds arguments per rule subset; the
product over all 2^n subsets; the complete, preferred and stable labellings
found by testing all 2^n candidate IN-sets, the conflict-free ones by testing
all 3^n assignments; the labelling search on sets of ids that the bitmask
search replaced; combined labellings with OFF pasted around a labelling of
the induced subgraph, built and validated as a graph of its own; labellings
built through the sorting, checking ``Labelling.from_mapping``, and the
tuple-of-pairs labelling the label tuple replaced; the argument and
statement marginals that rescan the support on every call; and the
distribution merge, the conversions between frames, the labelling frame built
from one ``Fraction`` product p·w per labelling, and the marginal tables
folded one labelling at a time through ``label()`` and ``statement_label``,
that add one ``Fraction`` at a time.
Results must agree exactly, under both preference policies.
"""

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from arglab import (
    PAG,
    PEF,
    PGF,
    PTF,
    SublabellingWeights,
    ArgLabel,
    Argument,
    ArgumentationGraph,
    DefeasibleTheory,
    DistributionError,
    Labelling,
    LabellingSpec,
    LabelSet,
    OnOffCriterion,
    PLF,
    PreferencePolicy,
    Semantics,
    StatementLabel,
    StatementScheme,
    argument_label_probability,
    build_arguments,
    build_graph,
    close_conflicts,
    derive_attacks,
    grounded_labelling,
    induced_subgraph,
    is_subargument_complete,
    labellings,
    lit,
    pag_to_pgf,
    pef_from_plf,
    pgf_from_plf,
    pgf_from_ptf,
    plf_from_pef,
    plf_from_pgf,
    plf_with_semantics,
    ptf_independent,
    statement_label,
    statement_label_probability,
    statement_marginal,
    subgraph_labellings,
)
from arglab import semantics as semantics_module
from arglab.frames import _normalise
from strategies import capped_graph, distributions, policies, probabilities, theories

F = Fraction


@st.composite
def abstract_graphs(draw, max_args=8):
    """Attack graphs without subarguments; self-attacks and odd cycles are common."""
    n = draw(st.integers(min_value=1, max_value=max_args))
    args = {f"r{i}()": Argument(f"r{i}", lit(f"a{i}")) for i in range(n)}
    ids = sorted(args)
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    attacks = set(draw(st.sets(pairs, max_size=2 * n)))
    cycle = draw(st.sampled_from([0, 1, 3, 5, 7]))  # 1 is a self-attack
    if 0 < cycle <= n:
        ring = draw(st.permutations(ids))[:cycle]
        attacks |= {(ring[i], ring[(i + 1) % cycle]) for i in range(cycle)}
    return ArgumentationGraph(args, frozenset(attacks), frozenset())


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


def inverted_attacks(graph):
    """Attackers of every argument, read off the attack set."""
    att = {i: set() for i in graph.arguments}
    for b, a in graph.attacks:
        att[a].add(b)
    return att


def restricted_to(theory, rule_ids):
    """Subtheory keeping only the given rules.

    The conflict relation is untouched; superiority pairs are kept only when
    both rules survive.
    """
    keep = set(rule_ids)
    return DefeasibleTheory(
        rules={rid: r for rid, r in theory.rules.items() if rid in keep},
        conflicts=theory.conflicts,
        superiority=frozenset((s, w) for (s, w) in theory.superiority if s in keep and w in keep),
        rule_probs={rid: p for rid, p in theory.rule_probs.items() if rid in keep},
    )


def rebuilt_pushforward(probs, image):
    """Each outcome's probability added to its ``image``, one Fraction at a time;
    outcomes in first-seen order."""
    out = {}
    for outcome, p in probs.items():
        key = image(outcome)
        out[key] = out.get(key, F(0)) + p
    return out


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


def brute_force_complete_in_sets(graph):
    """IN-sets of complete labellings, testing every one of the 2^n candidates.

    A complete labelling is determined by its IN-set S: the OUT-set is exactly
    the set of arguments with an attacker in S, and S must equal the set of
    arguments whose attackers are all OUT.
    """
    ids = sorted(graph.arguments)
    att = {a: {b for b, t in graph.attacks if t == a} for a in ids}
    out = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        s = {a for a, b in zip(ids, bits) if b}
        out_set = {a for a in ids if att[a] & s}
        if s & out_set:
            continue
        if {a for a in ids if att[a] <= out_set} == s:
            out.append(frozenset(s))
    return out


def brute_force_cf_labellings(graph):
    """Every assignment with no IN argument attacked by an IN one and an IN
    attacker for every OUT argument, in sorted order."""
    ids = sorted(graph.arguments)
    result = []
    for combo in itertools.product([ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN], repeat=len(ids)):
        mapping = dict(zip(ids, combo))
        in_set = {a for a in ids if mapping[a] is ArgLabel.IN}
        if any((b, a) in graph.attacks for a in in_set for b in in_set):
            continue
        attacked = {a for a in ids if any((b, a) in graph.attacks for b in in_set)}
        if all(mapping[a] is not ArgLabel.OUT or a in attacked for a in ids):
            result.append(Labelling.from_mapping(LabelSet.IN_OUT_UN, mapping))
    return sorted(result, key=Labelling.sort_key)


def brute_force_labellings(graph, semantics):
    """{IN, OUT, UN} labellings under any semantics, in sorted order.

    Grounded is the complete labelling whose IN-set lies inside every other;
    preferred IN-sets are the complete ones with no strict superset among all
    the others; stable labellings are the complete ones with nothing UN.
    """
    if semantics is Semantics.CF:
        return brute_force_cf_labellings(graph)
    in_sets = brute_force_complete_in_sets(graph)
    if semantics is Semantics.GROUNDED:
        in_sets = [s for s in in_sets if all(s <= t for t in in_sets)]
    if semantics is Semantics.PREFERRED:
        in_sets = [s for s in in_sets if not any(s < t for t in in_sets)]
    result = []
    for s in in_sets:
        mapping = {}
        for a in graph.arguments:
            if a in s:
                mapping[a] = ArgLabel.IN
            elif any((b, a) in graph.attacks for b in s):
                mapping[a] = ArgLabel.OUT
            else:
                mapping[a] = ArgLabel.UN
        if semantics is Semantics.STABLE and ArgLabel.UN in mapping.values():
            continue
        result.append(Labelling.from_mapping(LabelSet.IN_OUT_UN, mapping))
    return sorted(result, key=Labelling.sort_key)


def combine_with_off(graph, inner):
    """Extend a subgraph labelling to the whole graph with OFF outside."""
    mapping = inner.mapping
    labels = {a: mapping.get(a, ArgLabel.OFF) for a in graph.arguments}
    return Labelling.from_mapping(LabelSet.IN_OUT_UN_OFF, labels)


def brute_force_combined(graph, semantics):
    """Combined {IN, OUT, UN, OFF} labellings over every subargument-complete subset."""
    ids = sorted(graph.arguments)
    result = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        s = frozenset(a for a, b in zip(ids, bits) if b)
        if is_subargument_complete(graph, s):
            for inner in brute_force_labellings(induced_subgraph(graph, s), semantics):
                result.append(combine_with_off(graph, inner))
    return sorted(result, key=Labelling.sort_key)


def set_grounded_sets(graph, absent):
    """IN and OUT sets of the grounded labelling on sets of ids; OUT starts as ``absent``."""
    att = graph.attackers
    in_set, out_set = set(), set(absent)
    changed = True
    while changed:
        changed = False
        for a in graph.ids():
            if a in in_set or a in out_set:
                continue
            if att[a] <= out_set:
                in_set.add(a)
                changed = True
            elif att[a] & in_set:
                out_set.add(a)
                changed = True
    return in_set, out_set


def set_complete_in_sets(graph, absent):
    """IN-sets of complete labellings by the backtracking search, on sets of ids."""
    att = graph.attackers
    g_in, g_out = set_grounded_sets(graph, absent)
    undecided = [a for a in graph.ids() if a not in g_in and a not in g_out]
    out, chosen = [], set()

    def is_complete():
        out_set = g_out | {a for a in undecided if att[a] & chosen}
        if chosen & out_set:
            return False
        return all((a in chosen) == (att[a] <= out_set) for a in undecided)

    def search(i):
        if i == len(undecided):
            if is_complete():
                out.append(frozenset(g_in | chosen))
            return
        search(i + 1)
        a = undecided[i]
        if a not in att[a] and not (att[a] & chosen or any(a in att[c] for c in chosen)):
            chosen.add(a)
            search(i + 1)
            chosen.remove(a)

    search(0)
    return out


def set_maximal(sets):
    """The sets with no strict superset among ``sets``, largest first."""
    kept = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s < t for t in kept):
            kept.append(s)
    return kept


def set_in_set_labels(graph, s, absent):
    att = graph.attackers
    return tuple(
        ArgLabel.OFF if a in absent
        else ArgLabel.IN if a in s else ArgLabel.OUT if att[a] & s else ArgLabel.UN
        for a in graph.ids()
    )


def as_mask(graph, ids):
    return sum(1 << j for j, a in enumerate(graph.ids()) if a in ids)


def as_set(graph, mask):
    return frozenset(a for j, a in enumerate(graph.ids()) if mask >> j & 1)


@dataclass(frozen=True)
class PairLabelling:
    """The former labelling: a sorted tuple of (id, label) pairs."""

    label_set: LabelSet
    entries: tuple

    @property
    def mapping(self):
        return dict(self.entries)

    def label(self, arg_id):
        mapping = self.mapping
        if arg_id not in mapping:
            raise KeyError(arg_id)
        return mapping[arg_id]

    def with_label(self, label):
        return frozenset(a for a, l in self.entries if l is label)

    def sort_key(self):
        return tuple(l.rank for _, l in self.entries)

    def __str__(self):
        return "{" + ", ".join(f"{a}={l.value}" for a, l in self.entries) + "}"


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


def fraction_normalise(entries):
    """Merge duplicates, drop zeros and check the total, one Fraction addition at a time."""
    if isinstance(entries, Mapping):
        entries = entries.items()
    probs = {}
    for key, p in entries:
        if p < 0:
            raise DistributionError(f"negative probability {p} for {key}")
        if p == 0:
            continue
        probs[key] = probs.get(key, F(0)) + p
    total = sum(probs.values(), F(0))
    if total != 1:
        raise DistributionError(f"probabilities sum to {total}, expected 1")
    return probs


def fraction_marginals(plf):
    """Per argument, each label's probability, folded one labelling at a time
    through ``label()``, one Fraction addition per labelling and argument."""
    table = {a: {} for a in plf.graph.arguments}
    for labelling, p in plf.probs.items():
        for arg_id in plf.graph.ids():
            row = table[arg_id]
            label = labelling.label(arg_id)
            row[label] = row.get(label, F(0)) + p
    return table


def fraction_conclusion_label_sets(plf):
    """Per statement, each carried label set's probability, folded one labelling
    at a time through ``label()``, one Fraction addition per labelling and statement."""
    concluding = {}
    for a, arg in plf.graph.arguments.items():
        concluding.setdefault(arg.conclusion, []).append(a)
    table = {c: {} for c in concluding}
    for labelling, p in plf.probs.items():
        for c, ids in concluding.items():
            row = table[c]
            key = frozenset(labelling.label(a) for a in ids)
            row[key] = row.get(key, F(0)) + p
    return table


# --- comparisons -------------------------------------------------------------


@given(theories(), policies)
@settings(max_examples=200, deadline=None)
def test_derive_attacks_matches_triple_loop(theory, policy):
    arguments = dict(capped_graph(theory, policy, max_args=60).arguments)
    expect = triple_loop_attacks(theory, arguments, policy)
    assert derive_attacks(theory, arguments, policy) == expect


@given(theories(), policies, st.data())
@settings(max_examples=150, deadline=None)
def test_derive_attacks_matches_triple_loop_on_partial_arguments(theory, policy, data):
    """Subarguments left out of the dict are still walked as targets' parts."""
    graph = capped_graph(theory, policy, max_args=60)
    kept = data.draw(st.sets(st.sampled_from(graph.ids()))) if graph.arguments else set()
    arguments = {a: graph.arguments[a] for a in kept}
    expect = triple_loop_attacks(theory, arguments, policy)
    assert derive_attacks(theory, arguments, policy) == expect


@given(theories(), policies, st.data())
@settings(max_examples=200, deadline=None)
def test_graph_validation_matches_quadratic_check(theory, policy, data):
    graph = capped_graph(theory, policy, max_args=60)
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


@given(theories(), policies, st.data())
@settings(max_examples=150, deadline=None)
def test_attackers_index_matches_inverted_attacks(theory, policy, data):
    graph = capped_graph(theory, policy, max_args=60)
    kept = data.draw(st.sets(st.sampled_from(graph.ids()))) if graph.arguments else set()
    sub = induced_subgraph(graph, kept)
    for g in (graph, sub):
        assert dict(g.attackers) == inverted_attacks(g)
        assert all(type(att) is frozenset for att in g.attackers.values())
        assert g.ids() == tuple(sorted(g.arguments))
        assert g.attacker_masks == tuple(as_mask(g, g.attackers[a]) for a in g.ids())
    # the subgraph walks the parent's sorted ids, whatever the set's own order
    assert list(sub.arguments) == list(sub.ids())


def _checked(labelling):
    """The labelling rebuilt through the sorting, checking constructor."""
    return Labelling.from_mapping(labelling.label_set, labelling.mapping)


@given(theories(max_rules=5), policies, st.data())
@settings(max_examples=60, deadline=None)
def test_engine_labellings_match_from_mapping(theory, policy, data):
    """Labellings the engine builds in id order equal their sorted, checked rebuild."""
    graph = capped_graph(theory, policy, max_args=5)
    ids = graph.ids()
    if not ids:
        reject()
    built = [grounded_labelling(graph)]
    for criterion in OnOffCriterion:
        built += labellings(graph, LabellingSpec(LabelSet.ON_OFF, criterion=criterion))
    for semantics in [None, *Semantics]:
        built += labellings(graph, LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics))
    for semantics, legal_only in itertools.product(Semantics, (False, True)):
        spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=legal_only)
        built += labellings(graph, spec)
    subsets = data.draw(st.lists(st.frozensets(st.sampled_from(ids)), min_size=1, max_size=4))
    built += subgraph_labellings(graph, subsets[0], data.draw(st.sampled_from(Semantics)), 16)
    uniform = [(s, F(1, len(subsets))) for s in subsets]
    built += list(plf_from_pgf(PGF(graph, uniform)).probs)
    built += list(plf_from_pef(PEF(graph, uniform)).probs)
    for labelling in built:
        rebuilt = _checked(labelling)
        assert labelling == rebuilt
        assert hash(labelling) == hash(rebuilt)
        assert labelling.sort_key() == rebuilt.sort_key()
        assert {rebuilt: True}[labelling]
        # every labelling the engine builds shares the graph's id tuple
        assert labelling.ids is ids
    assert sorted(built, key=Labelling.sort_key) == sorted(map(_checked, built), key=Labelling.sort_key)


@given(theories(max_rules=5), policies, st.data())
@settings(max_examples=60, deadline=None)
def test_label_tuple_labelling_matches_pair_labelling(theory, policy, data):
    """The dense labelling reads as the sorted tuple of pairs it replaced."""
    graph = capped_graph(theory, policy, max_args=6)
    ids = graph.ids()
    label_set = data.draw(st.sampled_from(list(LabelSet)))
    labels = sorted(label_set.labels, key=lambda l: l.rank)
    mapping = {a: data.draw(st.sampled_from(labels)) for a in ids}
    dense = Labelling.over(graph, label_set, (mapping[a] for a in ids))
    pairs = PairLabelling(label_set, tuple(sorted(mapping.items())))
    assert dense == Labelling.from_mapping(label_set, mapping)
    assert (dense.entries, dense.mapping, dense.sort_key(), str(dense)) == (
        pairs.entries, pairs.mapping, pairs.sort_key(), str(pairs)
    )
    for arg_id in ids:
        assert dense.label(arg_id) is pairs.label(arg_id)
    for label in ArgLabel:
        assert dense.with_label(label) == pairs.with_label(label)


_SEARCHED = st.sampled_from(
    [Semantics.CF, Semantics.COMPLETE, Semantics.PREFERRED, Semantics.STABLE]
)


def _searched(graph, semantics):
    return labellings(graph, LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics))


@given(abstract_graphs(), _SEARCHED)
@settings(max_examples=300, deadline=None)
def test_labelling_search_matches_brute_force_on_abstract_graphs(graph, semantics):
    assert _searched(graph, semantics) == brute_force_labellings(graph, semantics)
    # the search also finds the IN-sets in the scan's order
    in_sets = semantics_module._complete_in_masks(graph.attacker_masks, 0)
    assert [as_set(graph, s) for s in in_sets] == brute_force_complete_in_sets(graph)


def _check_masks_against_sets(graph):
    """The bitmask search and the set-based one agree on every subgraph."""
    att = graph.attacker_masks
    ids = graph.ids()
    for bits in itertools.product((False, True), repeat=len(ids)):
        absent = frozenset(a for a, b in zip(ids, bits) if not b)
        mask = as_mask(graph, absent)
        g_in, g_out = semantics_module._grounded_masks(att, mask)
        assert (as_set(graph, g_in), as_set(graph, g_out)) == set_grounded_sets(graph, absent)
        masks = semantics_module._complete_in_masks(att, mask)
        sets = set_complete_in_sets(graph, absent)
        assert [as_set(graph, m) for m in masks] == sets
        assert [as_set(graph, m) for m in semantics_module._maximal(masks)] == set_maximal(sets)
        for m, s in zip(masks, sets):
            assert semantics_module._in_set_labels(att, m, mask) == set_in_set_labels(graph, s, absent)


@given(abstract_graphs(max_args=6))
@settings(max_examples=150, deadline=None)
def test_bitmask_search_matches_set_search_on_abstract_graphs(graph):
    _check_masks_against_sets(graph)


@given(theories(max_rules=5), policies)
@settings(max_examples=100, deadline=None)
def test_bitmask_search_matches_set_search_on_theory_graphs(theory, policy):
    _check_masks_against_sets(capped_graph(theory, policy, max_args=6))


@given(theories(), policies, _SEARCHED)
@settings(max_examples=200, deadline=None)
def test_labelling_search_matches_brute_force_on_theory_graphs(theory, policy, semantics):
    graph = capped_graph(theory, policy, max_args=8)
    assert _searched(graph, semantics) == brute_force_labellings(graph, semantics)


@given(theories(max_rules=5), policies, _SEARCHED)
@settings(max_examples=100, deadline=None)
def test_combined_labellings_match_brute_force(theory, policy, semantics):
    graph = capped_graph(theory, policy, max_args=6)
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics)
    assert labellings(graph, spec) == brute_force_combined(graph, semantics)


def _pasted(graph, subset, semantics):
    """Brute-force labellings of the validated induced subgraph, OFF pasted around them."""
    inner = brute_force_labellings(induced_subgraph(graph, subset), semantics)
    return [combine_with_off(graph, labelling) for labelling in inner]


@given(abstract_graphs(max_args=6), st.data())
@settings(max_examples=200, deadline=None)
def test_subgraph_labellings_match_pasted_brute_force_on_abstract_graphs(graph, data):
    """Any subset, subargument-complete or not; the order must agree too."""
    subset = data.draw(st.frozensets(st.sampled_from(graph.ids())))
    for semantics in Semantics:
        assert subgraph_labellings(graph, subset, semantics, 16) == _pasted(graph, subset, semantics)


@given(theories(max_rules=5), policies, st.data())
@settings(max_examples=150, deadline=None)
def test_subgraph_labellings_match_pasted_brute_force_on_theory_graphs(theory, policy, data):
    graph = capped_graph(theory, policy, max_args=6)
    subset = data.draw(st.frozensets(st.sampled_from(graph.ids()))) if graph.ids() else frozenset()
    for semantics in Semantics:
        assert subgraph_labellings(graph, subset, semantics, 16) == _pasted(graph, subset, semantics)


@given(theories(), policies, st.data())
@settings(max_examples=150, deadline=None)
def test_pgf_from_ptf_matches_rebuilt_pushforward(theory, policy, data):
    capped_graph(theory, policy, max_args=200)
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
    # each rule subset's subtheory builds its own arguments
    expect = rebuilt_pushforward(
        ptf.probs, lambda s: frozenset(build_arguments(restricted_to(theory, s)))
    )
    assert _typed(pgf.probs) == _typed(expect)


def _labelled(graph, label_set, member, other):
    """The labelling marking a set's members ``member`` and the rest ``other``,
    built through the checking constructor."""
    return lambda s: Labelling.from_mapping(
        label_set, {a: member if a in s else other for a in graph.ids()}
    )


@given(theories(max_rules=5), policies, st.data())
@settings(max_examples=100, deadline=None)
def test_conversions_match_fraction_pushforwards(theory, policy, data):
    """The four conversions between PGF, PEF and PLF, on generated frames."""
    graph = capped_graph(theory, policy, max_args=6, min_args=1)
    ids = graph.ids()
    subsets = distributions(st.frozensets(st.sampled_from(ids)), max_size=4)
    on, off, in_, out = ArgLabel.ON, ArgLabel.OFF, ArgLabel.IN, ArgLabel.OUT
    pgf = PGF(graph, data.draw(subsets))
    plf = plf_from_pgf(pgf)
    expect = rebuilt_pushforward(pgf.probs, _labelled(graph, LabelSet.ON_OFF, on, off))
    assert _typed(plf.probs) == _typed(expect)
    expect = rebuilt_pushforward(plf.probs, lambda l: l.with_label(on))
    assert _typed(pgf_from_plf(plf).probs) == _typed(expect)
    pef = PEF(graph, data.draw(subsets))
    expect = rebuilt_pushforward(pef.probs, _labelled(graph, LabelSet.IN_OUT_UN, in_, out))
    assert _typed(plf_from_pef(pef).probs) == _typed(expect)
    # an epistemic frame over arbitrary {IN, OUT, UN} labellings: IN sets repeat
    labels = st.tuples(*(st.sampled_from([in_, out, ArgLabel.UN]) for _ in ids))
    beliefs = labels.map(lambda row: Labelling.over(graph, LabelSet.IN_OUT_UN, row))
    epistemic = PLF(graph, LabellingSpec(LabelSet.IN_OUT_UN), data.draw(distributions(beliefs, 6)))
    expect = rebuilt_pushforward(epistemic.probs, lambda l: l.with_label(in_))
    assert _typed(pef_from_plf(epistemic).probs) == _typed(expect)


@given(theories(max_rules=8))
@settings(max_examples=150, deadline=None)
def test_ptf_independent_matches_full_product(theory):
    items = {rid: theory.rule_probs.get(rid, F(1)) for rid in theory.rules}
    assert _typed(ptf_independent(theory).probs) == _typed(full_product(items))


@given(theories(), policies, st.data())
@settings(max_examples=100, deadline=None)
def test_pag_to_pgf_matches_full_product(theory, policy, data):
    graph = capped_graph(theory, policy, max_args=10).without_sub_edges()
    items = {a: data.draw(probabilities) for a in graph.ids()}
    assert _typed(pag_to_pgf(PAG(graph, items)).probs) == _typed(full_product(items))


@given(theories(max_rules=5), policies, st.sampled_from([Semantics.GROUNDED, Semantics.PREFERRED]))
@settings(max_examples=60, deadline=None)
def test_argument_marginals_match_support_scan(theory, policy, semantics):
    capped_graph(theory, policy, max_args=8)
    plf = plf_with_semantics(pgf_from_ptf(ptf_independent(theory), policy=policy), semantics)
    for arg_id in plf.graph.ids():
        for label in plf.spec.label_set.labels:
            expect = scanned_label_probability(plf, arg_id, label)
            assert argument_label_probability(plf, arg_id, label) == expect


@given(theories(max_rules=5), policies, st.sampled_from([Semantics.GROUNDED, Semantics.PREFERRED]))
@settings(max_examples=60, deadline=None)
def test_statement_marginals_match_per_labelling_sum(theory, policy, semantics):
    capped_graph(theory, policy, max_args=8)
    plf = plf_with_semantics(pgf_from_ptf(ptf_independent(theory), policy=policy), semantics)
    # every literal of the theory, so unproposed statements are covered too
    for statement in sorted(theory.literals(), key=str):
        for scheme in StatementScheme:
            for label in StatementLabel:
                expect = summed_statement_probability(plf, statement, label, scheme)
                assert statement_label_probability(plf, statement, label, scheme) == expect


def _outcome(call):
    try:
        return "accepted", call()
    except DistributionError as exc:
        return "rejected", str(exc)


def _typed(probs):
    """A distribution as an ordered list, so equal ones also agree on order and type."""
    return [(outcome, type(p), p) for outcome, p in probs.items()]


def _rows(table):
    """Nested table as ordered lists, so equal tables also agree on order and type."""
    return {k: _typed(row) for k, row in table.items()}


_weights = st.sampled_from(
    [F(0), F(-1, 3), F(1, 4), F(1, 2), F(2, 7), F(5, 11), F(4, 13), F(1), 0, 1, 2]
)


@given(st.lists(st.tuples(st.sampled_from("abcd"), _weights), max_size=8), st.booleans())
@settings(max_examples=400, deadline=None)
def test_normalise_matches_fraction_sums(entries, rescale):
    """Duplicates, zeros, negatives and ints; rescaled lists sum to exactly 1."""
    total = sum((p for _, p in entries), F(0))
    if rescale and total > 0 and all(p >= 0 for _, p in entries):
        entries = [(k, p / total) for k, p in entries]
    got, expect = _outcome(lambda: _normalise(entries)), _outcome(lambda: fraction_normalise(entries))
    assert got[0] == expect[0]
    if got[0] == "rejected":
        assert got[1] == expect[1]
    else:
        assert [(k, type(p), p) for k, p in got[1].items()] == [
            (k, F, p) for k, p in expect[1].items()
        ]


def _random_plf(graph, data):
    """Arbitrary total {IN, OUT, UN, OFF} labellings with coprime-denominator weights."""
    label_set = LabelSet.IN_OUT_UN_OFF
    labels = sorted(label_set.labels, key=lambda l: l.rank)
    ids = graph.ids()
    k = data.draw(st.integers(min_value=1, max_value=6))
    entries = []
    for _ in range(k):
        mapping = {a: data.draw(st.sampled_from(labels)) for a in ids}
        entries.append((Labelling.from_mapping(label_set, mapping), data.draw(probabilities)))
    total = sum((p for _, p in entries), F(0))
    if total == 0:
        reject()
    return PLF(graph, LabellingSpec(label_set), [(l, p / total) for l, p in entries])


@given(theories(max_rules=5), policies, st.sampled_from([Semantics.GROUNDED, Semantics.PREFERRED]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_plf_tables_match_fraction_sums(theory, policy, semantics, data):
    graph = capped_graph(theory, policy, max_args=8)
    if data.draw(st.booleans()):
        plf = plf_with_semantics(pgf_from_ptf(ptf_independent(theory), policy=policy), semantics)
    else:
        plf = _random_plf(graph, data)
    assert _rows(plf.marginals) == _rows(fraction_marginals(plf))
    assert _rows(plf.conclusion_label_sets) == _rows(fraction_conclusion_label_sets(plf))
    # the statement rows folded from the table, against statement_label per labelling
    for statement in plf.conclusion_label_sets:
        for scheme in StatementScheme:
            expect = {}
            for labelling, p in plf.probs.items():
                key = statement_label(labelling, graph, statement, scheme)
                expect[key] = expect.get(key, F(0)) + p
            assert statement_marginal(plf, statement, scheme) == expect


def fraction_products(pgf, semantics, weights):
    """Each subgraph's probability p times each of its labellings' weights w, one
    Fraction product p·w per labelling, merged one Fraction at a time."""
    entries = []
    for subset, p in pgf.probs.items():
        inner = subgraph_labellings(pgf.graph, subset, semantics, 16)
        entries += [(l, p * w) for l, w in zip(inner, weights.weights_for(inner))]
    return fraction_normalise(entries)


@st.composite
def sublabelling_weights(draw, pgf, semantics):
    """No entry at all, or entries for the labellings of one subgraph of the
    support, over those subgraph's arguments.  Their weights have mixed
    denominators and sum to 1, or are all zero, so that subgraph falls back to
    the uniform split; a labelling left out weighs 0."""
    if draw(st.booleans()):
        return SublabellingWeights()
    subset = draw(st.sampled_from(sorted(pgf.probs, key=sorted)))
    inner = subgraph_labellings(pgf.graph, subset, semantics, 16)
    chosen = draw(st.lists(st.sampled_from(inner), unique=True)) if inner else []
    raw = [draw(probabilities) for _ in chosen]
    total = sum(raw, F(0))
    weights = [w / total for w in raw] if total else raw
    return SublabellingWeights.from_entries(
        ({a: l for a, l in labelling.entries if a in subset}, w)
        for labelling, w in zip(chosen, weights)
    )


@given(abstract_graphs(max_args=5), st.sampled_from(list(Semantics)), st.data())
@settings(max_examples=200, deadline=None)
def test_plf_with_semantics_matches_fraction_products(graph, semantics, data):
    """Outcome for outcome, in order and typed ``Fraction``; or both refuse."""
    pgf = PGF(graph, data.draw(distributions(st.frozensets(st.sampled_from(graph.ids())))))
    weights = data.draw(sublabelling_weights(pgf, semantics))
    got = _outcome(lambda: plf_with_semantics(pgf, semantics, weights))
    expect = _outcome(lambda: fraction_products(pgf, semantics, weights))
    event(f"{got[0]} with {'weights' if weights.entries else 'no weights'}")
    assert got[0] == expect[0]
    if got[0] == "accepted":
        assert _typed(got[1].probs) == [(l, F, p) for l, p in expect[1].items()]
