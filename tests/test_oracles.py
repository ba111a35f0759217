"""Rewritten paths against the brute-force code they replaced, on generated theories.

Each oracle below is the straightforward version of a rewritten path: attack
derivation over every target, subargument and attacker; graph validation over
every subargument edge and attack, and its cycle check by recursive
depth-first search; the attackers index inverted from the attack set; argument
construction that walks each literal again under every path and builds each
argument before looking its id up; the pushforward that rebuilds arguments per
rule subset; the product over all 2^n subsets; the complete, preferred and
stable labellings found by testing all 2^n candidate IN-sets, the
conflict-free ones by testing all 3^n assignments; the labelling search on
sets of ids that the bitmask search replaced; combined labellings with OFF
pasted around a labelling of the induced subgraph, built and validated as a
graph of its own; labellings built through the sorting, checking
``Labelling.from_mapping``, and the tuple-of-pairs labelling the label tuple
replaced; the argument and statement marginals that rescan the support on
every call; and the distribution merge, the conversions between frames, the
labelling frame built from one ``Fraction`` product p·w per labelling, and the
marginal tables folded one labelling at a time through ``label()`` and
``statement_label``, that add one ``Fraction`` at a time; the labelling
frame that labels every subgraph of the support whole and sums over them all,
which the frame factored over the graph's components replaced; the graph's
components found by a search from each argument; the joint probability
that scans every labelling of that whole frame; the joint composition
``ptf_independent``, ``pgf_from_ptf`` (or ``pag_to_pgf``) and
``plf_with_semantics``, which the frames built group by group replaced; the
walk over every subgraph of an argument frame with ``subgraph_labellings``,
which ``extension_probability`` reading label rows replaced; the checking public
constructor, which the graphs handed over by their builders skip, and the
sorted attack pairs, which bucketing by attacker replaced; each part's whole
labellings cut to its component's positions, which the label rows at those
positions replaced; and the marginal report built from the library's
``Fraction`` results and written by ``json.dumps``, which the report written
from integer rows replaced.
Results must agree exactly, under both preference policies.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
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
    CapExceededError,
    DefeasibleTheory,
    Distribution,
    DistributionError,
    Justification,
    Labelling,
    LabellingSpec,
    LabelSet,
    OnOffCriterion,
    PLF,
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
    extension_probability,
    grounded_labelling,
    induced_subgraph,
    is_legal,
    is_subargument_complete,
    joint_probability,
    justification_from_plf,
    labellings,
    lit,
    pag_to_pgf,
    pef_from_plf,
    pgf_from_plf,
    pgf_from_ptf,
    plf_from_pag,
    plf_from_pef,
    plf_from_pgf,
    plf_independent,
    plf_with_semantics,
    ptf_independent,
    statement_label,
    statement_label_probability,
    serialize_theory,
    statement_marginal,
    subgraph_labellings,
)
from arglab import semantics as semantics_module
from arglab.cli import main as cli_main
from arglab.dsl import format_rational
from arglab.frames import _normalise
from arglab.semantics import label_rows
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


def full_build_arguments(theory, max_args):
    """Every argument, walking each literal again under each path that reaches
    it and building each argument before looking its id up."""
    by_head = {}
    for rid in sorted(theory.rules):
        rule = theory.rules[rid]
        by_head.setdefault(rule.head, []).append(rule)
    found = {}

    def record(arg):
        if arg.canonical_id not in found:
            if len(found) >= max_args:
                raise CapExceededError(
                    f"more than {max_args} arguments; raise the cap to continue"
                )
            found[arg.canonical_id] = arg
        return found[arg.canonical_id]

    def args_for(literal, forbidden):
        out = []
        for rule in by_head.get(literal, ()):
            if rule.id in forbidden:
                continue
            blocked = forbidden | {rule.id}
            child_choices = [args_for(b, blocked) for b in rule.body_plain]
            for combo in itertools.product(*child_choices):
                out.append(record(Argument(rule.id, rule.head, combo, rule.body_naf)))
        return out

    for head in sorted(by_head, key=str):
        args_for(head, frozenset())
    return found


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


def has_cycle_recursive(nodes, edges):
    """Depth-first search for a cycle in the (child, parent) edges, one call
    per node on the path."""
    children = {}
    for b, a in edges:
        children.setdefault(a, []).append(b)
    state = {}

    def visit(node):
        state[node] = 1
        for nxt in children.get(node, ()):
            if state.get(nxt) == 1 or (nxt not in state and visit(nxt)):
                return True
        state[node] = 2
        return False

    return any(node not in state and visit(node) for node in nodes)


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


def brute_force_combined(graph, semantics, admit=is_subargument_complete):
    """Combined {IN, OUT, UN, OFF} labellings over every admitted subset,
    subargument-complete ones by default."""
    ids = sorted(graph.arguments)
    result = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        s = frozenset(a for a, b in zip(ids, bits) if b)
        if admit(graph, s):
            for inner in brute_force_labellings(induced_subgraph(graph, s), semantics):
                result.append(combine_with_off(graph, inner))
    return sorted(result, key=Labelling.sort_key)


def brute_force_on_off(graph, criterion):
    """{ON, OFF} labellings of every subset the criterion's test admits, in sorted order."""
    ids = sorted(graph.arguments)
    admit = semantics_module._CRITERION_TESTS[criterion]
    result = []
    for bits in itertools.product((False, True), repeat=len(ids)):
        s = frozenset(a for a, b in zip(ids, bits) if b)
        if admit(graph, s):
            labels = {a: ArgLabel.ON if a in s else ArgLabel.OFF for a in ids}
            result.append(Labelling.from_mapping(LabelSet.ON_OFF, labels))
    return sorted(result, key=Labelling.sort_key)


def brute_force_assignments(graph):
    """Every {IN, OUT, UN} assignment, in sorted order."""
    ids = sorted(graph.arguments)
    result = [
        Labelling.from_mapping(LabelSet.IN_OUT_UN, dict(zip(ids, combo)))
        for combo in itertools.product([ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN], repeat=len(ids))
    ]
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


def full_plf_with_semantics(pgf, semantics, weights=None, legal_only=False, max_args=16):
    """The labelling frame before it was factored over the graph's
    components: every subgraph of the support labelled whole, and the frame
    summed over all of their labellings."""
    weights = weights or SublabellingWeights()
    named = {a for assignment, _ in weights.entries for a, _ in assignment}
    unknown = sorted(named - pgf.graph.arguments.keys())
    if unknown:
        raise DistributionError(f"weights name unknown arguments {unknown}")
    admit = is_legal if legal_only else is_subargument_complete
    spec = LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=legal_only)
    groups = []
    for subset, n in pgf.probs.nums.items():
        if not admit(pgf.graph, subset):
            kind = "legal" if legal_only else "subargument-complete"
            raise DistributionError(f"subgraph {sorted(subset)} is not {kind}")
        inner = subgraph_labellings(pgf.graph, subset, semantics, max_args)
        if not inner:
            raise DistributionError(f"subgraph {sorted(subset)} has no {semantics.value} labelling")
        groups.append((n, inner, weights.weights_for(inner)))
    m = math.lcm(*(w.denominator for _, _, ws in groups for w in ws))
    entries = (
        (l, n * w.numerator * (m // w.denominator))
        for n, inner, ws in groups for l, w in zip(inner, ws)
    )
    return PLF(pgf.graph, spec, Distribution(pgf.probs.den * m, entries))


def graph_components(graph):
    """The connected components of the attacks and sub-edges, as id sets, by a
    search from each argument not yet reached, in id order."""
    links = {a: set() for a in graph.arguments}
    for x, y in graph.attacks | graph.sub_edges:
        links[x].add(y)
        links[y].add(x)
    reached, out = set(), []
    for start in graph.ids():
        if start in reached:
            continue
        component, stack = set(), [start]
        while stack:
            a = stack.pop()
            if a not in component:
                component.add(a)
                stack.extend(links[a])
        reached |= component
        out.append(frozenset(component))
    return out


def scanned_joint_probability(plf, assignment):
    """Probability that every named argument carries its label, one
    ``Fraction`` at a time over every labelling of ``probs``."""
    return sum((
        p for labelling, p in plf.probs.items()
        if all(labelling.label(a) is label for a, label in assignment.items())
    ), F(0))


def _component_positions(graph):
    ids = graph.ids()
    return tuple(tuple(sorted(map(ids.index, block))) for block in graph_components(graph))


@given(theories(max_rules=5, union=True), policies, abstract_graphs())
@settings(max_examples=150, deadline=None)
def test_graph_components_match_a_search_from_each_argument(theory, policy, abstract):
    """On theory graphs, their views without sub-edges, and attack graphs
    with self-attacks and isolated arguments: the same positions, in the
    same order."""
    graph = capped_graph(theory, policy, max_args=40)
    for g in (graph, graph.without_sub_edges(), abstract):
        assert g.components == _component_positions(g)
    empty = ArgumentationGraph({}, frozenset(), frozenset())
    assert empty.components == _component_positions(empty) == ()


def is_product(probs, blocks):
    """Whether every combination of parts inside the blocks has the product of
    the parts' probabilities, read one ``Fraction`` at a time."""
    margins = [rebuilt_pushforward(probs, lambda s, b=b: s & b) for b in blocks]
    return all(
        probs.get(frozenset().union(*parts), F(0)) == math.prod(m[p] for m, p in zip(margins, parts))
        for parts in itertools.product(*margins)
    )


# --- comparisons -------------------------------------------------------------


def _built_or_error(call):
    try:
        return list(call().items())
    except CapExceededError as exc:
        return type(exc), str(exc)


@given(theories(max_rules=7), st.integers(min_value=0, max_value=12) | st.just(10**5))
@settings(max_examples=400, deadline=None)
def test_build_arguments_matches_full_walk(theory, max_args):
    """The same arguments in the same order, children before parents, or the
    same refusal at the same argument."""
    got = _built_or_error(lambda: build_arguments(theory, max_args=max_args))
    expect = _built_or_error(lambda: full_build_arguments(theory, max_args))
    event("capped" if isinstance(expect, tuple) else "built")
    assert got == expect
    if isinstance(got, list):
        found = dict(got)
        position = {cid: i for i, (cid, _) in enumerate(got)}
        for cid, arg in got:
            for child in arg.direct_subs:
                assert found[child.canonical_id] is child
                assert position[child.canonical_id] < position[cid]


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


_HAND_LITERALS = [lit(t) for t in ("a", "-a", "b", "-b", "c")]


@st.composite
def shared_rule_arguments(draw):
    """A theory of one fact per rule id, and hand-built arguments on it whose
    top rules come from a pool of two ids: arguments sharing a top rule
    differ in conclusion or naf premises, which the theory's rules never do.
    Each parent has its own leaf, so every id is distinct."""
    rule_ids = ["r", "s"]
    leaves = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        rule_ids.append(f"p{i}")
        leaves.append(Argument(f"p{i}", draw(st.sampled_from(_HAND_LITERALS))))
    parents = [
        Argument(
            draw(st.sampled_from(["r", "s"])),
            draw(st.sampled_from(_HAND_LITERALS)),
            (leaf,),
            frozenset(draw(st.sets(st.sampled_from(_HAND_LITERALS), max_size=2))),
        )
        for leaf in leaves
    ]
    rules = {rid: Rule(rid, (), frozenset(), _HAND_LITERALS[k % 5]) for k, rid in enumerate(rule_ids)}
    pairs = st.tuples(st.sampled_from(rule_ids), st.sampled_from(rule_ids))
    superiority = frozenset(draw(st.sets(pairs, max_size=4)))
    arguments = {a.canonical_id: a for a in leaves + parents}
    return DefeasibleTheory(rules, superiority=superiority), arguments


def test_direct_attackers_depend_on_conclusion_and_naf_premises_not_only_the_rule():
    """``r`` concludes ``a`` over one leaf and ``b`` over the other, and only
    the second is undercut: a memo keyed by the rule id alone gives the two
    the same attackers."""
    leaf0, leaf1 = Argument("p0", lit("c")), Argument("p1", lit("c"))
    theory = DefeasibleTheory({
        "r": Rule("r", (), frozenset(), lit("a")),
        "s": Rule("s", (), frozenset(), lit("-a")),
        "p0": Rule("p0", (), frozenset(), lit("c")),
        "p1": Rule("p1", (), frozenset(), lit("-b")),
    })
    arguments = {a.canonical_id: a for a in (
        leaf0, leaf1, Argument("s", lit("-a")),
        Argument("r", lit("a"), (leaf0,)),
        Argument("r", lit("b"), (leaf1,), frozenset({lit("c")})),
    )}
    for policy in PreferencePolicy:
        got = derive_attacks(theory, arguments, policy)
        assert got == triple_loop_attacks(theory, arguments, policy)
        assert ("s()", "r(p0())") in got and ("s()", "r(p1())") not in got
        assert ("p0()", "r(p1())") in got and ("p0()", "r(p0())") not in got


@given(shared_rule_arguments(), policies)
@settings(max_examples=300, deadline=None)
def test_derive_attacks_matches_triple_loop_on_arguments_sharing_a_rule(built, policy):
    theory, arguments = built
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


@given(st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=300, deadline=None)
def test_subargument_cycle_check_matches_recursive_search(n, data):
    args = {f"r{i}()": Argument(f"r{i}", lit(f"a{i}")) for i in range(n)}
    ids = sorted(args)
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
    edges = frozenset(data.draw(st.sets(pairs, max_size=2 * n)))
    try:
        ArgumentationGraph(args, frozenset(), edges)
        refused = False
    except ValueError as exc:
        assert str(exc) == "subargument relation has a cycle"
        refused = True
    event("cycle" if refused else "acyclic")
    assert refused == has_cycle_recursive(ids, edges)


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


@given(
    st.one_of(theories(), theories(nested=True), theories(union=True), theories(nested=True, union=True)),
    policies,
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_handed_over_graphs_pass_the_checked_constructor(theory, policy, data):
    graph = capped_graph(theory, policy, max_args=60)
    kept = data.draw(st.sets(st.sampled_from(graph.ids()))) if graph.arguments else set()
    for g in (graph, induced_subgraph(graph, kept), graph.without_sub_edges()):
        checked = ArgumentationGraph(g.arguments, g.attacks, g.sub_edges)
        assert g == checked and g.ids() == checked.ids()
        assert list(g.attackers.items()) == list(checked.attackers.items())
        assert g.sorted_attacks() == sorted(g.attacks)


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
            assert semantics_module._in_set_labels(att, m, mask, range(len(ids))) == set_in_set_labels(graph, s, absent)


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


@given(theories(max_rules=5), policies, st.sampled_from(Semantics))
@settings(max_examples=80, deadline=None)
def test_labellings_are_built_from_label_rows(theory, policy, semantics):
    """Every spec's labellings match the brute-force enumerations, built from
    label rows: none through ``subgraph_labellings``, none sorted as a labelling."""
    graph = capped_graph(theory, policy, max_args=6)
    expected = [
        (LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics),
         brute_force_combined(graph, semantics)),
        (LabellingSpec(LabelSet.IN_OUT_UN_OFF, semantics=semantics, legal_only=True),
         brute_force_combined(graph, semantics, is_legal)),
        *((LabellingSpec(LabelSet.ON_OFF, criterion=criterion),
           brute_force_on_off(graph, criterion)) for criterion in OnOffCriterion),
        (LabellingSpec(LabelSet.IN_OUT_UN, semantics=semantics),
         brute_force_labellings(graph, semantics)),
        (LabellingSpec(LabelSet.IN_OUT_UN), brute_force_assignments(graph)),
    ]

    def refused(*args):
        raise AssertionError("labellings went through a labelling-level path")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics_module, "subgraph_labellings", refused)
        patch.setattr(Labelling, "sort_key", refused)
        for spec, labelled in expected:
            assert labellings(graph, spec) == labelled


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


def _label_every_subset_in_a_drawn_order(graph, data):
    """Every subset of ``graph``, in a drawn order, each under complete,
    preferred and stable in a drawn order, against the pasted brute force.
    The pieces one subset and semantics search are kept in the graph's memo
    and read back by every later subset and semantics that meets them."""
    ids = graph.ids()
    every = range(len(ids))
    subsets = [frozenset(s) for k in range(len(ids) + 1) for s in itertools.combinations(ids, k)]
    searched = (Semantics.COMPLETE, Semantics.PREFERRED, Semantics.STABLE)
    for subset in data.draw(st.permutations(subsets)):
        present = sum(1 << j for j, a in enumerate(ids) if a in subset)
        for semantics in data.draw(st.permutations(searched)):
            rows = label_rows(graph, present, semantics, every)
            assert rows == [l.labels for l in _pasted(graph, subset, semantics)]


@given(abstract_graphs(max_args=6), theories(max_rules=5), policies, st.data())
@settings(max_examples=150, deadline=None)
def test_label_rows_shared_across_subsets_match_pasted_brute_force(graph, theory, policy, data):
    """One abstract graph, with self-attacks and odd cycles, and one theory
    graph: the memo of pieces is shared across all of each graph's subsets
    and across the three searched semantics."""
    _label_every_subset_in_a_drawn_order(graph, data)
    _label_every_subset_in_a_drawn_order(capped_graph(theory, policy, max_args=6), data)


def test_parts_sharing_a_piece_search_it_once(monkeypatch):
    """Two parts, one with the unattacked r2() and one without, leave the
    same piece undecided: the mutual attack of r0() and r1().  Its IN-sets
    are searched once for preferred and once for complete and stable, on the
    piece alone, and read from the graph's memo by every later part."""
    args = {f"r{i}()": Argument(f"r{i}", lit(f"a{i}")) for i in range(3)}
    graph = ArgumentationGraph(args, frozenset({("r0()", "r1()"), ("r1()", "r0()")}), frozenset())
    real = semantics_module._complete_in_masks
    searched = []

    def counted(att, absent):
        searched.append(absent)
        return real(att, absent)

    monkeypatch.setattr(semantics_module, "_complete_in_masks", counted)
    every = range(3)
    parts = {0b011: frozenset({"r0()", "r1()"}), 0b111: frozenset(args)}
    for semantics in (Semantics.PREFERRED, Semantics.COMPLETE, Semantics.STABLE):
        for present, subset in parts.items():
            rows = label_rows(graph, present, semantics, every)
            assert rows == [l.labels for l in _pasted(graph, subset, semantics)]
    assert searched == [0b100, 0b100]  # everything outside the piece absent
    assert graph._piece_in_masks == {(True, 0b011): (0b010, 0b001), (False, 0b011): (0, 0b010, 0b001)}


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
    """Outcome for outcome as a mapping, each typed ``Fraction``, and the
    statement rows in the order of the frame's own ``probs``; or both refuse."""
    pgf = PGF(graph, data.draw(distributions(st.frozensets(st.sampled_from(graph.ids())))))
    weights = data.draw(sublabelling_weights(pgf, semantics))
    got = _outcome(lambda: plf_with_semantics(pgf, semantics, weights))
    expect = _outcome(lambda: fraction_products(pgf, semantics, weights))
    event(f"{got[0]} with {'weights' if weights.entries else 'no weights'}")
    assert got[0] == expect[0]
    if got[0] == "accepted":
        plf = got[1]
        assert plf.probs == expect[1]
        assert all(type(p) is F for p in plf.probs.values())
        assert _rows(plf.conclusion_label_sets) == _rows(fraction_conclusion_label_sets(plf))


def _frame_or_error(call):
    try:
        return call()
    except (DistributionError, CapExceededError) as exc:
        return type(exc), str(exc)


def _assert_same_frame(got, expect):
    """Both refuse alike, or the frames agree: the argument rows, in order,
    against folds of the reference's ``probs``; the statement rows, in order,
    against folds of the frame's own ``probs`` and, as mappings, against the
    reference's; ``probs`` as a mapping of ``Fraction``s; and the support
    order."""
    assert type(got) is type(expect)
    if not isinstance(expect, PLF):
        assert got == expect
        return
    assert _rows(got.marginals) == _rows(fraction_marginals(expect))
    assert _rows(got.conclusion_label_sets) == _rows(fraction_conclusion_label_sets(got))
    assert got.conclusion_label_sets == fraction_conclusion_label_sets(expect)
    assert got.probs == expect.probs
    assert all(type(p) is F for p in got.probs.values())
    assert got.support() == expect.support()


def _factor_sets(plf):
    ids = plf.graph.ids()
    return [frozenset(ids[j] for j in positions) for positions in plf._factors.positions]


@given(theories(max_rules=3, union=True), policies, st.sampled_from(list(Semantics)),
       st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_factored_frame_matches_full_product(theory, policy, semantics, legal_only, data):
    """``independent``, drawn ``ptf:`` and ``pag:`` frames over two theories
    side by side, with weights that sometimes apply and a cap that sometimes
    stops a subgraph.  A drawn rule-subset distribution is seldom the product
    of its pushforwards onto the components."""
    graph = capped_graph(theory, policy, max_args=8)
    source = data.draw(st.sampled_from(["independent", "ptf", "pag"]))
    if source == "independent":
        pgf = pgf_from_ptf(ptf_independent(theory), policy=policy)
    elif source == "ptf":
        rule_subsets = st.frozensets(st.sampled_from(sorted(theory.rules)))
        pgf = pgf_from_ptf(PTF(theory, data.draw(distributions(rule_subsets, 4))), policy=policy)
    else:
        graph = graph.without_sub_edges()
        pgf = pag_to_pgf(PAG(graph, {a: data.draw(probabilities) for a in graph.ids()}))
    weights = data.draw(sublabelling_weights(pgf, semantics))
    max_args = data.draw(st.sampled_from([2, 4, 16]))
    got = _frame_or_error(lambda: plf_with_semantics(pgf, semantics, weights, legal_only, max_args))
    expect = _frame_or_error(
        lambda: full_plf_with_semantics(pgf, semantics, weights, legal_only, max_args)
    )
    _assert_same_frame(got, expect)
    if isinstance(got, PLF):
        labels = sorted(got.spec.label_set.labels, key=lambda l: l.rank)
        for _ in range(3):
            assignment = data.draw(
                st.dictionaries(st.sampled_from(graph.ids()), st.sampled_from(labels), max_size=3)
            ) if graph.ids() else {}
            assert joint_probability(got, assignment) == scanned_joint_probability(expect, assignment)
        blocks = graph_components(graph)
        factored = len(blocks) > 1 and not weights.entries
        if source == "ptf" and factored:
            event("ptf: " + ("product" if is_product(pgf.probs, blocks) else "not a product"))
        event(f"{source}: {len(blocks) if factored else 1} factors")
        assert _factor_sets(got) == (blocks if factored else [frozenset(graph.ids())])
    else:
        event(got[0].__name__)


@given(
    theories(max_rules=3, union=True, argued=True), policies, st.sampled_from(list(Semantics)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_frame_over_a_drawn_distribution_factors_over_the_components(
    theory, policy, semantics, data
):
    """A drawn subgraph distribution is seldom the product of its parts' over
    the components: the frame still has one factor per component, and is
    still the same frame.  Both halves of the union theory have an argument,
    so the graph has at least two components."""
    graph = capped_graph(theory, policy, max_args=8).without_sub_edges()
    blocks = graph_components(graph)
    assert len(blocks) >= 2
    pgf = PGF(graph, data.draw(distributions(st.frozensets(st.sampled_from(graph.ids())), 6)))
    event("product" if is_product(pgf.probs, blocks) else "not a product")
    got = _frame_or_error(lambda: plf_with_semantics(pgf, semantics))
    _assert_same_frame(got, _frame_or_error(lambda: full_plf_with_semantics(pgf, semantics)))
    if isinstance(got, PLF):
        assert _factor_sets(got) == blocks


@st.composite
def grouped_theories(draw):
    """Two theories side by side, and sometimes a gadget on atoms of its own:
    ``t0 : => e.`` and ``t1 : => e.`` under ``t2 : e => f.``, whose two
    arguments for ``f`` lie in two components sharing the rule ``t2``, one
    group when ``t2`` is uncertain; ``t3 : => -f.`` sometimes joins them
    into one component by rebutting both."""
    theory = draw(theories(max_rules=3, union=True))
    if not draw(st.booleans()):
        return theory
    e, f = lit("e"), lit("f")
    gadget = {
        "t0": Rule("t0", (), frozenset(), e),
        "t1": Rule("t1", (), frozenset(), e),
        "t2": Rule("t2", (e,), frozenset(), f),
    }
    if draw(st.booleans()):
        gadget["t3"] = Rule("t3", (), frozenset(), lit("-f"))
    chances = {rid: draw(probabilities) for rid in gadget}
    return DefeasibleTheory(
        {**theory.rules, **gadget}, theory.conflicts, theory.superiority,
        {**theory.rule_probs, **chances},
    )


def _group_count(plf):
    return len(plf._factors.groups) if isinstance(plf, PLF) else None


@given(grouped_theories(), policies, st.sampled_from(list(Semantics)), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_grouped_frames_match_the_joint_composition(theory, policy, semantics, legal_only, data):
    """``plf_independent`` and ``plf_from_pag`` against the composition they
    replace, on several components, components sharing an uncertain rule, p
    in {0, 1}, the empty graph, every semantics, ``legal_only``, weights,
    caps of 2, 4 and 16, and argument frames with and without sub-edges: the
    same frame, or the same error."""
    graph = capped_graph(theory, policy, max_args=10)
    max_args = data.draw(st.sampled_from([2, 4, 16]))
    if data.draw(st.booleans()):
        source = "independent"
        pgf = pgf_from_ptf(ptf_independent(theory), policy=policy)
        weights = data.draw(sublabelling_weights(pgf, semantics))
        got = _frame_or_error(
            lambda: plf_independent(theory, semantics, policy, weights, legal_only, max_args)
        )
        expect = _frame_or_error(
            lambda: plf_with_semantics(
                pgf_from_ptf(ptf_independent(theory), policy=policy),
                semantics, weights, legal_only, max_args,
            )
        )
    else:
        source = "pag"
        # the CLI drops sub-edges; a PAG built in the library may keep them
        abstract = graph if data.draw(st.booleans()) else graph.without_sub_edges()
        pag = PAG(abstract, {a: data.draw(probabilities) for a in graph.ids()})
        weights = (
            data.draw(sublabelling_weights(pag_to_pgf(pag), semantics))
            if len(graph.arguments) <= 16 else SublabellingWeights()
        )
        got = _frame_or_error(lambda: plf_from_pag(pag, semantics, weights, legal_only, max_args))
        expect = _frame_or_error(
            lambda: plf_with_semantics(
                pag_to_pgf(pag, max_args), semantics, weights, legal_only, max_args
            )
        )
    _assert_same_frame(got, expect)
    if isinstance(got, PLF):
        assert got.spec == expect.spec
        ids = got.graph.ids()
        labels = sorted(got.spec.label_set.labels, key=lambda l: l.rank)
        for _ in range(3):
            assignment = data.draw(
                st.dictionaries(st.sampled_from(ids), st.sampled_from(labels), max_size=3)
            ) if ids else {}
            assert joint_probability(got, assignment) == scanned_joint_probability(expect, assignment)
        if not weights.entries and graph.ids():
            assert _factor_sets(got) == graph_components(got.graph)
        groups = _group_count(got)
        event(f"{source}: {groups} groups over {len(got._factors.positions)} factors")
    else:
        event(f"{source}: {got[0].__name__}")


def test_grouped_frames_on_the_empty_graph():
    """A theory with no argument: one factor over no position, one group."""
    theory = DefeasibleTheory(
        {"r0": Rule("r0", (lit("a"),), frozenset(), lit("b"))}, frozenset(), frozenset(),
        {"r0": F(1, 2)},
    )
    graph = build_graph(theory)
    pag = PAG(graph, {})
    for semantics in Semantics:
        got = plf_independent(theory, semantics)
        _assert_same_frame(got, plf_with_semantics(pgf_from_ptf(ptf_independent(theory)), semantics))
        _assert_same_frame(plf_from_pag(pag, semantics), plf_with_semantics(pag_to_pgf(pag), semantics))
        assert got._factors.positions == ((),) and _group_count(got) == 1


def test_argument_frame_with_sub_edges_is_refused_as_the_composition_refuses_it():
    """A PAG built in the library may keep its graph's sub-edges: the subgraph
    holding ``r1(r0())`` without ``r0()`` is not subargument-complete."""
    theory = DefeasibleTheory(
        {
            "r0": Rule("r0", (), frozenset(), lit("a")),
            "r1": Rule("r1", (lit("a"),), frozenset(), lit("b")),
        },
        frozenset(), frozenset(), {},
    )
    graph = build_graph(theory)
    pag = PAG(graph, {a: F(1, 2) for a in graph.ids()})
    expect = (DistributionError, "subgraph ['r1(r0())'] is not subargument-complete")
    assert _frame_or_error(lambda: plf_from_pag(pag, Semantics.GROUNDED)) == expect
    assert _frame_or_error(lambda: plf_with_semantics(pag_to_pgf(pag), Semantics.GROUNDED)) == expect


def test_components_sharing_an_uncertain_rule_are_one_group():
    """``x1`` and ``x2`` both conclude ``x``; ``y`` builds on each, so its two
    arguments lie in two components, one group, which enumerates ``x1`` and
    ``y`` alone: the certain ``x2``, the ``p = 0`` rule ``z`` and the unused
    uncertain ``u`` are not branched on."""
    theory = DefeasibleTheory(
        {
            "x1": Rule("x1", (), frozenset(), lit("x")),
            "x2": Rule("x2", (), frozenset(), lit("x")),
            "y": Rule("y", (lit("x"),), frozenset(), lit("g")),
            "z": Rule("z", (), frozenset(), lit("h")),
            "u": Rule("u", (lit("nothing"),), frozenset(), lit("k")),
        },
        frozenset(), frozenset(), {"x1": F(1, 3), "y": F(1, 2), "z": F(0), "u": F(1, 4)},
    )
    plf = plf_independent(theory, Semantics.GROUNDED)
    ids = plf.graph.ids()
    assert [[ids[j] for j in plf._factors.positions[i]] for i in (0, 1, 2)] == [
        ["x1()", "y(x1())"], ["x2()", "y(x2())"], ["z()"],
    ]
    (shared, source), (alone, never) = plf._factors.groups
    assert (shared, alone) == ((0, 1), (2,))
    assert source.den == 6 and len(source) == 4
    assert never.den == 1 and len(never) == 1
    _assert_same_frame(
        plf, plf_with_semantics(pgf_from_ptf(ptf_independent(theory)), Semantics.GROUNDED)
    )


def walked_extension_probability(pag, semantics, ids):
    """Every subgraph of the argument frame, 2^n of them, each weighed as the
    product of its members' and non-members' probabilities, labelled whole by
    ``subgraph_labellings``."""
    target = frozenset(ids)
    graph, total = pag.graph, F(0)
    for subset in map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(graph.ids(), k) for k in range(len(graph.ids()) + 1)
    )):
        if target <= subset and any(
            l.with_label(ArgLabel.IN) == target
            for l in subgraph_labellings(graph, subset, semantics, 16)
        ):
            total += math.prod(
                (p if a in subset else 1 - p for a, p in pag.arg_probs.items()), start=F(1)
            )
    return total


@given(abstract_graphs(max_args=6), st.sampled_from(list(Semantics)), st.data())
@settings(max_examples=200, deadline=None)
def test_extension_probability_matches_the_subgraph_walk(graph, semantics, data):
    """Self-attacks and odd cycles included; the target is drawn from the
    graph's ids, so it is often no IN set at all."""
    pag = PAG(graph, {a: data.draw(probabilities) for a in graph.ids()})
    target = data.draw(st.frozensets(st.sampled_from(graph.ids()), max_size=3))
    got = extension_probability(pag, semantics, target)
    assert type(got) is F
    assert got == walked_extension_probability(pag, semantics, target)


def pairs_pgf(n):
    """Subgraphs of ``n`` mutual-attack pairs a_k, b_k under independent
    presence: pairs 0 and 1 certain, every other argument present with
    probability 1/2.  b_1 and b_{n-1} both conclude ``z``, so the row of
    ``z`` multiplies two factors."""
    args = {}
    for k in range(n):
        args[f"a{k}()"] = Argument(f"a{k}", lit(f"p{k}"))
        args[f"b{k}()"] = Argument(f"b{k}", lit("z" if k in (1, n - 1) else f"q{k}"))
    attacks = {(f"{x}{k}()", f"{y}{k}()") for k in range(n) for x, y in ("ab", "ba")}
    graph = ArgumentationGraph(args, frozenset(attacks), frozenset())
    probs = {a: F(1) if int(a[1:-2]) < 2 else F(1, 2) for a in args}
    return pag_to_pgf(PAG(graph, probs))


def test_eight_pair_frame_holds_34_labellings_and_no_product():
    """Under preferred, a certain pair has 2 labellings and an uncertain one 5
    over its 4 subgraphs: the factors hold 2 + 2 + 6 * 5 = 34, where the full
    product holds 2 * 2 * 5**6 = 62,500.  Every row is read off the factors."""
    plf = plf_with_semantics(pairs_pgf(8), Semantics.PREFERRED)
    assert sum(map(len, plf._factors.dists)) == 34
    for arg_id in plf.graph.ids():
        for label in plf.spec.label_set.labels:
            argument_label_probability(plf, arg_id, label)
    for statement in plf.conclusion_label_sets:
        for scheme in StatementScheme:
            statement_marginal(plf, statement, scheme)
    # a2() is IN when present alone, and in half the labellings with b2()
    in_, out, off = ArgLabel.IN, ArgLabel.OUT, ArgLabel.OFF
    assert plf.marginals["a2()"] == {in_: F(3, 8), out: F(1, 8), off: F(1, 2)}
    # joints over one, two and three factors, read off those factors alone
    assert joint_probability(plf, {"a2()": in_, "b2()": out}) == F(1, 8)
    assert joint_probability(plf, {"a2()": in_, "b2()": off}) == F(1, 4)
    assert joint_probability(plf, {"a2()": in_, "a3()": in_}) == F(9, 64)
    assert joint_probability(plf, {"a0()": in_, "b1()": out, "b7()": off}) == F(1, 8)
    assert joint_probability(plf, {}) == 1
    with pytest.raises(KeyError):
        joint_probability(plf, {"a2()": in_, "c0()": in_})
    assert "probs" not in vars(plf)


def test_three_pair_frame_matches_full_product():
    pgf = pairs_pgf(3)
    for semantics in Semantics:
        got = plf_with_semantics(pgf, semantics)
        assert len(got._factors.dists) == 3
        _assert_same_frame(got, full_plf_with_semantics(pgf, semantics))


def test_factored_frame_lists_each_subgraph_as_the_product_of_its_parts():
    """``probs`` lists the subgraphs in the subgraph distribution's order, and
    each subgraph's labellings in the product order of its parts' labellings
    inside the components, the first component outermost, the same on every
    build; the row of ``z``, over two factors, lists its label sets in the
    order they first occur there."""
    pgf = pairs_pgf(3)
    graph = pgf.graph
    blocks = graph_components(graph)
    owner = {a: i for i, block in enumerate(blocks) for a in block}
    for semantics in Semantics:
        plf = plf_with_semantics(pgf, semantics)
        expect = []
        for subset in pgf.probs:
            inner = [subgraph_labellings(graph, subset & block, semantics, 16) for block in blocks]
            for combo in itertools.product(*inner):
                labels = [combo[owner[a]].label(a) for a in graph.ids()]
                expect.append(Labelling.over(graph, plf.spec.label_set, labels))
        assert list(plf.probs) == expect
        assert _typed(plf_with_semantics(pgf, semantics).probs) == _typed(plf.probs)
        z = [a for a, arg in plf.graph.arguments.items() if arg.conclusion == lit("z")]
        seen = dict.fromkeys(frozenset(l.label(a) for a in z) for l in expect)
        assert list(plf.conclusion_label_sets[lit("z")]) == list(seen)


# --- label rows at a component's positions -----------------------------------


def _check_rows_match_cut_labellings(graph, subset):
    """Each component's part of ``subset``, labelled at the component's
    positions alone, gives the part's whole labellings cut there, in the
    same order, both the engine's and the brute-force pasted ones."""
    ids = graph.ids()
    for positions in graph.components:
        part = subset & frozenset(ids[j] for j in positions)
        present = sum(1 << j for j in positions if ids[j] in part)
        for semantics in Semantics:
            rows = label_rows(graph, present, semantics, positions)
            cut = [tuple(l.labels[j] for j in positions) for l in _pasted(graph, part, semantics)]
            engine = subgraph_labellings(graph, part, semantics, 16)
            assert rows == [tuple(l.labels[j] for j in positions) for l in engine] == cut
    for semantics in Semantics:
        assert label_rows(graph, 0, semantics, ()) == [()]


@given(abstract_graphs(max_args=6), st.data())
@settings(max_examples=150, deadline=None)
def test_label_rows_at_component_positions_match_cut_labellings_on_abstract_graphs(graph, data):
    _check_rows_match_cut_labellings(graph, data.draw(st.frozensets(st.sampled_from(graph.ids()))))


@given(theories(max_rules=5), policies, st.data())
@settings(max_examples=150, deadline=None)
def test_label_rows_at_component_positions_match_cut_labellings_on_theory_graphs(
    theory, policy, data
):
    graph = capped_graph(theory, policy, max_args=6)
    subset = data.draw(st.frozensets(st.sampled_from(graph.ids()))) if graph.ids() else frozenset()
    _check_rows_match_cut_labellings(graph, subset)
    _check_rows_match_cut_labellings(graph.without_sub_edges(), subset)


def test_label_rows_on_the_empty_graph():
    graph = ArgumentationGraph({}, frozenset(), frozenset())
    assert graph.components == ()
    for semantics in Semantics:
        assert label_rows(graph, 0, semantics, ()) == [()]
        assert subgraph_labellings(graph, frozenset(), semantics, 16) == [
            Labelling.over(graph, LabelSet.IN_OUT_UN_OFF, ())
        ]


def test_frame_without_weights_builds_no_labelling(monkeypatch):
    """Each part is labelled at its component's positions as label rows; only
    weights, summed per whole labelling, need labellings built."""
    pgf = pairs_pgf(3)
    built = []
    real = Labelling.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Labelling, "__init__", counted)
    for semantics in Semantics:
        plf = plf_with_semantics(pgf, semantics)
        plf.marginals, plf.conclusion_label_sets
    assert built == []
    # an entry no preferred labelling matches: uniform weights, but one factor
    weights = SublabellingWeights.from_entries([({"a0()": ArgLabel.UN}, F(1))])
    plf_with_semantics(pgf, Semantics.PREFERRED, weights=weights)
    assert built


# --- the marginal report against json.dumps of the library's results ----------


def exact_cell(p):
    """``p`` as the report writes it; ``round`` of a Fraction rounds half to even exactly."""
    micro = round(p * 10**6)
    return {"num": p.numerator, "den": p.denominator,
            "approx": f"{micro // 10**6}.{micro % 10**6:06d}"}


def fraction_justification(plf, arg_id):
    """The justification read off ``Fraction`` probabilities."""
    p_in = argument_label_probability(plf, arg_id, ArgLabel.IN)
    if argument_label_probability(plf, arg_id, ArgLabel.OFF) == 1:
        return Justification.OFJ
    if p_in == 1:
        return Justification.SKJ
    return Justification.CRJ if p_in > 0 else Justification.NOJ


_STATEMENT_COLUMNS = {
    StatementScheme.BIVALENT: ["in", "no"],
    StatementScheme.WORSTCASE: ["in", "out", "un", "off", "unp"],
}


def library_marginal_body(plf, scheme, target):
    """The report body after its header, built from the library's ``Fraction``
    results, or None for an unknown argument id."""
    labels = sorted(plf.spec.label_set.labels, key=lambda l: l.rank)

    def arg_entry(a):
        justification = justification_from_plf(plf, a)
        assert justification is fraction_justification(plf, a)
        return {
            "id": a,
            "labels": {l.value: exact_cell(argument_label_probability(plf, a, l)) for l in labels},
            "justification": justification.value,
        }

    def stmt_entry(s):
        row = statement_marginal(plf, s, scheme)
        return {
            "statement": str(s),
            "labels": {v: exact_cell(row.get(StatementLabel(v), F(0)))
                       for v in _STATEMENT_COLUMNS[scheme]},
        }

    body = {"scheme": scheme.value}
    if target.startswith("arg:"):
        if target[4:] not in plf.graph.arguments:
            return None
        body["arguments"] = [arg_entry(target[4:])]
    elif target.startswith("stmt:"):
        body["statements"] = [stmt_entry(lit(target[5:]))]
    else:
        body["arguments"] = [arg_entry(a) for a in plf.graph.ids()]
        statements = {a.conclusion for a in plf.graph.arguments.values()}
        body["statements"] = [stmt_entry(s) for s in sorted(statements, key=str)]
    return body


@given(theories(max_rules=5), policies, st.sampled_from(Semantics),
       st.sampled_from(StatementScheme), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_marginal_report_is_json_dumps_of_the_library_results(
    theory, policy, semantics, scheme, pag, data
):
    """Every target form, under the ``independent`` and ``pag:`` frames."""
    graph = capped_graph(theory, policy, max_args=7)
    ids = graph.ids()
    targets = ["all", "stmt:zz", "arg:nope()"] + [f"arg:{a}" for a in ids]
    targets += sorted({f"stmt:{a.conclusion}" for a in graph.arguments.values()})
    target = data.draw(st.sampled_from(targets))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "theory.dl")
        path.write_text(serialize_theory(theory))
        argv = ["marginal", str(path), "--policy", policy.value, "--semantics", semantics.value,
                "--scheme", scheme.value, "--target", target]
        frame = "independent"
        if pag:
            probs = {a: data.draw(probabilities) for a in ids}
            frame = f"pag:{Path(work, 'theory.pag')}"
            Path(work, "theory.pag").write_text(
                "".join(f"{a} : {format_rational(p)}.\n" for a, p in probs.items())
            )
            argv += ["--frame", frame]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    try:
        if pag:
            pgf = pag_to_pgf(PAG(graph.without_sub_edges(), probs))
        else:
            pgf = pgf_from_ptf(ptf_independent(theory), policy=policy)
        plf = plf_with_semantics(pgf, semantics)
    except DistributionError as exc:  # a subgraph with no stable labelling
        assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", f"validation error: {exc}\n")
        return
    body = library_marginal_body(plf, scheme, target)
    if body is None:
        message = f"validation error: unknown argument id {target[4:]!r}\n"
        assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", message)
        return
    header = {"schema": 1, "command": "marginal", "input": str(path), "input_digest": digest,
              "frame": frame, "semantics": semantics.value}
    assert code == 0
    assert stdout.getvalue() == json.dumps({**header, **body}, indent=2) + "\n"
