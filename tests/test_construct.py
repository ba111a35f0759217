import gc
import sys

import pytest

from arglab import (
    Argument,
    ArgumentationGraph,
    CapExceededError,
    PreferencePolicy,
    build_arguments,
    build_graph,
    derive_attacks,
    induced_subgraph,
    is_legal,
    is_rule_complete,
    is_subargument_complete,
    lit,
    parse_theory,
    to_dot,
)

from conftest import (
    A_B,
    A_B1,
    A_B2,
    A_C,
    A_D,
    C_A,
    C_AB,
    C_ABC,
    C_B,
    C_BC,
    RUNNING_EXAMPLE,
)
from generators import attack_digest, layered_theory


def test_running_example_arguments(running_theory):
    args = build_arguments(running_theory)
    assert set(args) == {A_B1, A_B2, A_B, A_C, A_D}
    assert args[A_B].direct_subs == (args[A_B1], args[A_B2])
    assert str(args[A_C].conclusion) == "c"


def test_running_example_attacks(running_graph):
    assert running_graph.attacks == {(A_B, A_C), (A_C, A_D), (A_D, A_C)}
    assert running_graph.sub_edges == {(A_B1, A_B), (A_B2, A_B)}


def test_superiority_blocks_rebuttal_under_last_link(running_theory):
    # making the rule for -c superior to the rule for c removes c's rebuttal
    text = RUNNING_EXAMPLE + "rd > rc.\n"
    graph = build_graph(parse_theory(text))
    assert graph.attacks == {(A_B, A_C), (A_D, A_C)}
    # undercutting is untouched by preferences
    text2 = RUNNING_EXAMPLE + "rc > rb.\nrd > rc.\nrc > rd.\n"
    graph2 = build_graph(parse_theory(text2))
    assert (A_B, A_C) in graph2.attacks


def test_policy_none_ignores_superiority():
    text = RUNNING_EXAMPLE + "rd > rc.\n"
    theory = parse_theory(text)
    args = build_arguments(theory)
    attacks = derive_attacks(theory, args, policy=PreferencePolicy.NONE)
    assert attacks == {(A_B, A_C), (A_C, A_D), (A_D, A_C)}


@pytest.mark.parametrize(
    "policy, attacks, digest",
    [
        (
            PreferencePolicy.LAST_LINK,
            3326,
            "b0d634baf7b60aa94c6141dbe129f837db3d547d8612d832858cc648bea235ce",
        ),
        (
            PreferencePolicy.NONE,
            4374,
            "0fc400660e65f4d295ed1991ef9d48b985ec3a9dba0ec244a0a188c87484c4fd",
        ),
    ],
    ids=["last_link", "none"],
)
def test_layered_theory_at_scale(policy, attacks, digest):
    # Counts and digests were recorded from the triple-loop derivation, which
    # took about 5 s per policy on this theory.
    graph = build_graph(layered_theory(3, 6), policy=policy)
    assert len(graph.arguments) == 1098
    assert len(graph.sub_edges) == 1089
    assert len(graph.attacks) == attacks
    assert attack_digest(graph.attacks) == digest


def test_chain_arguments(chain_graph):
    assert set(chain_graph.arguments) == {C_A, C_B, C_AB, C_BC, C_ABC}
    assert chain_graph.attacks == frozenset()
    assert chain_graph.sub_edges == {(C_A, C_AB), (C_B, C_BC), (C_AB, C_ABC)}


def test_attack_on_subargument_reaches_superargument():
    # -a rebuts the subargument for a, hence also the argument built on it
    theory = parse_theory("r1 : => a.\nr2 : a => b.\nr3 : => -a.\n")
    graph = build_graph(theory)
    assert ("r3()", "r1()") in graph.attacks
    assert ("r3()", "r2(r1())") in graph.attacks


def test_rule_reuse_banned_on_paths():
    # cyclic rule base stays finite: a rule never repeats on a path
    theory = parse_theory("r1 : => a.\nr2 : a => b.\nr3 : b => a.\n")
    args = build_arguments(theory)
    assert set(args) == {"r1()", "r2(r1())", "r3(r2(r1()))"}
    # siblings may still share a rule
    theory2 = parse_theory("r1 : => a.\nr2 : a, a => b.\n")
    args2 = build_arguments(theory2)
    assert "r2(r1(),r1())" in args2


def test_graph_construction_leaves_no_reference_cycle():
    """Building, attack derivation and graph validation leave nothing for the
    cyclic collector: what a build allocates is freed when it is dropped."""
    theory = layered_theory(2, 5)
    gc.collect()
    gc.disable()
    try:
        graph = build_graph(theory)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(graph.arguments) == 67


def test_attacks_and_validation_walk_chains_past_the_recursion_limit():
    """Attack derivation and graph validation keep their own stacks, so an
    argument nested deeper than the recursion limit raises no RecursionError."""
    depth = sys.getrecursionlimit() + 200
    theory = parse_theory("n : => -x0.\n")
    fact = Argument("n", lit("-x0"))
    arg = Argument("r0", lit("x0"))
    arguments = {fact.canonical_id: fact, arg.canonical_id: arg}
    for i in range(1, depth):
        arg = Argument(f"r{i}", lit(f"x{i}"), (arg,))
        arguments[arg.canonical_id] = arg
    attacks = derive_attacks(theory, arguments)
    # n() rebuts r0(), hence every argument built on it, and r0() rebuts n()
    assert attacks == {("r0()", "n()")} | {("n()", a) for a in arguments if a != "n()"}
    sub_edges = frozenset(
        (child.canonical_id, a.canonical_id)
        for a in arguments.values()
        for child in a.direct_subs
    )
    graph = ArgumentationGraph(arguments, attacks, sub_edges)
    assert len(graph.sub_edges) == depth - 1
    with pytest.raises(ValueError, match="subargument relation has a cycle"):
        ArgumentationGraph(arguments, frozenset(), sub_edges | {(arg.canonical_id, "r0()")})


def test_argument_cap():
    with pytest.raises(CapExceededError):
        build_arguments(parse_theory(RUNNING_EXAMPLE), max_args=2)


def test_subargument_completeness(chain_graph):
    assert is_subargument_complete(chain_graph, {C_A, C_B})
    assert is_subargument_complete(chain_graph, {C_A, C_AB, C_ABC})
    assert not is_subargument_complete(chain_graph, {C_BC})
    assert not is_subargument_complete(chain_graph, {C_ABC, C_AB})
    assert is_subargument_complete(chain_graph, set())


def test_rule_completeness(chain_graph):
    # {AB} uses r1 but omits the argument A built solely from r1
    assert not is_rule_complete(chain_graph, {C_AB})
    assert is_rule_complete(chain_graph, {C_A, C_AB})
    # BC's rule r4 is in use and BC's subargument B is present, so BC is owed
    assert not is_rule_complete(chain_graph, {C_A, C_B, C_AB, C_ABC})
    assert is_rule_complete(chain_graph, {C_A, C_B, C_BC})
    assert is_rule_complete(chain_graph, set(chain_graph.arguments))


def test_legal_sets(chain_graph):
    ids = sorted(chain_graph.arguments)
    import itertools

    subarg = [
        s
        for n in range(len(ids) + 1)
        for s in itertools.combinations(ids, n)
        if is_subargument_complete(chain_graph, s)
    ]
    legal = [s for s in subarg if is_legal(chain_graph, s)]
    assert len(subarg) == 12
    assert len(legal) == 10
    assert not is_legal(chain_graph, {C_A, C_B, C_AB, C_BC})
    assert not is_legal(chain_graph, {C_A, C_B, C_AB, C_ABC})


def test_induced_subgraph(running_graph):
    sub = induced_subgraph(running_graph, {A_B1, A_C, A_D})
    assert set(sub.arguments) == {A_B1, A_C, A_D}
    assert sub.attacks == {(A_C, A_D), (A_D, A_C)}
    assert sub.sub_edges == frozenset()
    with pytest.raises(ValueError):
        induced_subgraph(running_graph, {"nope()"})


def test_to_dot(running_graph):
    dot = to_dot(running_graph)
    assert dot.startswith("digraph")
    assert f'"{A_D}" -> "{A_C}";' in dot
    assert f'"{A_B1}" -> "{A_B}" [style=dashed, label="sub"];' in dot


def test_graphs_are_handed_over_unchecked(running_theory, monkeypatch):
    """The builders' graphs skip the public constructor's checks, which hold by
    construction, and printing a graph builds no attacker index."""

    def checked(graph):
        raise AssertionError("the graph was checked again")

    monkeypatch.setattr(ArgumentationGraph, "__post_init__", checked)
    graph = build_graph(running_theory)
    to_dot(graph)
    assert "attackers" not in vars(graph)
    induced_subgraph(graph, {A_B1, A_C})
    graph.without_sub_edges()
