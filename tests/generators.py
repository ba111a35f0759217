"""Deterministic theory families for scale tests.

``layered_theory(k, layers)`` stacks ``layers`` layers of ``k`` alternative
rules, each deriving ``x_j`` from ``x_{j-1}``, so layer j has k^(j+1)
arguments and the theory about k^layers.  Even layers carry a rebutting fact
for ``-x_j`` that the first alternative outranks; odd layers guard one
alternative with a NAF premise that a fact undercuts.  Both attack kinds then
reach every argument built on top, through its sub-arguments.
"""

import hashlib

from arglab import DefeasibleTheory, Literal, Rule


def layered_theory(k: int, layers: int) -> DefeasibleTheory:
    rules = {}
    superiority = set()
    for j in range(layers):
        below = (Literal(f"x{j - 1}"),) if j else ()
        head = Literal(f"x{j}")
        for i in range(k):
            guarded = j % 2 == 1 and i == j % k
            naf = frozenset({Literal(f"b{j}")}) if guarded else frozenset()
            rules[f"r{j}_{i}"] = Rule(f"r{j}_{i}", below, naf, head)
        if j % 2 == 0:
            rules[f"n{j}"] = Rule(f"n{j}", (), frozenset(), Literal(f"x{j}", True))
            superiority.add((f"r{j}_0", f"n{j}"))
        else:
            rules[f"u{j}"] = Rule(f"u{j}", (), frozenset(), Literal(f"b{j}"))
    return DefeasibleTheory(rules, superiority=frozenset(superiority))


def attack_digest(attacks) -> str:
    """sha256 of the sorted attack pairs, one ``attacker target`` line each."""
    text = "\n".join(f"{b} {a}" for b, a in sorted(attacks))
    return hashlib.sha256(text.encode()).hexdigest()
