"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of ``(seed, index)``: the same seed gives
byte-identical theory and PAG files.  Each pool is stratified by the input
properties that set a query's cost (argument count, rule count, uncertain
rules), in a fixed round-robin order, so that any prefix of the pool has the
same mix and pools drawn from different seeds cost about the same.  The seed
varies everything else: which layers get rebutters, NAF guards and
superiority, which gadgets make up a theory and how they are bridged, which
rules are uncertain, and every probability.

Argument construction is re-implemented here, independently of the engine,
so that the generators can prove that every query fits the engine's caps and
the checks can compare the engine's argument set against it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

# Engine caps the inputs must stay within (arglab.construct.MAX_ARGUMENTS and
# arglab.semantics.MAX_ENUM_ARGUMENTS), so that no query exits 3.
MAX_ARGUMENTS = 100_000
MAX_ENUM_ARGUMENTS = 16

PROBS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


@dataclass(frozen=True)
class Rule:
    id: str
    plain: Tuple[str, ...]
    naf: Tuple[str, ...]
    head: str


@dataclass
class Theory:
    rules: List[Rule]
    superiority: List[Tuple[str, str]] = field(default_factory=list)
    probs: Dict[str, Fraction] = field(default_factory=dict)

    def text(self) -> str:
        lines = []
        for r in self.rules:
            body = ", ".join(list(r.plain) + [f"~{n}" for n in r.naf])
            lines.append(f"{r.id} : {body}{' ' if body else ''}=> {r.head}.")
        lines += [f"{s} > {w}." for s, w in self.superiority]
        lines += [f"p({rid}) = {_rat(p)}." for rid, p in sorted(self.probs.items())]
        return "\n".join(lines) + "\n"


def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Arg:
    id: str
    conclusion: str
    children: Tuple["Arg", ...]


def arguments(theory: Theory) -> Dict[str, Arg]:
    """Every argument of the theory, keyed by canonical id ``rule(c1,c2)``.

    Same definition as the engine: an argument applies a rule to one argument
    per plain body literal, and no rule repeats on a root-to-leaf path.
    """
    by_head: Dict[str, List[Rule]] = {}
    for r in sorted(theory.rules, key=lambda r: r.id):
        by_head.setdefault(r.head, []).append(r)
    found: Dict[str, Arg] = {}

    def args_for(literal: str, forbidden: FrozenSet[str]) -> List[Arg]:
        out = []
        for r in by_head.get(literal, ()):
            if r.id in forbidden:
                continue
            choices = [args_for(b, forbidden | {r.id}) for b in r.plain]
            for combo in itertools.product(*choices):
                arg = Arg(f"{r.id}({','.join(c.id for c in combo)})", r.head, combo)
                found.setdefault(arg.id, arg)
                out.append(arg)
                if len(found) > MAX_ARGUMENTS:
                    raise ValueError("generated theory exceeds the argument cap")
        return out

    for head in sorted(by_head):
        args_for(head, frozenset())
    return found


def sub_edges(args: Dict[str, Arg]) -> FrozenSet[Tuple[str, str]]:
    return frozenset((c.id, a.id) for a in args.values() for c in a.children)


# --- graph-layered -----------------------------------------------------------
#
# Why: k alternative rules per layer over L layers give k^L-style argument
# blow-up, so nearly all the work is attack derivation and graph validation;
# frames, semantics and marginals do none.  Rebutting facts on every other
# layer (some rules outrank them) and an undercut NAF guard on the layers in
# between exercise both attack kinds.  The seed picks which half rebuts, the
# superiority pairs and the guarded alternatives, but not how many, since the
# attack count sets the cost of validation and of the JSON output.
#
# Five strata of equal weight, from 16 to about 370 arguments; the largest
# shape fills two of them.  The median then falls inside the (2, 7) stratum
# and the tail (about the 96th percentile at the 200-odd queries of a 60 s
# run) inside the largest.  Queries of about 0.1 s, such as (2, 6), swung by
# 30% with the machine's speed, twice as much as the attack-derivation-bound
# large ones, so none sits at the median.  k=2 over 8 layers (about 520
# arguments, 1.6 s a query) is left out: it cut a 30 s run to 65 queries and
# made the tail swing by 20% between seeds.

LAYERED_SHAPES = ((2, 3), (3, 3), (2, 7), (3, 5), (3, 5))


def layered_theory(seed: int, index: int) -> Theory:
    k, layers = LAYERED_SHAPES[index % len(LAYERED_SHAPES)]
    rng = random.Random(f"graph-layered:{seed}:{index}")
    parity = rng.randrange(2)
    rules: List[Rule] = []
    superiority: List[Tuple[str, str]] = []
    for j in range(layers):
        below = (f"x{j - 1}",) if j else ()
        if j % 2 == parity:  # rebutted layer: -x_j, outranked by some rules
            rules += [Rule(f"r{j}_{i}", below, (), f"x{j}") for i in range(k)]
            rules.append(Rule(f"n{j}", (), (), f"-x{j}"))
            superiority += [(f"r{j}_{i}", f"n{j}") for i in range(k) if rng.random() < 0.5]
        else:  # one NAF-guarded alternative, undercut by the fact b_j
            guarded = rng.randrange(k)
            rules += [
                Rule(f"r{j}_{i}", below, (f"b{j}",) if i == guarded else (), f"x{j}")
                for i in range(k)
            ]
            rules.append(Rule(f"u{j}", (), (), f"b{j}"))
    return Theory(rules, superiority)


# --- gadget theories (marginal-preferred, check-grounded) --------------------
#
# Small theories built from gadgets of known size, joined by NAF bridges so
# that the graph does not fall apart into independent components.  Each
# gadget is (rules, arguments) for suffix ``s``.


def _gadget(kind: str, s: str) -> List[Rule]:
    if kind == "rebut":  # two facts for a and -a
        return [Rule(f"fa{s}", (), (), f"a{s}"), Rule(f"fn{s}", (), (), f"-a{s}")]
    if kind == "rebut_chain":  # -a also rebuts the argument built on a
        return [
            Rule(f"fa{s}", (), (), f"a{s}"),
            Rule(f"fn{s}", (), (), f"-a{s}"),
            Rule(f"d{s}", (f"a{s}",), (), f"e{s}"),
        ]
    if kind == "naf_pair":  # mutual undercut
        return [Rule(f"np{s}", (), (f"q{s}",), f"p{s}"), Rule(f"nq{s}", (), (f"p{s}",), f"q{s}")]
    if kind == "naf_guard":  # a fact undercuts a derived argument
        return [
            Rule(f"g{s}", (), (), f"s{s}"),
            Rule(f"h{s}", (f"s{s}",), (f"t{s}",), f"u{s}"),
            Rule(f"k{s}", (), (), f"t{s}"),
        ]
    if kind == "odd_loop":  # three-cycle of undercuts: no stable, empty preferred
        return [
            Rule(f"c1{s}", (), (f"y3{s}",), f"y1{s}"),
            Rule(f"c2{s}", (), (f"y1{s}",), f"y2{s}"),
            Rule(f"c3{s}", (), (f"y2{s}",), f"y3{s}"),
        ]
    if kind == "alt_support":  # two supports for a, a derived b, rebutted by -b
        return [
            Rule(f"f1{s}", (), (), f"a{s}"),
            Rule(f"f2{s}", (), (), f"a{s}"),
            Rule(f"d{s}", (f"a{s}",), (), f"b{s}"),
            Rule(f"nb{s}", (), (), f"-b{s}"),
        ]
    raise ValueError(kind)


GADGETS = ("rebut", "rebut_chain", "naf_pair", "naf_guard", "odd_loop", "alt_support")


@dataclass(frozen=True)
class Stratum:
    rules: int
    args: int
    uncertain: int


@functools.lru_cache(maxsize=None)
def gadget_mix(family: str, index: int, stratum: Stratum) -> Tuple[str, ...]:
    """The gadget kinds of a stratum, the same for every seed.

    How many choice points a theory has (rebut pairs, NAF pairs, odd loops)
    multiplies its labellings, so the mix is fixed per stratum to keep the
    cost of pools drawn from different seeds alike."""
    rng = random.Random(f"{family}:stratum:{index}")
    while True:
        kinds: List[str] = []
        while sum(len(_gadget(k, "")) for k in kinds) < stratum.rules - 3:
            kinds.append(rng.choice(GADGETS))
        if sum(len(_gadget(k, "")) for k in kinds) > stratum.rules - 1:
            continue
        if _bridged(rng, tuple(kinds), stratum) is not None:
            return tuple(kinds)


def _bridged(
    rng: random.Random, kinds: Tuple[str, ...], stratum: Stratum
) -> Optional[Tuple[Theory, Dict[str, Arg]]]:
    """The gadgets tied together by bridge rules, with exactly the stratum's
    argument count, or None when no try hits it.

    A bridge ``w : ~lit => w`` is undercut by one gadget; ``w : lit1, ~lit2
    => w`` also builds on another."""
    gadgets = [r for n, kind in enumerate(kinds) for r in _gadget(kind, f"_{n}")]
    heads = sorted({r.head for r in gadgets})
    for _ in range(1_000):
        rules = list(gadgets)
        for b in range(stratum.rules - len(gadgets)):
            plain = (rng.choice(heads),) if rng.random() < 0.5 else ()
            rules.append(Rule(f"w{b}", plain, (rng.choice(heads),), f"w{b}"))
        theory = Theory(rules)
        args = arguments(theory)
        if len(args) == stratum.args:
            return theory, args
    return None


def gadget_theory(
    rng: random.Random, kinds: Tuple[str, ...], stratum: Stratum
) -> Tuple[Theory, Dict[str, Arg]]:
    """A theory of the given gadgets with the stratum's rule, argument and
    uncertain-rule counts; the seed picks bridges, superiority, which rules
    are uncertain and their probabilities."""
    found = _bridged(rng, kinds, stratum)
    if found is None:
        raise ValueError(f"no bridging of {kinds} fits {stratum}")
    theory, args = found
    if len(args) > MAX_ENUM_ARGUMENTS:
        raise ValueError(f"{len(args)} arguments exceed the enumeration cap")
    for r in theory.rules:
        partners = [p.id for p in theory.rules if "-" + p.head == r.head]
        if partners and rng.random() < 0.3:
            theory.superiority.append((rng.choice(partners), r.id))
    for rid in rng.sample([r.id for r in theory.rules], stratum.uncertain):
        theory.probs[rid] = rng.choice(PROBS)
    return theory, args


# --- marginal-preferred ------------------------------------------------------
#
# Why: preferred labellings enumerate 2^n candidate IN-sets per subgraph, and
# the statement marginals scan the labelling frame once per statement and
# label, so semantics and marginals carry the load.  Many rule subsets yield
# the same subgraph, which is what subgraph memoisation could save.  8-11
# rules, 4-7 of them uncertain, at most 16 arguments.

PREFERRED_STRATA = (
    Stratum(rules=8, args=10, uncertain=4),
    Stratum(rules=9, args=11, uncertain=5),
    Stratum(rules=10, args=12, uncertain=6),
    Stratum(rules=11, args=12, uncertain=7),
    Stratum(rules=11, args=13, uncertain=7),
)


def preferred_theory(seed: int, index: int) -> Theory:
    s = index % len(PREFERRED_STRATA)
    kinds = gadget_mix("marginal-preferred", s, PREFERRED_STRATA[s])
    rng = random.Random(f"marginal-preferred:{seed}:{index}")
    return gadget_theory(rng, kinds, PREFERRED_STRATA[s])[0]


# --- check-grounded ----------------------------------------------------------
#
# Why: grounded labellings are one fixpoint each, so semantics is cheap while
# the frames (2^u rule-subset rebuilds for PTF, the 2^n argument-subset
# product for PAG) and the property scans over argument marginals carry the
# load.  Queries alternate between the independent PTF frame and a PAG file
# written from the full graph with about 30% of its arguments certain.
# 8-12 rules, 5-8 uncertain, at most 13 arguments.

GROUNDED_STRATA = (
    Stratum(rules=8, args=9, uncertain=5),
    Stratum(rules=9, args=10, uncertain=5),
    Stratum(rules=11, args=12, uncertain=7),
    Stratum(rules=12, args=12, uncertain=8),
    Stratum(rules=12, args=13, uncertain=8),
)


def grounded_theory(seed: int, index: int) -> Tuple[Theory, str]:
    """Theory plus the PAG file text over its full graph."""
    s = index % len(GROUNDED_STRATA)
    kinds = gadget_mix("check-grounded", s, GROUNDED_STRATA[s])
    rng = random.Random(f"check-grounded:{seed}:{index}")
    theory, args = gadget_theory(rng, kinds, GROUNDED_STRATA[s])
    ids = sorted(args)
    certain = set(rng.sample(ids, round(0.3 * len(ids))))
    lines = [f"{a} : {_rat(Fraction(1) if a in certain else rng.choice(PROBS))}." for a in ids]
    return theory, "\n".join(lines) + "\n"
