"""Every distribution file the CLI accepts round-trips exactly.

Frames are generated on generated theories under both preference policies,
written one outcome per line in the file syntax of ``arglab.dsl`` and read
back through the CLI's own loaders.  The probabilities read back must equal
the generated ones; frames that the CLI labels by a semantics are compared
after the same library pushforward.  Every generated graph holds a nested
argument id with two subarguments, so ids with inner parentheses and commas
are written and read.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from arglab import (
    PAG,
    PEF,
    PGF,
    PTF,
    ArgLabel,
    LabellingSpec,
    LabelSet,
    OnOffCriterion,
    Semantics,
    SublabellingWeights,
    labellings,
    pag_to_pgf,
    pgf_from_ptf,
    plf_from_pef,
    plf_with_semantics,
)
from arglab.cli import _build_plf, _load_weights, build_parser
from arglab.dsl import format_rational
from strategies import capped_graph, distributions, policies, probabilities, theories

_SEMANTICS = st.sampled_from([Semantics.GROUNDED, Semantics.PREFERRED])


def _id_set(ids):
    return "{" + ", ".join(sorted(ids)) + "}"


def _assignment(mapping):
    return "{" + ", ".join(f"{a}={l.value}" for a, l in sorted(mapping.items())) + "}"


def _write(directory, name, lines):
    """A distribution file with one ``KEY : RATIONAL.`` line per (key, value)."""
    path = Path(directory) / name
    path.write_text("".join(f"{key} : {format_rational(p)}.\n" for key, p in lines))
    return str(path)


def _cli_plf(theory, policy, semantics, frame):
    """The CLI's frame; ``semantics`` None leaves --semantics out, as a pef: frame needs."""
    argv = ["marginal", "theory.dl", "--policy", policy.value, "--frame", frame]
    if semantics is not None:
        argv += ["--semantics", semantics.value]
    return dict(_build_plf(build_parser().parse_args(argv), theory).probs)


def _nested_graph(theory, policy):
    graph = capped_graph(theory, policy)
    assert any("()," in a for a in graph.ids())
    return graph


@given(theories(nested=True), policies, _SEMANTICS, st.data())
@settings(max_examples=50, deadline=None)
def test_ptf_file_round_trips(theory, policy, semantics, data):
    _nested_graph(theory, policy)
    rule_sets = st.frozensets(st.sampled_from(sorted(theory.rules)))
    ptf = PTF(theory, data.draw(distributions(rule_sets)))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "frame.ptf", [(_id_set(s), p) for s, p in ptf.probs.items()])
        read = _cli_plf(theory, policy, semantics, f"ptf:{path}")
    expected = plf_with_semantics(pgf_from_ptf(ptf, policy=policy), semantics)
    assert read == dict(expected.probs)


@given(theories(nested=True), policies, _SEMANTICS, st.data())
@settings(max_examples=50, deadline=None)
def test_pgf_file_round_trips(theory, policy, semantics, data):
    graph = _nested_graph(theory, policy)
    spec = LabellingSpec(LabelSet.ON_OFF, criterion=OnOffCriterion.SUBARG_COMPLETE)
    complete = [l.with_label(ArgLabel.ON) for l in labellings(graph, spec)]
    pgf = PGF(graph, data.draw(distributions(st.sampled_from(complete))))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "frame.pgf", [(_id_set(s), p) for s, p in pgf.probs.items()])
        read = _cli_plf(theory, policy, semantics, f"pgf:{path}")
    assert read == dict(plf_with_semantics(pgf, semantics).probs)


@given(theories(nested=True), policies, _SEMANTICS, st.data())
@settings(max_examples=50, deadline=None)
def test_plf_file_round_trips(theory, policy, semantics, data):
    graph = _nested_graph(theory, policy)
    ids = graph.ids()
    labels = sorted(data.draw(st.sampled_from(list(LabelSet))).labels, key=lambda l: l.rank)
    rows = st.tuples(*[st.sampled_from(labels) for _ in ids])
    dist = data.draw(distributions(rows))
    with tempfile.TemporaryDirectory() as tmp:
        lines = [(_assignment(dict(zip(ids, row))), p) for row, p in dist.items()]
        path = _write(tmp, "frame.plf", lines)
        read = _cli_plf(theory, policy, semantics, f"plf:{path}")
    assert {l.entries: p for l, p in read.items()} == {
        tuple(zip(ids, row)): p for row, p in dist.items()
    }


@given(theories(nested=True), policies, st.data())
@settings(max_examples=50, deadline=None)
def test_pef_file_round_trips(theory, policy, data):
    graph = _nested_graph(theory, policy)
    pef = PEF(graph, data.draw(distributions(st.frozensets(st.sampled_from(graph.ids())))))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "frame.pef", [(_id_set(s), p) for s, p in pef.probs.items()])
        read = _cli_plf(theory, policy, None, f"pef:{path}")
    assert read == dict(plf_from_pef(pef).probs)


@given(theories(nested=True), policies, _SEMANTICS, st.data())
@settings(max_examples=50, deadline=None)
def test_pag_file_round_trips(theory, policy, semantics, data):
    graph = _nested_graph(theory, policy)
    pag = PAG(graph.without_sub_edges(), {a: data.draw(probabilities) for a in graph.ids()})
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "frame.pag", sorted(pag.arg_probs.items()))
        read = _cli_plf(theory, policy, semantics, f"pag:{path}")
    assert read == dict(plf_with_semantics(pag_to_pgf(pag), semantics).probs)


@given(theories(nested=True), policies, st.data())
@settings(max_examples=50, deadline=None)
def test_weights_file_round_trips(theory, policy, data):
    graph = _nested_graph(theory, policy)
    assignments = st.dictionaries(
        st.sampled_from(graph.ids()),
        st.sampled_from([ArgLabel.IN, ArgLabel.OUT, ArgLabel.UN]),
        max_size=3,
    )
    entries = data.draw(st.lists(st.tuples(assignments, probabilities), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "frame.weights", [(_assignment(a), w) for a, w in entries])
        read = _load_weights(path)
    assert read == SublabellingWeights.from_entries(entries)
