import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arglab import (
    PLF,
    ArgLabel,
    DistributionError,
    Labelling,
    LabellingSpec,
    LabelSet,
    Semantics,
    build_graph,
)
from arglab.cli import _build_plf, build_parser, main

from conftest import A_B, A_B1, A_B2, A_C, A_D, CHAIN, MUTUAL, RUNNING_EXAMPLE


@pytest.fixture
def theory_file(tmp_path):
    path = tmp_path / "running.dl"
    path.write_text(RUNNING_EXAMPLE)
    return str(path)


@pytest.fixture
def mutual_file(tmp_path):
    path = tmp_path / "mutual.dl"
    path.write_text(MUTUAL)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_args_command(theory_file, capsys):
    code, out = run(capsys, "args", theory_file)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert len(report["input_digest"]) == 64
    ids = [a["id"] for a in report["arguments"]]
    assert sorted(ids) == ids
    assert A_B in ids and len(ids) == 5
    by_id = {a["id"]: a for a in report["arguments"]}
    assert by_id[A_B]["direct_subs"] == [A_B1, "rb2()"]
    assert by_id[A_C]["conclusion"] == "c"


def test_graph_command_json_and_dot(theory_file, capsys):
    code, out = run(capsys, "graph", theory_file)
    assert code == 0
    report = json.loads(out)
    assert [A_B, A_C] in report["attacks"]
    assert len(report["sub_edges"]) == 2

    code, out = run(capsys, "graph", theory_file, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert f'"{A_D}" -> "{A_C}";' in out


def test_label_command(theory_file, capsys):
    code, out = run(capsys, "label", theory_file, "--semantics", "grounded")
    assert code == 0
    report = json.loads(out)
    assert report["labellings"] == [
        {A_B: "IN", A_B1: "IN", "rb2()": "IN", A_C: "OUT", A_D: "IN"}
    ]

    code, out = run(
        capsys, "label", theory_file, "--semantics", "grounded", "--labels", "inoutunoff"
    )
    report = json.loads(out)
    # one grounded labelling per subargument-complete subgraph: B needs both
    # premises (5 shapes), C and D are free (2 x 2)
    assert len(report["labellings"]) == 20


def test_marginal_independent_grounded(theory_file, capsys):
    code, out = run(
        capsys, "marginal", theory_file, "--semantics", "grounded", "--target", "stmt:-b"
    )
    assert code == 0
    report = json.loads(out)
    labels = report["statements"][0]["labels"]
    assert labels["in"] == {"num": 1, "den": 10, "approx": "0.100000"}
    assert labels["off"] == {"num": 9, "den": 10, "approx": "0.900000"}


def test_deep_theory_exits_with_cap_in_every_subcommand(tmp_path, capsys):
    """A 600-rule chain has 600 arguments but nests them past the recursion limit."""
    lines = ["r0 : => a0."] + [f"r{i} : a{i - 1} => a{i}." for i in range(1, 600)]
    path = tmp_path / "chain.dl"
    path.write_text("\n".join(lines) + "\n")
    for command in ("args", "graph", "label", "marginal", "check"):
        assert main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: arguments nest more than ")
        assert err.endswith("rule applications deep, beyond the recursion limit\n")


def test_marginal_preferred_with_weights(theory_file, tmp_path, capsys):
    wfile = tmp_path / "weights.dl"
    wfile.write_text("{rc()=IN} : 2/3.\n{rd()=IN} : 1/3.\n")
    code, out = run(
        capsys,
        "marginal",
        theory_file,
        "--semantics",
        "preferred",
        "--weights",
        str(wfile),
        "--target",
        "stmt:c",
    )
    assert code == 0
    labels = json.loads(out)["statements"][0]["labels"]
    assert labels["in"] == {"num": 3, "den": 5, "approx": "0.600000"}


def test_marginal_plf_frame(mutual_file, tmp_path, capsys):
    plf_file = tmp_path / "frame.dl"
    plf_file.write_text(
        "{rb()=IN, rc()=OUT} : 2/5.\n"
        "{rb()=OUT, rc()=IN} : 2/5.\n"
        "{rb()=IN, rc()=OFF} : 1/5.\n"
    )
    code, out = run(
        capsys,
        "marginal",
        mutual_file,
        "--frame",
        f"plf:{plf_file}",
        "--semantics",
        "preferred",
        "--target",
        "arg:rb()",
    )
    assert code == 0
    entry = json.loads(out)["arguments"][0]
    assert entry["labels"]["IN"] == {"num": 3, "den": 5, "approx": "0.600000"}
    assert entry["justification"] == "CRJ"


def test_marginal_pgf_and_pag_frames(mutual_file, tmp_path, capsys):
    pgf_file = tmp_path / "pgf.dl"
    pgf_file.write_text("{rb(), rc()} : 4/5.\n{rb()} : 1/5.\n")
    code, out = run(
        capsys,
        "marginal",
        mutual_file,
        "--frame",
        f"pgf:{pgf_file}",
        "--semantics",
        "preferred",
        "--target",
        "arg:rc()",
    )
    assert code == 0
    labels = json.loads(out)["arguments"][0]["labels"]
    assert labels["OFF"] == {"num": 1, "den": 5, "approx": "0.200000"}

    pag_file = tmp_path / "pag.dl"
    pag_file.write_text("rb() : 1.\nrc() : 1.\n")
    code, out = run(
        capsys,
        "marginal",
        mutual_file,
        "--frame",
        f"pag:{pag_file}",
        "--semantics",
        "grounded",
        "--target",
        "arg:rb()",
    )
    assert code == 0
    labels = json.loads(out)["arguments"][0]["labels"]
    assert labels["UN"]["num"] == 1


def test_marginal_pgf_file_with_nested_ids(theory_file, tmp_path, capsys):
    pgf_file = tmp_path / "pgf.dl"
    pgf_file.write_text(f"{{{A_B1}, {A_B2}, {A_B}}} : 1.\n")
    code, out = run(
        capsys, "marginal", theory_file, "--frame", f"pgf:{pgf_file}", "--target", f"arg:{A_B}"
    )
    assert code == 0
    labels = json.loads(out)["arguments"][0]["labels"]
    assert labels["IN"]["num"] == 1 and labels["IN"]["den"] == 1


def test_pgf_zero_lines_are_dropped(tmp_path, capsys):
    theory = tmp_path / "chain.dl"
    theory.write_text(CHAIN)
    pgf_file = tmp_path / "pgf.dl"
    lines = "{r1(), r3(r1())} : 1/2.\n{r2()} : 1/2.\n"
    argv = ["marginal", str(theory), "--frame", f"pgf:{pgf_file}"]
    # {r4(r2())} lacks its subargument r2(), which only matters with mass on it
    pgf_file.write_text(lines + "{r4(r2())} : 0.\n")
    code, with_zero = run(capsys, *argv)
    assert code == 0
    pgf_file.write_text(lines)
    assert run(capsys, *argv) == (0, with_zero)


# ra outranks rc: under last-link only ra attacks, with no preferences the
# two facts attack each other and grounded semantics leaves ra undecided.
POLICY_THEORY = "ra : => b.\nrc : => -b.\nra > rc.\np(ra) = 1/2.\n"


@pytest.mark.parametrize("policy,label", [("last_link", "IN"), ("none", "UN")])
def test_policy_reaches_rule_subset_frames(tmp_path, capsys, policy, label):
    theory = tmp_path / "policy.dl"
    theory.write_text(POLICY_THEORY)
    ptf_file = tmp_path / "ptf.dl"
    ptf_file.write_text("{ra, rc} : 1/2.\n{rc} : 1/2.\n")
    for frame in ("independent", f"ptf:{ptf_file}"):
        code, out = run(
            capsys, "marginal", str(theory), "--policy", policy, "--frame", frame,
            "--target", "arg:ra()",
        )
        assert code == 0
        labels = json.loads(out)["arguments"][0]["labels"]
        assert labels[label] == {"num": 1, "den": 2, "approx": "0.500000"}
        assert labels["OFF"] == {"num": 1, "den": 2, "approx": "0.500000"}


def test_check_flags_incoherent_pef(mutual_file, tmp_path, capsys):
    pef_file = tmp_path / "pef.dl"
    pef_file.write_text("{rb(), rc()} : 1.\n")
    code, out = run(capsys, "check", mutual_file, "--frame", f"pef:{pef_file}")
    assert code == 4
    report = json.loads(out)
    assert report["ok"] is False
    names = {p["name"]: p for p in report["properties"]}
    assert names["coherence"]["holds"] is False


def test_check_clean_pipeline(theory_file, capsys):
    code, out = run(capsys, "check", theory_file, "--semantics", "grounded")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["justification"][A_C] == "NOJ"
    assert report["justification"][A_D] == "CRJ"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dl"
    bad.write_text("this is not a theory\n")
    code = main(["args", str(bad)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_cap_exit_code(theory_file, capsys):
    code = main(["args", theory_file, "--max-args", "2"])
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["args", "--max-args", "-3"],
    ["graph", "--max-args", "-1"],
    ["label", "--max-args-enum", "-1"],
    ["marginal", "--max-args-enum", "-2"],
    ["check", "--max-args-enum", "x"],
])
def test_bad_cap_is_a_usage_error(theory_file, capsys, argv):
    command, flag, value = argv
    with pytest.raises(SystemExit) as exit_info:
        main([command, theory_file, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid cap '{value}': give an integer of at least 0" in err


@pytest.mark.parametrize("argv", [["args", "--max-args", "0"], ["label", "--max-args-enum", "0"]])
def test_cap_of_zero_is_valid(theory_file, capsys, argv):
    command, flag, value = argv
    assert main([command, theory_file, flag, value]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: ")


@pytest.mark.parametrize("command", ["marginal", "check"])
@pytest.mark.parametrize("frame, message", [
    ("xyz", "bad frame spec 'xyz'"),
    ("pag", "bad frame spec 'pag'"),
    ("xyz:nofile", "unknown frame kind 'xyz'"),
    ("independent:nofile", "unknown frame kind 'independent'"),
])
def test_bad_frame_spec_exit_2(theory_file, capsys, command, frame, message):
    """The frame is refused before any file it names is read."""
    assert main([command, theory_file, "--frame", frame]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_unknown_frame_kind_is_refused_before_the_graph_is_built(theory_file, monkeypatch):
    def build_graph(*args, **kwargs):
        raise AssertionError("graph built for an unknown frame kind")

    monkeypatch.setattr("arglab.cli.build_graph", build_graph)
    args = build_parser().parse_args(["marginal", theory_file, "--frame", f"xyz:{theory_file}"])
    with pytest.raises(DistributionError, match="unknown frame kind 'xyz'"):
        _build_plf(args, None)


# Three rules each blocked by the next: an odd NAF loop, which has no stable
# labelling.
ODD_NAF_LOOP = """\
r1 : ~b => a.
r2 : ~c => b.
r3 : ~a => c.
"""


def test_stable_without_labelling_exit_code(tmp_path, capsys):
    path = tmp_path / "loop.dl"
    path.write_text(ODD_NAF_LOOP)
    code = main(["check", str(path), "--semantics", "stable"])
    assert code == 2
    err = capsys.readouterr().err
    assert "subgraph ['r1()', 'r2()', 'r3()'] has no stable labelling" in err
    # the preferred labelling of the loop leaves all three UN
    code, out = run(capsys, "marginal", str(path), "--semantics", "preferred")
    assert code == 0
    assert json.loads(out)["arguments"][0]["labels"]["UN"]["num"] == 1


def test_independent_frame_rule_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.dl"
    lines = [f"r{i} : => a{i}.\np(r{i}) = 1/2." for i in range(21)]
    path.write_text("\n".join(lines) + "\n")
    code = main(["marginal", str(path)])
    assert code == 3
    assert "21 uncertain rules exceeds the subtheory enumeration cap of 20" in (
        capsys.readouterr().err
    )


def test_missing_file_exit_code(capsys):
    assert main(["args", "/nonexistent/file.dl"]) == 2


def test_output_is_deterministic(theory_file, capsys):
    argv = ["marginal", theory_file, "--semantics", "preferred", "--target", "all"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("command", ["marginal", "check"])
def test_enumeration_cap_has_one_name(theory_file, capsys, command):
    """--max-args is the construction cap, which marginal and check do not
    take; spelled as a prefix it is not read as --max-args-enum either."""
    for flag in ("--max-args", "--max-args-e"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, theory_file, flag, "5"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert main([command, theory_file, "--max-args-enum", "2"]) == 3
    assert capsys.readouterr().err == "cap exceeded: 3 arguments exceeds the enumeration cap of 2\n"


def _labelled_frame(tmp_path, kind):
    frame = tmp_path / f"frame.{kind}"
    frame.write_text({"plf": "{rb1()=IN, rb2()=IN, rb(rb1(),rb2())=IN, rc()=OUT, rd()=IN} : 1.\n",
                      "pef": "{rd()} : 1.\n"}[kind])
    return f"{kind}:{frame}"


def _assert_ignored_flag_exits_2(capsys, tmp_path, command, theory_file, kind, flag):
    weights = tmp_path / "weights.dl"
    weights.write_text("{rc()=IN} : 1.\n")
    argv = [command, theory_file, "--frame", _labelled_frame(tmp_path, kind)]
    assert run(capsys, *argv)[0] == 0
    extra = {
        "--weights": ["--weights", str(weights)],
        "--legal-only": ["--legal-only"],
        "--max-args-enum": ["--max-args-enum", "16"],
        "--semantics": ["--semantics", "grounded"],
    }[flag]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == (
        f"validation error: {flag} does not apply to a {kind}: frame, which no semantics labels\n"
    )


@pytest.mark.parametrize("kind", ["plf", "pef"])
@pytest.mark.parametrize("flag", ["--weights", "--legal-only"])
def test_flags_a_labelled_frame_ignores_exit_2(theory_file, tmp_path, capsys, kind, flag):
    _assert_ignored_flag_exits_2(capsys, tmp_path, "marginal", theory_file, kind, flag)


@pytest.mark.parametrize("command", ["marginal", "check"])
@pytest.mark.parametrize("kind, flag", [
    ("plf", "--max-args-enum"), ("pef", "--max-args-enum"), ("pef", "--semantics"),
])
def test_options_a_labelled_frame_ignores_exit_2(theory_file, tmp_path, capsys, command, kind, flag):
    """Given at all, even with its default value, an option the frame ignores is an error."""
    _assert_ignored_flag_exits_2(capsys, tmp_path, command, theory_file, kind, flag)


@pytest.mark.parametrize("command", ["marginal", "check"])
def test_report_semantics_is_the_frames(theory_file, tmp_path, capsys, command):
    """A plf: frame carries the --semantics it was checked under, and none
    without it; a pef: frame carries none."""
    plf = [command, theory_file, "--frame", _labelled_frame(tmp_path, "plf")]
    code, out = run(capsys, *plf, "--semantics", "preferred")
    assert code == 0 and json.loads(out)["semantics"] == "preferred"
    code, out = run(capsys, *plf)
    assert code == 0 and json.loads(out)["semantics"] is None
    code, out = run(capsys, command, theory_file, "--frame", _labelled_frame(tmp_path, "pef"))
    assert code == 0 and json.loads(out)["semantics"] is None
    code, out = run(capsys, command, theory_file)
    assert code == 0 and json.loads(out)["semantics"] == "grounded"


@pytest.mark.parametrize("command", ["marginal", "check"])
def test_plf_frame_is_checked_under_semantics(theory_file, tmp_path, capsys, command):
    """Under --semantics every labelling must be one of its non-OFF arguments'
    labellings: the first that is not exits 2, named; --max-args-enum caps the check."""
    frame = tmp_path / "frame.plf"
    frame.write_text(
        "{rb1()=IN, rb2()=IN, rb(rb1(),rb2())=IN, rc()=OUT, rd()=IN} : 1/2.\n"
        "{rb1()=IN, rb2()=OFF, rb(rb1(),rb2())=OFF, rc()=IN, rd()=OUT} : 1/2.\n"
    )
    argv = [command, theory_file, "--frame", f"plf:{frame}"]
    assert main(argv + ["--semantics", "grounded"]) == 2
    assert capsys.readouterr().err == (
        "validation error: labelling {rb(rb1(),rb2())=OFF, rb1()=IN, rb2()=OFF, rc()=IN, "
        "rd()=OUT} is not a grounded labelling of its non-OFF arguments\n"
    )
    code, out = run(capsys, *argv, "--semantics", "preferred")
    assert code == 0 and json.loads(out)["semantics"] == "preferred"
    assert main(argv + ["--semantics", "preferred", "--max-args-enum", "2"]) == 3
    assert capsys.readouterr().err == "cap exceeded: 5 arguments exceeds the enumeration cap of 2\n"
    # an {ON, OFF} frame has no semantics labelling to be
    frame.write_text("{rb1()=ON, rb2()=ON, rb(rb1(),rb2())=ON, rc()=ON, rd()=ON} : 1.\n")
    assert run(capsys, *argv)[0] == 0
    assert main(argv + ["--semantics", "complete"]) == 2
    assert capsys.readouterr().err == "error: {ON,OFF} specs take a criterion, not a semantics\n"


def test_weights_naming_an_unknown_argument_exit_2(theory_file, tmp_path, capsys):
    wfile = tmp_path / "weights.dl"
    wfile.write_text("{zz()=IN} : 1.\n")
    code = main(["marginal", theory_file, "--semantics", "preferred", "--weights", str(wfile)])
    assert code == 2
    assert capsys.readouterr().err == "validation error: weights name unknown arguments ['zz()']\n"


def test_legal_only_needs_combined_labels(theory_file, capsys):
    """--legal-only picks the subgraphs of {IN,OUT,UN,OFF} labellings; inoutun has none."""
    argv = ["label", theory_file, "--semantics", "complete", "--legal-only"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: legal_only only applies to {IN,OUT,UN,OFF} specs\n"
    )
    assert run(capsys, *argv, "--labels", "inoutunoff")[0] == 0


@pytest.mark.parametrize("label", ["ON", "OFF"])
def test_weights_entry_that_can_never_match_exit_2(theory_file, tmp_path, capsys, label):
    """Weights choose among a subgraph's {IN, OUT, UN} labellings: an entry
    labelling an argument ON or OFF would never match."""
    wfile = tmp_path / "weights.dl"
    wfile.write_text(f"{{rc()={label}}} : 1/2.\n{{rd()=IN}} : 1/2.\n")
    code = main(["marginal", theory_file, "--semantics", "preferred", "--weights", str(wfile)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"validation error: weight entry {{rc()={label}}} labels rc() {label}, which never matches"
    )


def _plf_before(graph, used, entries):
    """The plf: frame as the loader built it when it picked the label set by
    cases; kept as the oracle."""
    if used <= {ArgLabel.ON, ArgLabel.OFF}:
        label_set = LabelSet.ON_OFF
    elif ArgLabel.OFF in used:
        label_set = LabelSet.IN_OUT_UN_OFF
    else:
        label_set = LabelSet.IN_OUT_UN
    semantics = None if label_set is LabelSet.ON_OFF else Semantics.GROUNDED
    spec = LabellingSpec(label_set, semantics=semantics)
    return PLF(graph, spec, [(Labelling.from_mapping(label_set, a), p) for a, p in entries])


def _label_set_or_error(build, *args):
    try:
        return build(*args).spec.label_set
    except (ValueError, DistributionError) as exc:
        return repr(exc)


@pytest.mark.parametrize("size", range(len(ArgLabel) + 1))
def test_plf_label_set_matches_the_former_cases(mutual_file, mutual_theory, tmp_path, size):
    """For every combination of labels used, the plf: loader picks the label
    set, or fails with the error, that the former case analysis gave."""
    args = build_parser().parse_args(["marginal", mutual_file, "--frame", f"plf:{tmp_path / 'f'}"])
    graph = build_graph(mutual_theory)
    for used in itertools.combinations(ArgLabel, size):
        entries = [({"rb()": l, "rc()": l}, Fraction(1, len(used))) for l in used]
        (tmp_path / "f").write_text(
            "".join(f"{{rb()={l.value}, rc()={l.value}}} : 1/{len(used)}.\n" for l in used)
        )
        assert _label_set_or_error(_build_plf, args, mutual_theory) == (
            _label_set_or_error(_plf_before, graph, set(used), entries)
        ), used


_ZERO_DENOMINATOR = {
    "ptf": "{rb1} : 1/0.\n",
    "pgf": "{rd()} : 1/0.\n",
    "plf": "{rb1()=IN, rb2()=IN, rb(rb1(),rb2())=IN, rc()=OUT, rd()=IN} : 1/0.\n",
    "pef": "{rd()} : 1/0.\n",
    "pag": "rb1() : 1/0.\n",
}


@pytest.mark.parametrize("kind", sorted(_ZERO_DENOMINATOR))
def test_zero_denominator_in_a_frame_file_exit_2(theory_file, tmp_path, capsys, kind):
    frame = tmp_path / f"frame.{kind}"
    frame.write_text(_ZERO_DENOMINATOR[kind])
    assert main(["marginal", theory_file, "--frame", f"{kind}:{frame}"]) == 2
    assert capsys.readouterr().err == "parse error: line 1, col 0: zero denominator in '1/0'\n"


def test_zero_denominator_in_theory_or_weights_exit_2(theory_file, tmp_path, capsys):
    theory = tmp_path / "zero.dl"
    theory.write_text("ra : => a.\np(ra) = 1/0.\n")
    assert main(["args", str(theory)]) == 2
    assert capsys.readouterr().err == "parse error: line 2, col 0: zero denominator in '1/0'\n"
    weights = tmp_path / "weights"
    weights.write_text("{rc()=IN} : 1/0.\n")
    assert main(["marginal", theory_file, "--semantics", "preferred", "--weights", str(weights)]) == 2
    assert capsys.readouterr().err == "parse error: line 1, col 0: zero denominator in '1/0'\n"


@pytest.mark.parametrize("option", ["--frame", "--weights"])
def test_assignment_naming_an_id_twice_exit_2(theory_file, tmp_path, capsys, option):
    """The last label used to win silently; now the assignment is rejected."""
    path = tmp_path / "assignment"
    path.write_text("{rb1()=IN, rb2()=IN, rb(rb1(),rb2())=IN, rc()=OUT, rc()=IN, rd()=IN} : 1.\n")
    value = f"plf:{path}" if option == "--frame" else str(path)
    assert main(["marginal", theory_file, option, value]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 1, col 1: duplicate id 'rc()' in assignment\n"
    )


def test_main_back_to_back_leaks_no_option(theory_file, capsys):
    """main() keeps one parser; options given to one call do not reach the next."""
    code, out = run(capsys, "marginal", theory_file, "--semantics", "preferred", "--scheme", "bivalent")
    assert code == 0
    first = json.loads(out)
    assert (first["semantics"], first["scheme"]) == ("preferred", "bivalent")
    code, out = run(capsys, "marginal", theory_file)
    assert code == 0
    second = json.loads(out)
    assert (second["semantics"], second["scheme"]) == ("grounded", "worstcase")
    code, out = run(capsys, "label", theory_file, "--max-args", "5")
    assert code == 0
    assert main(["label", theory_file, "--max-args-enum", "2"]) == 3
    capsys.readouterr()
    code, out = run(capsys, "label", theory_file)
    assert code == 0 and json.loads(out)["semantics"] == "grounded"


def test_parser_is_built_at_first_use_and_kept():
    """Importing the CLI builds nothing; main() then reuses one parser."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import arglab.cli as cli\n"
        "print(cli._parser.cache_info().currsize)\n"
        "print(cli._parser() is cli._parser())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (0, "0\nTrue\n"), done.stderr
