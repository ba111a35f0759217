import json

import pytest

from arglab.cli import main

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


def test_missing_file_exit_code(capsys):
    assert main(["args", "/nonexistent/file.dl"]) == 2


def test_output_is_deterministic(theory_file, capsys):
    argv = ["marginal", theory_file, "--semantics", "preferred", "--target", "all"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
