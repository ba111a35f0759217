"""Output checks that do not depend on the engine.

A query fails when its exit code is not 0, when its JSON output breaks one of
the checks below, or when its output digest differs from the reference: the
stored golden digest on the default seed, and otherwise the digest of the
same query's first answer in the run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class Expected:
    """What the generator knows about a query's input, engine-free."""

    command: str
    input_digest: str
    arguments: Tuple[str, ...]
    sub_edges: FrozenSet[Tuple[str, str]]
    statements: Tuple[str, ...]


def digest(report: Dict[str, object]) -> str:
    """sha256 of the report with keys sorted, without its ``input`` path and
    with a ``kind:FILE`` frame reduced to the file's base name."""
    body = {k: v for k, v in report.items() if k != "input"}
    if ":" in str(body.get("frame", "")):
        kind, _, path = body["frame"].partition(":")
        body["frame"] = f"{kind}:{os.path.basename(path)}"
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _check_graph(report: Dict, exp: Expected) -> Optional[str]:
    if report["arguments"] != list(exp.arguments):
        return "argument set differs from the generator's"
    subs = {tuple(e) for e in report["sub_edges"]}
    if subs != exp.sub_edges:
        return "sub_edges differ from the generator's"
    known = set(exp.arguments)
    attacks = {tuple(e) for e in report["attacks"]}
    if any(b not in known or a not in known for b, a in attacks):
        return "attack mentions an unknown argument"
    attackers: Dict[str, List[str]] = {}
    for b, a in attacks:
        attackers.setdefault(a, []).append(b)
    for child, parent in subs:
        for b in attackers.get(child, ()):
            if (b, parent) not in attacks:
                return f"attack ({b}, {child}) does not reach parent {parent}"
    return None


def _label_sum(labels: Dict[str, Dict]) -> Fraction:
    return sum((Fraction(v["num"], v["den"]) for v in labels.values()), Fraction(0))


def _check_marginal(report: Dict, exp: Expected) -> Optional[str]:
    if [a["id"] for a in report["arguments"]] != list(exp.arguments):
        return "argument set differs from the generator's"
    if [s["statement"] for s in report["statements"]] != list(exp.statements):
        return "statement set differs from the generator's"
    for entry in report["arguments"]:
        labels = entry["labels"]
        if any(v["num"] < 0 or v["den"] <= 0 for v in labels.values()):
            return f"bad probability for {entry['id']}"
        if _label_sum(labels) != 1:
            return f"label probabilities of {entry['id']} do not sum to 1"
        p_in = Fraction(labels["IN"]["num"], labels["IN"]["den"])
        p_off = Fraction(labels["OFF"]["num"], labels["OFF"]["den"])
        want = "OFJ" if p_off == 1 else "SKJ" if p_in == 1 else "CRJ" if p_in > 0 else "NOJ"
        if entry["justification"] != want:
            return f"justification of {entry['id']} disagrees with its marginals"
    for entry in report["statements"]:
        if _label_sum(entry["labels"]) != 1:
            return f"label probabilities of {entry['statement']} do not sum to 1"
    return None


def _check_check(report: Dict, exp: Expected) -> Optional[str]:
    if report["ok"] is not True:
        return "check reports ok: false"
    if sorted(report["justification"]) != list(exp.arguments):
        return "justified arguments differ from the generator's"
    for prop in report["properties"]:
        if prop["applicable"] and prop["mandatory"] and prop["holds"] is not True:
            return f"mandatory property {prop['name']} fails"
    return None


_CHECKS = {"graph": _check_graph, "marginal": _check_marginal, "check": _check_check}


def judge(
    exp: Expected, code: int, out: str, reference: Optional[str]
) -> Tuple[Optional[str], Optional[str]]:
    """(failure reason or None, output digest or None) for one answer.

    ``reference`` is the digest the output must match, or None when there is
    none yet.
    """
    if code != 0:
        return f"exit code {code}", None
    try:
        report = json.loads(out)
        if report["command"] != exp.command or report["input_digest"] != exp.input_digest:
            return "report is for another command or input", None
        reason = _CHECKS[exp.command](report, exp)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}", None
    if reason:
        return reason, None
    got = digest(report)
    if reference is not None and got != reference:
        return "output digest differs from the reference", got
    return None, got
