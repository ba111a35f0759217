"""``perfbench/tracing.py`` still finds every function it traces in the engine,
and puts each one back when it is uninstalled."""

import importlib.util
import sys
from pathlib import Path

import arglab.cli  # noqa: F401  (imports every traced module)

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_restores_it():
    tracing = _tracing()
    frames = sys.modules["arglab.frames"]
    cli = sys.modules["arglab.cli"]
    original = frames.plf_with_semantics
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert frames.plf_with_semantics is not original
        assert cli.plf_with_semantics is frames.plf_with_semantics
    finally:
        tracer.uninstall()
    assert frames.plf_with_semantics is original
    assert cli.plf_with_semantics is original
    for owner, key, _, before in tracer._patches:
        assert getattr(owner, key) is before
