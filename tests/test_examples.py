"""Smoke tests: every example script runs to completion.

Each example's ``main()`` is imported and executed in-process (stdout
captured by pytest), so API drift in examples breaks the suite immediately.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    assert {
        "quickstart",
        "data_auditing",
        "provenance_mining",
        "straggler_analysis",
        "fault_tolerance",
    } <= set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    if name == "straggler_analysis":
        module.SCALE = 8  # RMAT scale 10 by default: same code paths, 1/4 the graph
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"
