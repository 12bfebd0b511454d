"""Smoke tests for the demos and the public export list.

Demos 01-05 run to completion in a subprocess (about 0.2 s each).  Demo 06
(about 3 s) runs too, and its findings are asserted line by line.  Every
demo's imports are checked.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catent

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
QUICK_DEMOS = [demo for demo in DEMOS if demo.name < "06"]


def test_demo_set():
    assert len(DEMOS) == 6
    assert len(QUICK_DEMOS) == 5


def run_demo(demo: Path) -> str:
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    assert run_demo(demo)


def test_random_validation_demo_findings():
    lines = run_demo(ROOT / "demos" / "06_random_validation.py").splitlines()
    start = lines.index("violations per axiom over the whole population:") + 1
    tally = dict(line.split() for line in lines[start:lines.index("", start)])
    assert len(tally) == 23
    assert {name: int(n) for name, n in tally.items() if n != "0"} == {
        "triangle_bound": 76, "triangle_inequality": 76}
    for finding in (
        "datasets violating the triangle inequality: 76/1000 (7.6%)",
        "  first violator: seed 14",
        "  worst violation: 0.3220 at seed 143, columns c0,c1,c4",
    ):
        assert finding in lines


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "catent"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_every_export_resolves():
    assert len(set(catent.__all__)) == len(catent.__all__)
    for name in catent.__all__:
        assert hasattr(catent, name), name
