"""Smoke test: every ``examples/*.py`` walkthrough runs to completion.

Each script runs in a fresh interpreter with ``src`` on
``PYTHONPATH``, the way the examples README tells readers to run
them, so an API removal that breaks an example fails here.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

# Scripts that take over ~5 s on a laptop-class CPU.
SLOW = {"figure1_reproduction.py"}


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(
            path,
            id=path.name,
            marks=[pytest.mark.slow] if path.name in SLOW else [],
        )
        for path in EXAMPLES
    ],
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
