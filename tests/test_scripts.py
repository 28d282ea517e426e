"""The scripts under scripts/ run against the package: a public name a script imports must still exist."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name> run as a subprocess with PYTHONPATH=src; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("k,triple", [(3, "(1, 1, 1)"), (13, "(11, 6, 6)")])
def test_show_construction_prints_the_count_triple(k, triple):
    assert f"every off-diagonal count triple: {triple}\n" in run_script("show_construction.py", "--k", str(k))


def test_survey_reads_every_admissible_order_exact():
    lines = run_script("survey_orders.py", "--k-max", "13", "--skip-open").splitlines()
    rows = [line.split() for line in lines[2:-1]]  # between the header rule and the total
    assert [int(row[0]) for row in rows] == [3, 5, 7, 9, 13]
    assert all(row[2:4] == ["admissible", "exact"] for row in rows)
