"""The scripts under scripts/ run against the package: a public name a script imports must still exist."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(name: str, *args: str) -> subprocess.CompletedProcess:
    """scripts/<name> run as a subprocess with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, cwd=ROOT
    )


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name>; it must exit 0."""
    proc = run(name, *args)
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


def test_rss_guard_passes_the_childs_exit_code_and_fails_past_its_limit():
    within = run("rss_guard.py", "10000", "enumerate", "--k-max", "5")
    assert within.returncode == 0, within.stderr
    assert "ADMISSIBLE" in within.stdout
    assert re.search(r"^enumerate: exit 0, ru_maxrss \d+ MB \(limit 10000 MB\)$", within.stdout, re.M)
    past = run("rss_guard.py", "1", "enumerate", "--k-max", "5")
    assert past.returncode == 1
    assert "enumerate: exit 0, ru_maxrss" in past.stdout
    refused = run("rss_guard.py", "10000", "pipeline", "--k", "4")
    assert refused.returncode == 2
    assert "pipeline: exit 2," in refused.stdout
