"""The scripts under scripts/ run against the package: a public name a script imports must still exist."""

from __future__ import annotations

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from isoclinic import cli, seidel

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
    # the counts row of the pipeline report the script prints after the exponent pattern, which writes
    # the triple without spaces
    row = f"{'conference-exact-counts':<24} PASS (r,s,t) = {triple.replace(' ', '')} at every off-diagonal\n"
    assert row in run_script("show_construction.py", "--k", str(k))


def test_show_construction_refuses_an_inadmissible_k_as_the_pipeline_does():
    proc = run("show_construction.py", "--k", "4")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "k=4 (q=7) is not admissible: 2k != 2 (mod 4)\n"


def test_survey_reads_every_admissible_order_exact():
    lines = run_script("survey_orders.py", "--k-max", "13", "--skip-open").splitlines()
    rows = [line.split() for line in lines[2:-1]]  # between the header rule and the total
    assert [int(row[0]) for row in rows] == [3, 5, 7, 9, 13]
    assert all(row[2:4] == ["admissible", "exact"] for row in rows)


# the run_pipeline rows whose values the survey prints, in its column order
SURVEYED = ("conference-residual", "seidel-square", "plane-extraction", "isoclinic", "hadamard")


def test_survey_prints_the_values_run_pipeline_judged():
    lines = run_script("survey_orders.py", "--k-max", "13", "--skip-open").splitlines()
    for row in (line.split() for line in lines[2:-1]):
        checks = {check.name: check for check in cli.run_pipeline(int(row[0]), 1e-9)}
        assert row[4:] == [f"{checks[name].value:.2e}" for name in SURVEYED]


def test_survey_prints_a_dash_for_a_stage_the_run_did_not_reach(monkeypatch, capsys):
    survey = runpy.run_path(str(ROOT / "scripts" / "survey_orders.py"))
    monkeypatch.setattr(cli, "spectrum", lambda S: [(2.0, S.q + 1), (-2.0, S.q - 1)])
    monkeypatch.setattr(sys, "argv", ["survey_orders.py", "--k-max", "3"])
    assert survey["main"]() == 0
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row[:4] == ["3", "5", "admissible", "exact"]
    assert row[6:] == ["-", "-", "-"]  # the run stops at the spectrum, before the planes and the doubling


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


# touches 200 MB, then reads one small child through bench_stages.child_rss_mb; prints the spawner's own
# ru_maxrss and the child's reading
BIG_SPAWNER = """
import resource, runpy, sys
import numpy as np
np.ones(200 * 2**20, dtype=np.uint8)
rss_mb, ok = runpy.run_path(sys.argv[1])["child_rss_mb"](3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, rss_mb, ok)
"""


def test_bench_child_reading_is_not_the_spawners_peak():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", BIG_SPAWNER, str(ROOT / "scripts" / "bench_stages.py")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    spawner, child, ok = proc.stdout.split()
    assert float(spawner) >= 200 and float(child) < 100 and ok == "True"


def test_bench_reads_the_field_and_every_stage_and_patches_nothing():
    bench = runpy.run_path(str(ROOT / "scripts" / "bench_stages.py"))
    reading, passed = bench["timed"](9, 1)
    peaks, traced = bench["traced_peaks"](9)
    assert passed and traced
    assert tuple(reading["seconds"]) == tuple(peaks) == ("field", *cli.STAGES)
    assert all(s >= 0 for s in reading["seconds"].values()) and all(mb >= 0 for mb in peaks.values())
    assert sum(reading["seconds"].values()) <= reading["total_s"]
    assert cli.build_seidel is seidel.build_seidel and cli.spectrum is seidel.spectrum


def test_bench_stops_at_a_failing_stage(monkeypatch):
    bench = runpy.run_path(str(ROOT / "scripts" / "bench_stages.py"))
    monkeypatch.setattr(cli, "spectrum", lambda S: [(2.0, S.q + 1), (-2.0, S.q - 1)])
    stages = ("field", *cli.STAGES[: cli.STAGES.index("spectrum") + 1])
    reading, passed = bench["timed"](9, 1)
    assert not passed and tuple(reading["seconds"]) == stages
    peaks, traced = bench["traced_peaks"](9)
    assert not traced and tuple(peaks) == stages
