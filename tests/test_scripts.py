"""Smoke tests: the experiment scripts run against the current API, and README lists each one."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pwseg

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(pwseg.__file__).resolve().parents[1]), OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv], env=env, capture_output=True, text=True, timeout=300
    )


def test_reproduce_tables():
    done = run_script("reproduce_tables.py")
    assert done.returncode == 0, done.stderr
    assert "Window schedules" in done.stdout and "Traceback" not in done.stderr
    lines = [line.strip() for line in done.stdout.splitlines()]
    plan_rows = ("n=1: (1, 2, 2, 4)", "n=2: (2, 4, 4, 8)", "n=4: (4, 8, 8, 16)", "natural2d, n=1: (1, 2, 4, 4)")
    assert all(row in lines for row in plan_rows), done.stdout
    schedule_rows = (
        "stage 1: extent (24, 24, 24), big windows [(3, 3, 3), (6, 6, 6), (12, 12, 12), (24, 24, 24)], L=27",
        "stage 2: extent (12, 12, 12), big windows [(6, 6, 6), (12, 12, 12)], L=216",
        "stage 3: extent (6, 6, 6), big windows [(3, 3, 3), (6, 6, 6)], L=27",
        "stage 4: extent (3, 3, 3), big windows [(3, 3, 3)], L=27",
    )
    assert all(row in lines for row in schedule_rows), done.stdout


def test_readme_names_every_script():
    """README's "Experiment scripts" block names each ``scripts/*.py``, and each script it names exists."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    block = re.search(r"## Experiment scripts\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    assert set(re.findall(r"scripts/(\S+\.py)", block)) == {p.name for p in SCRIPTS.glob("*.py")}
