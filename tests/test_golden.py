"""Golden command-line cases.

``golden/cases.json`` holds groups of cases, each group with the reason its
input files were chosen.  A case is an argv, whose input file lies in
``golden/``, and the exact exit code, stdout and stderr it must give, serially
and with ``--jobs 2``.  A ``--json`` stdout must also parse as JSON.
The usage block that argparse prints before an error line is not compared:
its wrapping depends on the terminal width and the Python version.

Under pytest every case runs in process through ``lcnf.main``.  Run as a
script, ``python tests/test_golden.py`` runs every case through the ``lcnf``
console script on PATH and exits 1 if any differs.  A new pinned output is a
new case here.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli_streams

GOLDEN = Path(__file__).parent / "golden"
CASES = [case for group in json.loads((GOLDEN / "cases.json").read_text())
         for case in group["cases"]]
JOBS = {"serial": [], "jobs2": ["--jobs", "2"]}


def mismatch(case, code, out, err):
    """The outputs of a run that differ from ``case``'s, as a message; None
    when all agree."""
    err = re.sub(r"\Ausage: .*?\n(?=lcnf )", "", err, flags=re.S)
    got = {"exit": code, "stdout": out, "stderr": err}
    wrong = [f"{k}: expected {case[k]!r}, got {v!r}" for k, v in got.items() if v != case[k]]
    if "--json" in case["argv"]:
        try:
            json.loads(out)
        except ValueError:
            wrong.append("stdout is not JSON")
    return "; ".join(wrong) or None


@pytest.mark.parametrize("jobs", JOBS)
@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_golden_case(case, jobs, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert mismatch(case, *run_cli_streams(*case["argv"], *JOBS[jobs])) is None


def run_console_script():
    """Run every case through the ``lcnf`` console script; the exit status."""
    lcnf = shutil.which("lcnf")
    if lcnf is None:
        print("no lcnf console script on PATH")
        return 1
    failed = 0
    for case in CASES:
        for jobs, extra in JOBS.items():
            run = subprocess.run([lcnf, *case["argv"], *extra], cwd=GOLDEN,
                                 capture_output=True, text=True)
            message = mismatch(case, run.returncode, run.stdout, run.stderr)
            if message is not None:
                failed += 1
                print(f"FAIL {' '.join(case['argv'])} [{jobs}]: {message}")
    print(f"{2 * len(CASES) - failed} of {2 * len(CASES)} console-script runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_console_script())
