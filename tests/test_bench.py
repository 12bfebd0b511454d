"""The benchmark's independent reference must keep agreeing with catent.

``bench/selfcheck.py`` imports catent from ``src/`` and compares the
reference with it on both bundled fixtures and on a known triangle
counterexample (about 0.2 s).  A short run of each workload of
``bench/run.py`` guards the API and CLI output the benchmark reads (about
6 s in all); its files go under the ignored ``.bench_run/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 3


@pytest.mark.parametrize("workload, seconds", [
    ("table-tall", "0.1"), ("table-wide-alphabet", "0.1"), ("population", "0.1"),
    # a round runs all eight subcommands; the hard stop at 4 x --seconds must not cut it
    ("cli-oneshot", "1"),
])
def test_benchmark_workload_runs_and_checks(workload, seconds):
    """A short run of each workload: the API and CLI output the benchmark reads
    still exist, and every op agrees with the reference."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    if workload == "cli-oneshot":
        assert result["attempted"] >= 8
