"""The benchmark's independent reference must keep agreeing with catent.

``bench/selfcheck.py`` imports catent from ``src/`` and compares the
reference with it on both bundled fixtures and on a known triangle
counterexample (about 0.2 s).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selfcheck.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 3
