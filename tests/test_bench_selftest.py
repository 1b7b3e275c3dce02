"""The benchmark's self-test passes: every workload's check accepts the
program's answers and refuses each of them corrupted.  The self-test builds
residues and records through the value types' constructors and
``dataclasses.replace``, so a change to those types that breaks it fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
