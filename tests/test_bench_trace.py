"""A traced benchmark run of the relation probe: the tracer wraps
``find_relation`` and ``lll_reduce`` by name, so renaming either, or a probe
that stops reaching LLL altogether, fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_relations_run_reports_the_lll_layer():
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "relations",
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["metrics"]["relations.lll_reduce_ms"]["unit"] == "ms"
    assert doc["metrics"]["relations.lll_reduce_ms"]["value"] > 0
