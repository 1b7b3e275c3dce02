"""Show that the traced counts repeat exactly for a given seed.

    python3 bench/determinism.py [--seed 1] [workload ...]

Makes two traced runs of each workload with the same seed and compares the
per-layer metrics that count work (``*_calls``, ``lll_dim``, the ratios and
spans per operation).  Times may differ between the runs; counts may not.
Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("_calls", "lll_dim", "_ratio", "hits_per_query", "spans_per_op")


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(COUNTS) and k != "trace.overhead_ratio"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=["calculus", "solve", "relations", "cli"])
    args = ap.parse_args()
    differ = 0
    for workload in args.workloads:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        for key in sorted(first):
            same = first[key] == second[key]
            differ += not same
            print(f"{workload:10s} {key:32s} {first[key]!r:>22} {second[key]!r:>22}"
                  + ("" if same else "  <-- DIFFERS"))
    print("counts", "identical" if not differ else f"differ in {differ} metrics")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
