"""Show that the benchmark's checks catch a wrong answer.

    python3 bench/selftest.py

Runs the first round of every workload (CLI commands through
``wittcalc.cli.run`` in-process).  Each answer must pass its check; then one
coefficient of the answer is corrupted and the check must fail.  Exits 1 if
a genuine answer fails or a corrupted one passes.
"""

import dataclasses
import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from checks import CheckFailed  # noqa: E402
from workloads import ChildRun, Calculus, Cli, Relations, Solve  # noqa: E402


def corrupt_element(x):
    """The same element with its constant coefficient changed."""
    coeffs = ((x.coeffs[0] + 1) % x.params.p ** x.prec,) + tuple(x.coeffs[1:])
    return type(x)(x.params, coeffs, x.prec)


def corrupt_residue(c):
    coeffs = ((c.coeffs[0] + 1) % c.params.p,) + tuple(c.coeffs[1:])
    return type(c)(c.params, coeffs)


def corrupt(answer):
    """Change one coefficient of an answer, whatever its kind."""
    name = type(answer).__name__
    if name == "ZqElement":
        return corrupt_element(answer)
    if name == "DeltaJet":
        return type(answer)(answer.entries[:-1] + (corrupt_element(answer.entries[-1]),))
    if name == "TeichmullerDigits":
        d = answer.digits
        return type(answer)(answer.params, d[:-1] + (corrupt_residue(d[-1]),))
    if name == "SolutionFamily":
        consts = answer.constants
        return dataclasses.replace(answer, constants=(corrupt_element(consts[0]),) + consts[1:])
    if name == "Obstruction":
        return dataclasses.replace(answer, witness=corrupt_residue(answer.witness))
    if name == "ZqMatrix":
        rows = [list(r) for r in answer.entries]
        rows[-1][-1] = corrupt_element(rows[-1][-1])
        return type(answer)(rows)
    if name == "RelationCertificate":
        return dataclasses.replace(answer, coeffs=(-answer.coeffs[0],) + answer.coeffs[1:])
    if isinstance(answer, ChildRun):
        doc = json.loads(answer.out)
        if not _corrupt_doc(doc):
            raise ValueError("nothing to corrupt in " + answer.out[:80])
        return ChildRun(answer.cpu, answer.maxrss_kb, answer.code, json.dumps(doc), answer.err)
    raise TypeError(f"no corruption for {name}")


def _corrupt_doc(doc):
    """Corrupt the first coefficient, witness or verdict found in a JSON document."""
    if isinstance(doc, dict):
        if "witness" in doc:
            doc["witness"][0] += 1
            return True
        if isinstance(doc.get("coeffs"), list):
            c = doc["coeffs"][0]
            doc["coeffs"][0] = str(int(c) + 1) if isinstance(c, str) else -c
            return True
        if doc.get("ok") is True and "certificate" in doc and "constants" not in doc:
            doc["ok"] = False
            return True
        return any(_corrupt_doc(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_corrupt_doc(v) for v in doc)
    return False


def main():
    bad = 0
    for workload in (Calculus(), Solve(), Relations(), Cli()):
        if isinstance(workload, Cli):
            workload.inproc = True
        _, ctx = workload.setup()
        gen = workload.round(ctx, random.Random(f"{workload.name}:selftest"))
        seen = {}
        result = None
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                break
            if op.prepare:
                op.prepare()
            result = op.call()
            op.check(result)
            if result is None:
                continue  # "no relation found" has no coefficient to corrupt
            try:
                op.check(corrupt(result))
                caught = False
            except CheckFailed:
                caught = True
            seen.setdefault(op.kind, []).append(caught)
        for kind, outcomes in seen.items():
            ok = all(outcomes)
            bad += not ok
            print(f"{workload.name:10s} {kind:28s} {sum(outcomes)}/{len(outcomes)} corrupted answers caught"
                  + ("" if ok else "  <-- MISSED"))
    print("self-test", "passed" if not bad else f"FAILED ({bad} kinds)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
