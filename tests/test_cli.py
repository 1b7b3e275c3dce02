"""CLI: one fixture per subcommand, determinism, exit codes, round-trips."""

import io
import json

from wittcalc import conway, solvers
from wittcalc.cli import run
from wittcalc.serialize import element_from_obj

from conftest import get_params


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_twice(argv):
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2
    assert out1 == out2  # byte-identical across runs
    return code1, out1


FIXTURES = {
    "digits": ["--p", "5", "--f", "1", "--prec", "6", "digits", '["126"]'],
    "delta": ["--p", "5", "--f", "1", "--prec", "8", "delta", '["2"]'],
    "jet": ["--p", "3", "--f", "1", "--prec", "8", "jet", '["2"]', "--order", "2"],
    "log": ["--p", "5", "--f", "1", "--prec", "3", "log", '["6"]'],
    "exp": ["--p", "5", "--f", "1", "--prec", "3", "exp", '["5"]'],
    "psi": ["--p", "5", "--f", "2", "--prec", "8", "psi", '["2","1"]'],
    "solve-mult": ["--p", "3", "--f", "1", "--prec", "6", "solve-mult",
                   "--beta", '["0"]'],
    "solve-diff": ["--p", "3", "--f", "2", "--prec", "6", "solve-diff",
                   "--eps", '["1","0"]'],
    "solve-matrix": ["--p", "5", "--f", "1", "--prec", "6", "solve-matrix",
                     "--beta", '{"entries": [[["2"],["1"]],[["0"],["3"]]]}'],
    "constants": ["--p", "5", "--f", "1", "--prec", "2", "constants"],
    # the value below is omega(g) at N = 20, the order-8 Teichmuller unit
    "relations": ["--p", "3", "--f", "2", "--prec", "20", "relations",
                  "--values", '[["0","1475898883"]]', "--deg", "4",
                  "--height", "1", "--mode", "lattice", "--min-poly"],
    "verify": ["--p", "3", "--f", "1", "--prec", "6", "verify",
               '[{"kind": "exponential", "beta": ["0"], "u": ["1"]},'
               ' {"kind": "difference", "eps": ["2"], "u": ["4"]},'
               ' {"kind": "matrix", "beta": [[["0"]]], "u": [[["1"]]]},'
               ' {"kind": "relation", "values": [["7"]], "precision": 6,'
               '  "certificate": {"monomials": [[0], [1]], "coeffs": [7, -1],'
               '   "verified_precision": 6, "bounds": {"d": 1, "H": 7, "M": 6},'
               '   "mode": "exhaustive"}}]'],
}


def test_every_subcommand_has_a_deterministic_fixture():
    for name, argv in FIXTURES.items():
        code, out = invoke_twice(argv)
        assert code == 0, f"{name}: {out}"
        json.loads(out)  # a single well-formed document


def test_delta_fixture_value():
    _, out = invoke_twice(FIXTURES["delta"])
    doc = json.loads(out)
    assert doc["coeffs"] == [str(5 ** 7 - 6)]
    assert doc["prec"] == 7
    # emitted elements re-parse to equal values
    P = get_params(5, 1, 8)
    assert element_from_obj(doc, P) == P.from_int(-6, prec=7)


def test_log_exp_fixture_values():
    _, out = invoke_twice(FIXTURES["log"])
    assert json.loads(out)["coeffs"] == ["55"]
    _, out = invoke_twice(FIXTURES["exp"])
    assert json.loads(out)["coeffs"] == ["81"]


def test_solve_mult_fixture_family():
    _, out = invoke_twice(FIXTURES["solve-mult"])
    doc = json.loads(out)
    assert doc["base"]["coeffs"] == ["1"]
    assert [c["coeffs"] for c in doc["constants"]] == [["1"], ["728"]]
    assert doc["certificate"]["ok"] is True


def test_constants_fixture():
    _, out = invoke_twice(FIXTURES["constants"])
    doc = json.loads(out)
    assert [c["coeffs"][0] for c in doc["constants"]] == ["1", "7", "18", "24"]


def test_relations_fixture_finds_quartic():
    _, out = invoke_twice(FIXTURES["relations"])
    doc = json.loads(out)
    cert = doc["certificate"]
    assert cert["monomials"] == [[0], [4]]
    assert cert["coeffs"] == [1, 1]
    assert cert["status"] == "proven-congruence"


def test_relations_none_reports_bounds():
    code, out = invoke_twice([
        "--p", "3", "--f", "1", "--prec", "40", "relations",
        "--values", '[["123456789"]]', "--deg", "2", "--height", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] is None
    assert doc["bounds"] == {"d": 2, "H": 10, "M": 40, "mode": "lattice"}


def test_relations_bounds_report_searched_precision():
    # a long-form value at prec 12 in an N = 20 ring is searched at M = 12
    value = json.dumps([{"p": 3, "f": 2, "prec": 12, "poly": [2, 2, 1],
                         "coeffs": ["0", "1475898883"]}])
    argv = FIXTURES["relations"][:8] + [value] + FIXTURES["relations"][9:]
    code, out = invoke_twice(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"]["M"] == doc["certificate"]["bounds"]["M"] == 12
    code, out = invoke_twice(argv + ["--precision", "10"])
    doc = json.loads(out)
    assert doc["bounds"]["M"] == doc["certificate"]["bounds"]["M"] == 10


def test_relations_random_units_requires_seed():
    base = ["--p", "3", "--f", "1", "--prec", "40", "relations",
            "--deg", "2", "--height", "10", "--random-units", "3"]
    code, out, err = invoke(base)
    assert code == 2
    assert "seed" in err
    code, out = invoke_twice(["--p", "3", "--f", "1", "--prec", "40",
                              "--seed", "99"] + base[6:])
    assert code == 0
    doc = json.loads(out)
    assert doc["none_count"] == 3


def test_verify_fixture_results():
    _, out = invoke_twice(FIXTURES["verify"])
    doc = json.loads(out)
    assert [r["ok"] for r in doc["results"]] == [True, False, True, True]
    assert [r["index"] for r in doc["results"]] == [0, 1, 2, 3]


def test_verify_rejects_malformed_relation_certificates():
    def verify(monos, coeffs, d, values='[["7"]]'):
        item = {"kind": "relation", "values": json.loads(values), "precision": 6,
                "certificate": {"monomials": monos, "coeffs": coeffs,
                                "verified_precision": 6, "bounds": {"d": d, "H": 7, "M": 6},
                                "mode": "exhaustive"}}
        return invoke(["--p", "3", "--f", "1", "--prec", "6", "verify", json.dumps([item])])

    assert verify([[-1], [1]], [1, -1], 1)[0] == 2  # negative exponent
    assert verify([[0], [1]], [7, -1], 1, '[["7"], ["7"]]')[0] == 2  # short exponents
    code, _, err = verify([[10 ** 9]], [1], 10 ** 9)  # huge exponent
    assert code == 5 and "budget" in err
    assert verify([[0], [1]], [7, -1], 1)[0] == 0


def test_jet_and_digits_round_trip():
    _, out = invoke_twice(FIXTURES["jet"])
    doc = json.loads(out)
    assert [e["coeffs"][0] for e in doc["entries"]][:2] == ["2", str(3 ** 7 - 2)]
    _, out = invoke_twice(FIXTURES["digits"])
    doc = json.loads(out)
    assert doc["prec"] == 6 and len(doc["digits"]) == 6


def test_format_digits_rendering():
    code, out = invoke_twice(["--p", "5", "--f", "1", "--prec", "6",
                              "--format", "digits", "exp", '["5"]'])
    assert code == 0
    doc = json.loads(out)
    assert "digits" in doc and len(doc["digits"]) == 6


def test_solve_matrix_fixture_certificate():
    _, out = invoke_twice(FIXTURES["solve-matrix"])
    doc = json.loads(out)
    assert doc["certificate"]["residual_precision"] >= 5
    assert doc["certificate"]["seed"] == [[[1], [0]], [[0], [1]]]


def test_exit_code_domain_error():
    code, _, err = invoke(["--p", "4", "--f", "1", "--prec", "6", "constants"])
    assert code == 2 and "prime" in err
    code, _, _ = invoke(["--p", "5", "--f", "1", "--prec", "6", "psi", '["5"]'])
    assert code == 2


def test_exit_code_obstruction():
    code, out = invoke_twice(["--p", "3", "--f", "2", "--prec", "10",
                              "solve-diff", "--eps", '["0","1"]'])
    assert code == 3
    doc = json.loads(out)
    assert doc["obstruction"]["stage"] == "mod-p"
    assert doc["obstruction"]["kind"] == "power-residue"


def test_exit_code_precision_exhausted():
    code, _, err = invoke(["--p", "3", "--f", "1", "--prec", "2",
                           "jet", '["2"]', "--order", "2"])
    assert code == 4


def test_exit_code_budget_exceeded():
    code, _, _ = invoke(["--p", "3", "--f", "1", "--prec", "40",
                         "--budget-monomials", "2", "relations",
                         "--values", '[["7"]]', "--deg", "2", "--height", "1"])
    assert code == 5
    # --min-poly searches degree by degree and holds each query to the budget
    argv = FIXTURES["relations"][:6] + ["--budget-monomials", "2"] + FIXTURES["relations"][6:]
    code, _, err = invoke(argv)
    assert code == 5 and "budget" in err


def test_exit_code_budget_exceeded_in_conway_search(monkeypatch):
    monkeypatch.setattr(conway, "MAX_WORDS", 100)
    conway.conway_polynomial.cache_clear()
    code, out, err = invoke(["--p", "7", "--f", "6", "--prec", "4", "delta", '["1"]'])
    assert code == 5 and out == "" and "Conway search" in err


def test_exit_code_budget_exceeded_in_constants(monkeypatch):
    # q - 1 = 3.7e19 constants are refused before any q-sized work starts:
    # neither the generator search nor the lift runs.
    calls = []
    for name in ("teichmuller", "prime_factors"):
        fn = getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
    ring = ["--p", "36893488147419104219", "--f", "1", "--prec", "4"]
    for cmd in (["constants"], ["solve-mult", "--beta", '["1"]']):
        code, out, err = invoke(ring + cmd)
        assert code == 5 and out == "" and "budget" in err
    assert calls == []
    code, out, _ = invoke(["--p", "7", "--f", "1", "--prec", "4", "constants"])
    assert code == 0 and len(calls) == 2


def test_large_p_field():
    # The Conway scan at p = 10^9+7 examines four words.
    code, out = invoke_twice(["--p", "1000000007", "--f", "2", "--prec", "4",
                              "delta", '["1","1"]'])
    assert code == 0
    assert json.loads(out)["poly"] == [5, 1000000004, 1]


def test_stdin_input():
    import sys
    from unittest import mock
    with mock.patch.object(sys, "stdin", io.StringIO('["2"]')):
        code, out, _ = invoke(["--p", "5", "--f", "1", "--prec", "8",
                               "delta", "-"])
    assert code == 0
    assert json.loads(out)["coeffs"] == [str(5 ** 7 - 6)]


def test_cross_process_byte_determinism():
    import subprocess
    import sys

    argv = [sys.executable, "-m", "wittcalc.cli"] + FIXTURES["solve-mult"]
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    # and the in-process runner agrees byte-for-byte with the subprocess
    _, out, _ = invoke(FIXTURES["solve-mult"])
    assert out.encode() == runs[0].stdout


def test_full_object_element_input_must_match_ring():
    doc = json.dumps({"p": 5, "f": 1, "prec": 4, "poly": [0, 1], "coeffs": ["2"]})
    code, out, _ = invoke(["--p", "5", "--f", "1", "--prec", "8", "delta", doc])
    assert code == 0
    assert json.loads(out)["prec"] == 3
    code, _, err = invoke(["--p", "7", "--f", "1", "--prec", "8", "delta", doc])
    assert code == 2


def test_poly_override_flag():
    argv = ["--p", "3", "--f", "2", "--prec", "8", "--poly", "[2, 2, 1]",
            "constants"]
    code, out = invoke_twice(argv)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["constants"]) == 8
    assert doc["constants"][0]["poly"] == [2, 2, 1]
    # reducible override is refused
    code, _, err = invoke(["--p", "3", "--f", "2", "--prec", "8",
                           "--poly", "[2, 0, 1]", "constants"])
    assert code == 2 and "reducible" in err.lower()


def test_cli_import_leaves_dataclasses_and_fractions_out():
    # both pull in further modules; the CLI process pays for every import
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    # asking a record whether it is a dataclass imports nothing either
    code = ("import sys, wittcalc.cli; "
            "assert not hasattr(wittcalc.FqElement, '__dataclass_fields__'); "
            "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
