"""CLI: one fixture per subcommand, determinism, exit codes, round-trips."""

import io
import json

from wittcalc import conway, relations, solvers, zq
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


def test_relations_random_units_refuses_values_and_min_poly():
    base = ["--p", "3", "--f", "1", "--prec", "40", "--seed", "99", "relations",
            "--deg", "2", "--height", "10", "--random-units", "3"]
    for extra in (["--values", '[["7"]]'], ["--min-poly"]):
        code, out, err = invoke(base + extra)
        assert (code, out) == (2, "") and err.count("\n") == 1, extra
        assert "--random-units" in err


def test_relations_bounds_below_one_exit_2():
    # with and without --min-poly, and K < 1 random units: refused, nothing on stdout
    ring = ["--p", "3", "--f", "1", "--prec", "40", "--seed", "99", "relations"]
    for tail in (["--values", '[["1"]]', "--deg", "-3", "--height", "0", "--min-poly"],
                 ["--values", '[["1"]]', "--deg", "-3", "--height", "0"],
                 ["--deg", "2", "--height", "10", "--random-units", "0"],
                 ["--deg", "2", "--height", "10", "--random-units", "-1"]):
        code, out, err = invoke(ring + tail)
        assert code == 2 and out == "" and ">= 1" in err, tail


def test_relations_height_at_or_past_p_to_the_m_exits_2():
    # at (2, 8, 2), H = 8 >= p^M = 4 would certify the constant 4 for any unit
    ring = ["--p", "2", "--f", "8", "--prec", "2", "relations",
            "--values", '[["1","1","0","0","0","0","0","0"]]', "--deg", "1"]
    for extra in ([], ["--mode", "exhaustive"], ["--min-poly"]):
        code, out, err = invoke(ring + ["--height", "8"] + extra)
        assert (code, out) == (2, "") and "heuristic floor" in err, extra
    code, out = invoke_twice(ring + ["--height", "3"])
    assert code == 0 and json.loads(out)["certificate"] is None


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


def test_verify_names_the_item_and_the_missing_field():
    argv = ["--p", "3", "--f", "1", "--prec", "6", "verify",
            '[{"kind": "difference", "eps": ["2"], "u": ["4"]}, {"kind": "matrix", "u": [[["1"]]]}]']
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err == "error: item 1 (matrix): missing field 'beta'\n"
    code, _, err = invoke(argv[:-1] + ['{"items": [{"kind": "exponential", "beta": ["0"]}]}'])
    assert code == 2 and err == "error: item 0 (exponential): missing field 'u'\n"


def test_verify_refuses_an_item_that_is_not_an_object():
    argv = ["--p", "3", "--f", "1", "--prec", "6", "verify"]
    code, out, err = invoke(argv + ['[{"kind": "difference", "eps": ["2"], "u": ["4"]}, 1]'])
    assert (code, out, err) == (2, "", "error: item 1: expected a JSON object, not 1\n")
    code, out, err = invoke(argv + ['{"items": [["1"]]}'])
    assert (code, out, err) == (2, "", 'error: item 0: expected a JSON object, not ["1"]\n')
    code, out, err = invoke(argv + ['{"item": []}'])
    assert (code, out, err) == (2, "", "error: missing field 'items'\n")
    # a field missing inside an item's matrix names the item too
    code, _, err = invoke(argv + ['[{"kind": "matrix", "beta": {"n": 1}, "u": [[["1"]]]}]'])
    assert code == 2 and err == "error: item 0 (matrix): missing field 'entries'\n"


def test_verify_names_an_unknown_kind_by_its_json_on_one_line():
    argv = ["--p", "3", "--f", "1", "--prec", "6", "verify"]
    for kind, text in (("a\nb", '"a\\nb"'), ({"k": 1}, '{"k": 1}'), (None, "null")):
        code, out, err = invoke(argv + [json.dumps([{"kind": kind}])])
        assert (code, out, err) == (2, "", f"error: item 0: unknown verification kind {text}\n")


def test_integers_are_read_strictly():
    ring = ["--p", "5", "--f", "1", "--prec", "6"]
    elem = {"p": 5, "f": 1, "prec": 3, "coeffs": ["7"]}
    refused = {
        '[1.5]': "a coefficient must be an integer or a decimal string, not 1.5",
        '[true]': "a coefficient must be an integer or a decimal string, not true",
        '[" 7"]': 'a coefficient must be an integer or a decimal string, not " 7"',
        '["0x7"]': 'a coefficient must be an integer or a decimal string, not "0x7"',
        '{}': "missing field 'p'",
        json.dumps({**elem, "prec": 3.0}): "field 'prec' must be an integer or a decimal "
                                           "string, not 3.0",
        json.dumps({**elem, "f": True}): "field 'f' must be an integer or a decimal "
                                         "string, not true",
        json.dumps({**elem, "coeffs": "7"}): 'coefficients must be a JSON array, not "7"',
        json.dumps({**elem, "poly": [0, 1.0]}): "a coefficient must be an integer or a "
                                                "decimal string, not 1.0",
        json.dumps({k: v for k, v in elem.items() if k != "coeffs"}): "missing field 'coeffs'",
    }
    for arg, message in refused.items():
        code, out, err = invoke(ring + ["delta", arg])
        assert (code, out, err) == (2, "", f"error: {message}\n"), arg
    for beta in ('{"entries": [[[1.5]]]}', '{"prec": true, "entries": [[["1"]]]}', '{"n": 1}'):
        code, out, _ = invoke(ring + ["solve-matrix", "--beta", beta])
        assert (code, out) == (2, ""), beta
    # JSON integers and signed decimal strings are read as before
    outs = {invoke(ring + ["delta", arg])[1] for arg in ('[7]', '["7"]', '["+7"]', '["-15618"]')}
    assert len(outs) == 1 and json.loads(outs.pop())["prec"] == 5


def test_remaining_inputs_are_read_strictly():
    ring = ["--p", "5", "--f", "1", "--prec", "6"]
    must = "must be an integer or a decimal string, not"
    item = {"kind": "relation", "values": [["7"]], "precision": 6,
            "certificate": {"monomials": [[0], [1]], "coeffs": [7, -1],
                            "verified_precision": 6, "bounds": {"d": 1, "H": 7, "M": 6},
                            "mode": "exhaustive"}}
    cert = item["certificate"]
    refused = [
        (["verify", json.dumps([{**item, "certificate": {**cert, "coeffs": [1.5, -1]}}])],
         f"item 0 (relation): a coefficient {must} 1.5"),
        (["verify", json.dumps([{**item, "precision": 5.9}])],
         f"item 0 (relation): field 'precision' {must} 5.9"),
        (["verify", json.dumps([{**item, "certificate": {**cert, "monomials": [[0], [True]]}}])],
         f"item 0 (relation): an exponent {must} true"),
        (["verify", json.dumps([{**item, "values": 7}])],
         "item 0 (relation): field 'values' must be a JSON array, not 7"),
        (["verify", '{"items": 5}'], "the items must be a JSON array, not 5"),
        (["--poly", "[2.5, 4, 1]", "constants"], f"a coefficient {must} 2.5"),
        (["--poly", "[2, 4, true]", "constants"], f"a coefficient {must} true"),
        (["--poly", "7", "constants"], "coefficients must be a JSON array, not 7"),
        (["solve-matrix", "--beta", "[[[\"1\"]]]", "--u0", "[[true]]"],
         f"a residue entry {must} true"),
        (["solve-matrix", "--beta", "[[[\"1\"]]]", "--u0", "[[2.7]]"],
         f"a residue entry {must} 2.7"),
        (["solve-matrix", "--beta", "[[[\"1\"]]]", "--u0", '{"entries": [3]}'],
         "a row of residue entries must be a JSON array, not 3"),
        (["solve-matrix", "--beta", '{"entries": 3}'], "matrix entries must be a JSON array, not 3"),
        (["relations", "--values", '{"v": 1}', "--deg", "1", "--height", "1"],
         "--values must be a JSON array, not {\"v\": 1}"),
    ]
    for argv, message in refused:
        argv = argv[:2] + ring + argv[2:] if argv[0] == "--poly" else ring + argv
        assert invoke(argv) == (2, "", f"error: {message}\n"), argv
    # integers and decimal strings in the seed are read as before
    outs = {invoke(ring + ["solve-matrix", "--beta", '[[["1"]]]', "--u0", u0])[1]
            for u0 in ('[[2]]', '[["2"]]', '[[[2]]]', '{"entries": [[["7"]]]}')}
    assert len(outs) == 1 and json.loads(outs.pop())["certificate"]["seed"] == [[[2]]]


RELATION_ITEM = {"kind": "relation", "values": [["7"]], "precision": 6,
                 "certificate": {"monomials": [[0], [1]], "coeffs": [7, -1],
                                 "verified_precision": 6,
                                 "bounds": {"d": 1, "H": 7, "M": 6}, "mode": "exhaustive"}}


def verify_relation_item(item=None, **certificate):
    """``verify`` on RELATION_ITEM with the fields of ``item`` and of its certificate replaced."""
    item = {**RELATION_ITEM, **(item or {})}
    if certificate:
        item["certificate"] = {**item["certificate"], **certificate}
    return invoke(["--p", "5", "--f", "1", "--prec", "6", "verify", json.dumps([item])])


def test_verify_refuses_a_certificate_mode_other_than_exhaustive_or_lattice():
    assert verify_relation_item(mode="lattice")[0] == 0
    assert verify_relation_item(mode=7, status="proven-equality") == (
        2, "", "error: item 0 (relation): certificate mode must be exhaustive or lattice, "
               "not 7\n")


def test_verify_refuses_a_certificate_status_other_than_proven_congruence():
    assert verify_relation_item(status="proven-congruence")[0] == 0
    assert verify_relation_item(status="proven-equality") == (
        2, "", "error: item 0 (relation): certificate status must be proven-congruence, "
               "not 'proven-equality'\n")


def test_verify_refuses_a_certificate_that_is_not_an_object():
    assert verify_relation_item(item={"certificate": 5}) == (
        2, "", "error: item 0 (relation): expected a JSON object with field 'bounds', "
               "not 5\n")


def test_verify_refuses_certificate_bounds_that_are_not_an_object():
    assert verify_relation_item(bounds=5) == (
        2, "", "error: item 0 (relation): expected a JSON object with field 'd', not 5\n")


def test_verify_refuses_a_relation_item_without_values():
    assert verify_relation_item(item={"values": []}) == (
        2, "", "error: item 0 (relation): a relation certificate is verified at one value "
               "or more, not none\n")


def test_jet_and_digits_round_trip():
    _, out = invoke_twice(FIXTURES["jet"])
    doc = json.loads(out)
    assert [e["coeffs"][0] for e in doc["entries"]][:2] == ["2", str(3 ** 7 - 2)]
    _, out = invoke_twice(FIXTURES["digits"])
    doc = json.loads(out)
    assert doc["prec"] == 6 and len(doc["digits"]) == 6


def test_usage_errors_print_one_line_to_the_given_stderr():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittcalc

    refused = [
        (["--p", "5", "--prec", "6", "delta"], "the following arguments are required: element"),
        (["--p", "x", "--prec", "6", "delta", '["2"]'], "argument --p: invalid int value: 'x'"),
        (["--p", "5", "--prec", "6", "delta", '["2"]', "a\nb"],
         "unrecognized arguments: a\\nb"),
        (["--p", "5", "--prec", "6", "relations", "--deg", "1"],
         "the following arguments are required: --height"),
    ]
    for argv, message in refused:
        assert invoke(argv) == (2, "", f"error: {message}\n"), argv
    # a process prints the same one line, not argparse's usage and error
    env = dict(os.environ, PYTHONPATH=str(Path(wittcalc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittcalc.cli"] + refused[0][0],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {refused[0][1]}\n")


def test_matrix_wire_form_carries_its_ring():
    code, out = invoke_twice(["--p", "7", "--f", "1", "--prec", "6", "solve-matrix",
                              "--beta", '[[["2"]]]'])
    u = json.loads(out)["solution"]
    assert code == 0 and (u["p"], u["f"], u["poly"]) == (7, 1, [0, 1])
    item = {"kind": "matrix", "beta": [[["2"]]], "u": u}
    code, out, _ = invoke(["--p", "7", "--prec", "6", "verify", json.dumps([item])])
    assert code == 0 and json.loads(out)["results"][0]["ok"] is True
    # a Z_7 answer is refused by a Z_5 verify, not reported as "ok": false
    assert invoke(["--p", "5", "--prec", "6", "verify", json.dumps([item])]) == (
        2, "", "error: item 0 (matrix): matrix is over (p=7, f=1), ring is (p=5, f=1)\n")
    assert invoke(["--p", "7", "--f", "2", "--prec", "6", "solve-matrix",
                   "--beta", json.dumps(u)]) == (
        2, "", "error: matrix is over (p=7, f=1), ring is (p=7, f=2)\n")
    assert invoke(["--p", "7", "--prec", "6", "--poly", "[2, 1]", "solve-matrix",
                   "--beta", json.dumps(u)]) == (
        2, "", "error: matrix was serialized over a different modulus\n")
    # bare grids and objects without the fields are read as before
    ring = ["--p", "5", "--prec", "6", "solve-matrix", "--beta"]
    outs = {invoke(ring + [beta])[1] for beta in (
        '[[["2"]]]', '{"entries": [[["2"]]]}', '{"n": 1, "prec": 6, "entries": [[["2"]]]}',
        '{"p": 5, "f": 1, "poly": [0, 1], "entries": [[["2"]]]}')}
    assert len(outs) == 1 and json.loads(outs.pop())["solution"]["p"] == 5


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


def test_exit_code_budget_exceeded(monkeypatch):
    code, _, _ = invoke(["--p", "3", "--f", "1", "--prec", "40", "relations",
                         "--values", '[["7"]]', "--deg", "2", "--height", "2097152"])
    assert code == 5
    # --min-poly is one query, held to the budget as a whole before any search
    monkeypatch.setattr(relations, "MAX_MONOMIALS", 2)
    code, _, err = invoke(FIXTURES["relations"])
    assert code == 5 and "budget" in err


def test_relation_caps_are_checked_before_any_monomial_is_listed(monkeypatch):
    def refuse(*args):
        raise AssertionError("monomials listed for a refused query")

    monkeypatch.setattr(relations, "monomials", refuse)
    values = json.dumps([[str(k)] for k in range(2, 72)])
    code, out, err = invoke(["--p", "5", "--f", "1", "--prec", "10", "relations",
                             "--values", values, "--deg", "1", "--height", "1"])
    assert (code, out, err) == (5, "", "error: lattice dimension 72 exceeds 64\n")
    # an old invocation with a budget flag is refused by the parser
    code, out, _ = invoke(["--p", "5", "--prec", "10", "--budget-monomials", "100000",
                           "relations", "--values", '[["7"]]', "--deg", "1", "--height", "1"])
    assert (code, out) == (2, "")


def test_exit_code_budget_exceeded_in_conway_search(monkeypatch):
    monkeypatch.setattr(conway, "MAX_WORDS", 100)
    conway.conway_polynomial.cache_clear()
    code, out, err = invoke(["--p", "7", "--f", "6", "--prec", "4", "delta", '["1"]'])
    assert code == 5 and out == "" and "Conway search" in err


def test_exit_code_budget_exceeded_in_constants(monkeypatch):
    # q - 1 = 3.7e19 constants are refused before any q-sized work starts:
    # neither the table, nor its generator search, nor its lift runs.
    calls = []
    for module, name in ((solvers, "teichmuller_table"), (zq, "prime_factors"),
                         (zq, "_frobenius_lift")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
    ring = ["--p", "36893488147419104219", "--f", "1", "--prec", "4"]
    for cmd in (["constants"], ["solve-mult", "--beta", '["1"]']):
        code, out, err = invoke(ring + cmd)
        assert code == 5 and out == "" and "budget" in err
    assert calls == []
    code, out, _ = invoke(["--p", "7", "--f", "1", "--prec", "4", "constants"])
    assert code == 0 and len(calls) == 3


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
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittcalc

    # the children import the package this process tested, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(wittcalc.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "wittcalc.cli"] + FIXTURES["solve-mult"]
    runs = [subprocess.run(argv, capture_output=True, env=env) for _ in range(2)]
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
            "assert not hasattr(wittcalc.Obstruction, '__dataclass_fields__'); "
            "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_help_prints_to_the_given_stdout(capsys):
    for argv, usage, option in ((["--help"], "usage: wittcalc [-h]", "--prec PREC"),
                                (["relations", "--help"], "usage: wittcalc relations [-h]",
                                 "--min-poly")):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "") and out.startswith(usage) and option in out, argv
    # nothing reached the process's own streams
    assert capsys.readouterr() == ("", "")


def test_verify_names_the_item_for_every_error_it_raises():
    ring = ["--p", "5", "--prec", "6", "verify"]
    z7 = {"p": 7, "f": 1, "prec": 6, "coeffs": ["1"]}
    big = {"monomials": [[0]], "coeffs": [1], "verified_precision": 6,
           "bounds": {"d": 600, "H": 1, "M": 6}, "mode": "lattice"}
    refused = [
        # ParamsMismatch (exit 2)
        ({"kind": "difference", "eps": z7, "u": ["2"]},
         2, "item 0 (difference): element is over (p=7, f=1), ring is (p=5, f=1)"),
        # BudgetExceeded keeps its exit code 5
        ({"kind": "relation", "values": [["2"]], "certificate": big},
         5, "item 0 (relation): 601 monomials exceed the budget of 512"),
        # NonUnit (exit 2)
        ({"kind": "exponential", "beta": ["1"], "u": ["5"]},
         2, "item 0 (exponential): candidate solutions must be units"),
    ]
    for item, code, message in refused:
        assert invoke(ring + [json.dumps([item])]) == (code, "", f"error: {message}\n"), item
