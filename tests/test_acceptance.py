"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts a zero failure count, so the suite is green iff every criterion
holds.  Randomness is seeded; the whole file is deterministic.
"""

import json
import random
from math import comb

from wittcalc import (
    ExponentialProblem,
    Obstruction,
    RelationQuery,
    ZqMatrix,
    enumerate_constants,
    eval_delta_function,
    fermat_quotient,
    find_relation,
    from_digits,
    frobenius,
    digits,
    padic_exp,
    padic_log,
    phi_norm,
    psi,
    psi_series_truncation,
    random_element,
    solve_difference,
    solve_exponential,
    solve_matrix_linear,
    teichmuller,
    verify_exponential,
    verify_matrix_linear,
)

from conftest import get_params
from oracles import agreement_precision, log_route_psi


def report(num, name, failures, total):
    status = "PASS" if failures == 0 else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}  {name}  ({total - failures}/{total})")
    assert failures == 0, f"criterion {num}: {failures} failures out of {total}"


def test_criterion_01_digit_frobenius_compatibility():
    P = get_params(5, 3, 20)
    rng = random.Random(101)
    failures = 0
    for _ in range(200):
        u = random_element(P, rng, unit=True)
        d = digits(u)
        if from_digits(d) != u:
            failures += 1
            continue
        if from_digits(d.frobenius()) != frobenius(u):
            failures += 1
    report(1, "digit expansion round-trips and phi acts digit-wise", failures, 200)


def test_criterion_02_automorphism_laws():
    rng = random.Random(102)
    failures = total = 0
    for p in (3, 5, 7):
        for f in (1, 2, 3):
            P = get_params(p, f, 16)
            for _ in range(200):
                total += 1
                u = random_element(P, rng)
                t = u
                for _ in range(f):
                    t = frobenius(t)
                if t != u:
                    failures += 1
                    continue
                if agreement_precision(frobenius(u), u ** p) < 1:
                    failures += 1
    report(2, "phi^f = id and phi(u) = u^p mod p", failures, total)


def test_criterion_03_delta_identities():
    rng = random.Random(103)
    failures = total = 0
    for p in (3, 5, 7):
        binom_over_p = [comb(p, k) // p for k in range(1, p)]
        for f in (1, 2, 3):
            P = get_params(p, f, 16)
            for _ in range(200):
                total += 1
                u = random_element(P, rng)
                v = random_element(P, rng)
                du, dv = fermat_quotient(u), fermat_quotient(v)
                upow, vpow = u, v ** (p - 1)
                cross = binom_over_p[0] * u * vpow
                for k in range(2, p):
                    upow = upow * u
                    vpow = v ** (p - k)
                    cross = cross + binom_over_p[k - 1] * upow * vpow
                sum_ok = fermat_quotient(u + v) == du + dv - cross
                prod_ok = fermat_quotient(u * v) == (
                    u ** p * dv + v ** p * du + (du * dv).mul_p_power(1))
                if not (sum_ok and prod_ok):
                    failures += 1
    report(3, "delta sum and product identities mod p^(N-1)", failures, total)


def test_criterion_04_psi_homomorphism_and_dual_paths():
    N = 16
    P = get_params(5, 2, N)
    rng = random.Random(104)
    series = psi_series_truncation(P, N - 1)
    failures = 0
    for _ in range(200):
        u = random_element(P, rng, unit=True)
        v = random_element(P, rng, unit=True)
        s = psi(u)
        if agreement_precision(psi(u * v), s + psi(v)) < N - 2:
            failures += 1
            continue
        # psi against its closed form log(phi(u)/u^p)/p, which the oracle
        # sums as the log series, and against the truncation evaluated by
        # the public evaluator
        closed = log_route_psi(u)
        if (closed.coeffs, closed.prec) != (s.coeffs, s.prec) \
                or eval_delta_function(series, [u]) != s:
            failures += 1
    report(4, "psi is a homomorphism and both paths agree", failures, 200)


def test_criterion_05_closed_form_solves_all_three_forms():
    rng = random.Random(105)
    failures = total = 0
    N = 12
    for p in (3, 5, 7):
        for f in (1, 2):
            P = get_params(p, f, N)
            for _ in range(17):
                total += 1
                beta = random_element(P, rng)
                fam = solve_exponential(beta)
                base_cert = verify_exponential(fam.base, fam.problem, base=fam.base)
                ok = (base_cert.ok
                      and base_cert.phi_form[0] >= N - 1
                      and base_cert.delta_form[0] >= N - 1
                      and base_cert.psi_form[0] >= N - 1)
                if ok:
                    for member in fam.members():
                        cert = verify_exponential(member, fam.problem, base=fam.base)
                        if not cert.ok or cert.delta_form[0] < N - 1:
                            ok = False
                            break
                if not ok:
                    failures += 1
    report(5, "closed-form base and all Teichmuller multiples verify", failures, total)


def test_criterion_06_exhaustive_cross_check_toy_scale():
    P = get_params(3, 1, 4)
    rng = random.Random(106)
    failures = 0
    for _ in range(20):
        alpha = random_element(P, rng)
        a = alpha.coeffs[0]
        # independent oracle in plain integer arithmetic over Z/81
        brute = {u for u in range(81) if u % 3
                 and ((u - u ** 3) // 3 - a * u ** 3) % 27 == 0}
        fam = solve_exponential(ExponentialProblem.from_alpha(alpha).beta)
        solver_set = {(z * fam.base).coeffs[0] for z in fam.constants}
        if brute != solver_set:
            failures += 1
    report(6, "brute force over Z/81 units matches the solver family", failures, 20)


def test_criterion_07_difference_equation():
    failures = 0
    # (a) eps = 1 at toy scale: solution set is exactly the units of Z_p
    P = get_params(3, 2, 3)
    fixed = {(a, b) for a in range(27) for b in range(27)
             if (a % 3 or b % 3)
             and frobenius(P.from_coeffs((a, b), 3)) == P.from_coeffs((a, b), 3)}
    if fixed != {(a, 0) for a in range(27) if a % 3}:
        failures += 1
    if solve_difference(P.one()) != 1:
        failures += 1
    # (b) a non-square residue obstructs mod p (gcd(p-1, q-1) = 2)
    P10 = get_params(3, 2, 10)
    result = solve_difference(P10.gen() + 0)
    if not (isinstance(result, Obstruction) and result.stage == "mod-p"):
        failures += 1
    # (c) phi-norm != 1 never yields a solution
    rng = random.Random(107)
    total = 3
    for _ in range(100):
        eps = random_element(P10, rng, unit=True)
        if phi_norm(eps) == 1:
            continue
        total += 1
        if not isinstance(solve_difference(eps), Obstruction):
            failures += 1
    report(7, "difference equation: fixed ring, obstructions, norm test", failures, total)


def test_criterion_08_matrix_solver():
    N = 10
    P = get_params(5, 1, N)
    rng = random.Random(108)
    failures = 0
    for _ in range(50):
        beta = ZqMatrix(tuple(tuple(random_element(P, rng) for _ in range(2))
                              for _ in range(2)))
        u = solve_matrix_linear(beta)
        if verify_matrix_linear(u, beta) < N - 1:
            failures += 1
    total = 50
    for _ in range(10):
        total += 1
        b = random_element(P, rng)
        fam = solve_exponential(ExponentialProblem.from_alpha(b).beta)
        a = rng.randrange(1, 5)
        u = solve_matrix_linear(ZqMatrix(((b,),)), ((P.fq_from_int(a),),))
        member = teichmuller(P.fq_from_int(a)) * fam.base
        if agreement_precision(u.entries[0][0], member) < N - 1:
            failures += 1
    report(8, "matrix residuals vanish mod 5^9; n=1 matches the scalar family",
           failures, total)


def test_criterion_09_teichmuller_anchors():
    failures = total = 0
    # omega(2) = 7 mod 25: iterate x -> x^5 (independent integer oracle)
    total += 1
    if teichmuller(get_params(5, 1, 2).fq_from_int(2)) != 7 or pow(7, 5, 25) != 7:
        failures += 1
    for p in (3, 5, 7):
        total += 1
        if teichmuller(get_params(p, 1, 20).fq_from_int(-1)) != -1:
            failures += 1
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (5, 3)]:
        P = get_params(p, f, 20)
        q = p ** f
        for z in enumerate_constants(P):
            total += 1
            if z ** (q - 1) != 1:
                failures += 1
    report(9, "Teichmuller anchors and exact roots of unity at N=20", failures, total)


def test_criterion_10_relation_probe():
    failures = total = 0
    certificates = []
    # (a) omega(g) for a generator g of F_9 satisfies x^4 + 1
    P9 = get_params(3, 2, 20)
    gbar = P9.gen().residue()
    assert all(gbar ** k != P9.fq_from_int(1) for k in range(1, 8))
    w = teichmuller(gbar)
    for mode in ("exhaustive", "lattice"):
        total += 1
        cert = find_relation(RelationQuery(
            values=(w,), deg_bound=4, height_bound=1, mode=mode))
        if cert is None or cert.monomials != ((0,), (4,)) or cert.coeffs != (1, 1):
            failures += 1
        else:
            certificates.append((cert, [w]))
    # (b) >= 95 of 100 random units admit no relation at (M=40, d=2, H=10)
    P40 = get_params(3, 1, 40)
    rng = random.Random(110)
    nones = 0
    for _ in range(100):
        u = random_element(P40, rng, unit=True)
        cert = find_relation(RelationQuery(
            values=(u,), deg_bound=2, height_bound=10, mode="lattice"))
        if cert is None:
            nones += 1
        else:
            certificates.append((cert, [u]))
    total += 1
    if nones < 95:
        failures += 1
    # (c) exhaustive and lattice agree on 50 shared-budget queries
    P30 = get_params(5, 1, 30)
    queries = []
    for _ in range(13):
        queries.append(((teichmuller(P30.fq_from_int(rng.randrange(1, 5))),), 4, 3))
    for _ in range(12):
        u = random_element(P30, rng, unit=True)
        queries.append(((u, u * u), 2, 2))
    for _ in range(25):
        queries.append(((random_element(P30, rng, unit=True),), 2, 3))
    for values, d, H in queries:
        total += 1
        ex = find_relation(RelationQuery(values=values, deg_bound=d,
                                         height_bound=H, mode="exhaustive"))
        la = find_relation(RelationQuery(values=values, deg_bound=d,
                                         height_bound=H, mode="lattice"))
        if (ex is None) != (la is None):
            failures += 1
            continue
        if ex is not None:
            if ex.monomials != la.monomials or ex.coeffs != la.coeffs:
                failures += 1
                continue
            certificates.append((ex, list(values)))
    # (d) every certificate re-verifies at its stated precision
    from wittcalc import verify_relation
    for cert, values in certificates:
        total += 1
        if not verify_relation(cert, values, cert.verified_precision):
            failures += 1
    report(10, "relation probe: quartic recovered, None on noise, modes agree",
           failures, total)


def test_criterion_11_exp_log_inversion():
    rng = random.Random(111)
    failures = total = 0
    N = 16
    for p in (3, 5, 7):
        for f in (1, 2):
            P = get_params(p, f, N)
            for _ in range(34):
                total += 1
                u = 1 + random_element(P, rng).mul_p_power(1)
                x = random_element(P, rng).mul_p_power(1)
                if padic_exp(padic_log(u)) != u or padic_log(padic_exp(x)) != x:
                    failures += 1
    report(11, "exp and log invert each other exactly at N", failures, total)


def test_criterion_12_cli_determinism_and_exit_codes():
    from test_cli import FIXTURES, invoke

    failures = total = 0
    for name, argv in FIXTURES.items():
        total += 1
        code1, out1, _ = invoke(argv)
        code2, out2, _ = invoke(argv)
        if code1 != code2 or out1 != out2 or code1 != 0:
            failures += 1
            continue
        try:
            json.loads(out1)
        except json.JSONDecodeError:
            failures += 1
    exit_cases = [
        (["--p", "4", "--f", "1", "--prec", "6", "constants"], 2),
        (["--p", "3", "--f", "2", "--prec", "10", "solve-diff",
          "--eps", '["0","1"]'], 3),
        (["--p", "3", "--f", "1", "--prec", "2", "jet", '["2"]',
          "--order", "2"], 4),
        (["--p", "3", "--f", "1", "--prec", "40", "relations",
          "--values", '[["7"]]', "--deg", "2", "--height", "2097152"], 5),
    ]
    for argv, expected in exit_cases:
        total += 1
        code, _, _ = invoke(argv)
        if code != expected:
            failures += 1
    report(12, "CLI golden fixtures byte-stable; all exit codes exercised",
           failures, total)
