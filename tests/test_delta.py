"""Fermat quotient, jets, p-adic exp/log, psi, and series evaluation."""

import random
from math import comb, gcd

import pytest

from wittcalc import (
    ArityMismatch,
    DomainError,
    NonUnit,
    PadicParams,
    PrecisionExhausted,
    RestrictedSeries,
    UnsupportedPrime,
    delta_jet,
    eval_delta_function,
    fermat_quotient,
    frobenius,
    padic_exp,
    padic_log,
    psi,
    psi_series_truncation,
    random_element,
    teichmuller,
)

from wittcalc import delta

from conftest import get_params, oracle_exp, oracle_log
from oracles import (
    termwise_eval_delta_function,
    termwise_series,
    termwise_table_series,
    vec_mul_series,
)


# ---------------------------------------------------------------------------
# the quotient operator itself

def test_fermat_quotient_direct_values():
    # phi fixes Z_p, so delta(a) = (a - a^p)/p on integers
    assert fermat_quotient(get_params(3, 1, 8).from_int(2)) == (2 - 2 ** 3) // 3
    P5 = get_params(5, 1, 8)
    assert fermat_quotient(P5.from_int(2)) == (2 - 2 ** 5) // 5
    assert fermat_quotient(P5.from_int(5)) == 1 - 5 ** 4


def test_fermat_quotient_kills_teichmuller():
    P = get_params(5, 2, 8)
    rng = random.Random(0)
    for _ in range(10):
        z = teichmuller(random_element(P, rng, unit=True).residue())
        assert fermat_quotient(z) == 0
    assert fermat_quotient(P.one()) == 0


def test_fermat_quotient_precision():
    P = get_params(3, 1, 8)
    u = P.from_int(2, prec=5)
    assert fermat_quotient(u).prec == 4
    with pytest.raises(PrecisionExhausted):
        fermat_quotient(P.from_int(2, prec=1))


def test_definition_inverted():
    # phi(u) = u^p + p*delta(u) exactly at full precision
    rng = random.Random(1)
    for p, f in [(3, 2), (5, 1), (7, 2)]:
        P = get_params(p, f, 8)
        for _ in range(20):
            u = random_element(P, rng)
            assert frobenius(u) == u ** p + fermat_quotient(u).mul_p_power(1)


def test_delta_sum_and_product_identities():
    rng = random.Random(2)
    for p, f in [(3, 1), (5, 2), (7, 1)]:
        P = get_params(p, f, 10)
        for _ in range(30):
            u = random_element(P, rng)
            v = random_element(P, rng)
            du, dv = fermat_quotient(u), fermat_quotient(v)
            cross = P.zero()
            for k in range(1, p):
                cross = cross + (comb(p, k) // p) * u ** k * v ** (p - k)
            assert fermat_quotient(u + v) == du + dv - cross
            assert fermat_quotient(u * v) == u ** p * dv + v ** p * du + (du * dv).mul_p_power(1)


def test_delta_jet():
    P = get_params(3, 1, 8)
    jet = delta_jet(P.from_int(2), 2)
    assert list(jet) == [2, -2, 2]  # delta(-2) = (-2 + 8)/3 = 2
    assert [e.prec for e in jet.entries] == [8, 7, 6]
    assert jet[1] == fermat_quotient(jet[0])
    assert jet[2] == fermat_quotient(jet[1])
    assert len(delta_jet(P.from_int(2), 0)) == 1
    z = teichmuller(P.fq_from_int(2))
    assert all(e == 0 for e in delta_jet(z, 3).entries[1:])
    with pytest.raises(PrecisionExhausted):
        delta_jet(P.from_int(2, prec=2), 2)


# ---------------------------------------------------------------------------
# log and exp

def test_log_frozen_value_and_oracle():
    P = get_params(5, 1, 3)
    got = padic_log(P.from_int(6))
    assert oracle_log(6, 5, 3) == 55
    assert got == 55


def test_exp_frozen_value_and_oracle():
    P = get_params(5, 1, 3)
    got = padic_exp(P.from_int(5))
    assert oracle_exp(5, 5, 3) == 81
    assert got == 81


def test_log_exp_against_oracle_higher_precision():
    rng = random.Random(3)
    for p in (3, 5, 7):
        P = get_params(p, 1, 12)
        for _ in range(10):
            x = random_element(P, rng).mul_p_power(1)
            assert padic_exp(x) == oracle_exp(x.coeffs[0], p, 12)
            u = 1 + x
            assert padic_log(u) == oracle_log(u.coeffs[0], p, 12)


def test_log_is_homomorphism_exp_inverts():
    rng = random.Random(4)
    for p, f in [(3, 2), (5, 1), (7, 2)]:
        P = get_params(p, f, 10)
        for _ in range(15):
            u = 1 + random_element(P, rng).mul_p_power(1)
            v = 1 + random_element(P, rng).mul_p_power(1)
            assert padic_log(u * v) == padic_log(u) + padic_log(v)
            assert padic_exp(padic_log(u)) == u
            x = random_element(P, rng).mul_p_power(1)
            assert padic_log(padic_exp(x)) == x
            # the same at reduced input precision
            w = u.mask(rng.randint(2, 9))
            got = padic_exp(padic_log(w))
            assert got == w and got.prec == w.prec
    P = get_params(3, 1, 10)
    assert padic_log(P.one()) == 0
    assert padic_exp(P.zero()) == 1
    assert padic_log((1 + P.from_int(3)) ** 2) == 2 * padic_log(1 + P.from_int(3))


def test_log_exp_domain_errors():
    P = get_params(5, 1, 8)
    with pytest.raises(DomainError):
        padic_log(P.from_int(2))
    with pytest.raises(DomainError):
        padic_exp(P.from_int(2))
    P2 = get_params(2, 1, 8)
    with pytest.raises(UnsupportedPrime):
        padic_exp(P2.from_int(2))
    with pytest.raises(UnsupportedPrime):
        padic_log(P2.from_int(3))


# ---------------------------------------------------------------------------
# psi

def test_psi_vanishes_on_teichmuller():
    P = get_params(5, 2, 8)
    assert psi(P.one()) == 0
    rng = random.Random(5)
    for _ in range(10):
        z = teichmuller(random_element(P, rng, unit=True).residue())
        assert psi(z) == 0


def test_psi_on_one_units_of_prime_subring():
    # phi fixes Z_p, so psi(u) = ((1-p)/p) log(u) there
    rng = random.Random(6)
    for p, f in [(3, 1), (5, 2), (7, 1)]:
        P = get_params(p, f, 10)
        for _ in range(10):
            u = 1 + P.from_int(rng.randrange(p ** 9)).mul_p_power(1)
            expected = ((1 - p) * padic_log(u)).exact_div_p(1)
            assert psi(u) == expected


def test_psi_is_group_homomorphism():
    P = get_params(5, 2, 10)
    rng = random.Random(7)
    for _ in range(30):
        u = random_element(P, rng, unit=True)
        v = random_element(P, rng, unit=True)
        assert psi(u * v) == psi(u) + psi(v)


def test_psi_preconditions():
    P = get_params(5, 1, 8)
    with pytest.raises(NonUnit):
        psi(P.from_int(5))
    with pytest.raises(PrecisionExhausted):
        psi(P.from_int(2, prec=1))
    with pytest.raises(UnsupportedPrime):
        psi(get_params(2, 1, 8).from_int(3))


def test_psi_kernel_is_teichmuller():
    # psi(u) = 0 at the working precision forces u = omega(u mod p): the
    # 1-unit part v = u/omega satisfies phi(v) = v^p, which over Z_q pins
    # v to 1 at the available precision.
    P = get_params(3, 2, 9)
    rng = random.Random(8)
    for _ in range(20):
        z = teichmuller(random_element(P, rng, unit=True).residue())
        assert psi(z) == 0
        v = z * teichmuller(z.residue()).inv()
        assert frobenius(v) == v ** P.p
    for _ in range(20):
        u = random_element(P, rng, unit=True)
        if psi(u) == 0:
            v = u * teichmuller(u.residue()).inv()
            assert frobenius(v) == v ** P.p
            assert u == teichmuller(u.residue())


# ---------------------------------------------------------------------------
# restricted series evaluation

def test_series_first_jet_coordinate():
    P = get_params(5, 1, 8)
    F = RestrictedSeries(order=1, arity=1, terms=(((0, 1), P.one()),))
    u = P.from_int(7)
    assert eval_delta_function(F, [u]) == fermat_quotient(u)


def test_series_order_zero_polynomial():
    P = get_params(5, 1, 8)
    # 3 + 2x + x^2 evaluated plainly
    F = RestrictedSeries(order=0, arity=1, terms=(
        ((0,), P.from_int(3)), ((1,), P.from_int(2)), ((2,), P.one())))
    u = P.from_int(11)
    assert eval_delta_function(F, [u]) == 3 + 2 * 11 + 11 ** 2


def test_series_psi_truncation_matches_psi():
    P = get_params(5, 2, 10)
    F = psi_series_truncation(P, P.N - 1)
    rng = random.Random(9)
    for _ in range(15):
        u = random_element(P, rng, unit=True)
        assert eval_delta_function(F, [u]) == psi(u)


def test_series_validation():
    P = get_params(5, 1, 8)
    with pytest.raises(ArityMismatch):
        RestrictedSeries(order=1, arity=1, terms=(((1,), P.one()),))
    with pytest.raises(DomainError):
        RestrictedSeries(order=0, arity=1, terms=(
            ((1,), P.one()), ((1,), P.from_int(2))))
    with pytest.raises(DomainError):
        # negative exponent without the denominator flag
        RestrictedSeries(order=1, arity=1, terms=(((-1, 1), P.one()),))
    F = RestrictedSeries(order=0, arity=2, terms=(((1, 0), P.one()),))
    with pytest.raises(ArityMismatch):
        eval_delta_function(F, [P.one()])
    Fq = RestrictedSeries(order=1, arity=1, terms=(((-5, 1), P.one()),),
                          denominator=True)
    with pytest.raises(NonUnit):
        eval_delta_function(Fq, [P.from_int(5)])


def test_series_result_precision():
    P = get_params(5, 1, 8)
    F = RestrictedSeries(order=2, arity=1, terms=(((0, 0, 1), P.one()),))
    out = eval_delta_function(F, [P.from_int(3)])
    assert out.prec == 6
    assert out == delta_jet(P.from_int(3), 2)[2]


def test_psi_series_truncation_needs_positive_target():
    P = get_params(5, 1, 10)
    for target in (0, -3):
        with pytest.raises(DomainError):
            psi_series_truncation(P, target)
    assert len(psi_series_truncation(P, 1).terms) == 1


# ---------------------------------------------------------------------------
# the Paterson-Stockmeyer sum and the power tables against the term-by-term loops

ORACLE_RINGS = [(3, 1, 2), (3, 1, 9), (5, 1, 6), (7, 1, 5), (11, 1, 4),
                (3, 2, 3), (5, 2, 8), (7, 2, 6), (11, 2, 3), (3, 4, 12)]


def _same(a, b):
    assert (a.coeffs, a.prec) == (b.coeffs, b.prec)


def test_series_matches_termwise_oracle(monkeypatch):
    rng = random.Random(10)
    for ring in ORACLE_RINGS:
        P = get_params(*ring)
        p = P.p
        for _ in range(8):
            target = rng.randint(2, P.N)
            x = random_element(P, rng, prec=target).mul_p_power(1).mask(target)
            mod = p ** target
            ns = sorted(rng.sample(range(30), rng.randint(2, 6)))
            for terms in ([], [(0, 0, 1)], [(rng.randint(1, 9), 0, rng.randrange(mod))],
                          [(n, rng.randint(0, n), rng.randrange(mod)) for n in ns],
                          [(n, rng.randint(0, n), rng.randrange(mod)) for n in sorted(ns + ns)],
                          delta._psi_coefficients(p, target, mod)):
                table = delta._scaled(p, terms, target)
                _same(delta._series(x, table, target), termwise_series(x, terms, target))
            w = random_element(P, rng, prec=target)
            terms = delta._psi_coefficients(p, target, mod)
            assert delta._psi_terms(p, target) == delta._scaled(p, terms, target)
            _same(delta._series(w, delta._psi_terms(p, target), target),
                  termwise_series(w, terms, target))
            u = random_element(P, rng, prec=target, unit=True)
            new = padic_log(1 + x), padic_exp(x), psi(u)
            # the cached log, exp and psi tables, summed one power at a time
            with monkeypatch.context() as m:
                m.setattr(delta, "_series", termwise_table_series)
                old = padic_log(1 + x), padic_exp(x), psi(u)
            for a, b in zip(new, old):
                _same(a, b)


def test_fused_horner_matches_vec_mul_oracle_at_block_edges():
    # k = isqrt(top + 1): top + 1 a perfect square (top = 0, 3, 8, 15, 24),
    # a short top block (top % k < k - 1) and top < 2, at p = 2, f = 1 and
    # f >= 2; coefficient tables with V = 0 and with V > 0
    rng = random.Random(23)
    for ring in [(2, 1, 9), (2, 3, 7), (3, 1, 8), (3, 6, 12), (5, 2, 9), (7, 3, 5)]:
        P = get_params(*ring)
        p = P.p
        for top in range(27):
            target = rng.randint(2, P.N)
            x = random_element(P, rng, prec=target).mul_p_power(1).mask(target)
            mod = p ** target
            tables = [(0, tuple(rng.randrange(mod) for _ in range(top + 1))),
                      delta._scaled(p, [(n, rng.randint(0, n), rng.randrange(mod))
                                        for n in range(top + 1)], target)]
            for table in tables:
                got = delta._series(x, table, target)
                _same(got, vec_mul_series(x, table, target))
                _same(got, termwise_table_series(x, table, target))


def _random_series(P, rng, order, arity, n_terms):
    seen, terms = set(), []
    while len(terms) < n_terms:
        exps = tuple(rng.randint(-9, 9) if i % (order + 1) == 0 else rng.randint(0, 6)
                     for i in range((order + 1) * arity))
        if exps not in seen:
            seen.add(exps)
            terms.append((exps, random_element(P, rng, prec=rng.randint(1, P.N))))
    return RestrictedSeries(order=order, arity=arity, terms=tuple(terms), denominator=True)


def test_eval_delta_function_matches_termwise_oracle():
    rng = random.Random(11)
    for ring in ORACLE_RINGS:
        P = get_params(*ring)
        cases = [(_random_series(P, rng, 0, 1, rng.randint(0, 1)), 1)]
        if P.p != 2:
            cases.append((psi_series_truncation(P, P.N - 1), 1))
        if P.N >= 3:
            cases += [(_random_series(P, rng, 2, 2, rng.randint(2, 6)), 2) for _ in range(6)]
        for F, arity in cases:
            args = [random_element(P, rng, prec=rng.randint(F.order + 1, P.N), unit=True)
                    for _ in range(arity)]
            _same(eval_delta_function(F, args), termwise_eval_delta_function(F, args))


def _directional_series(P, Q, rng):
    # order 1, arity 2: variables (u, delta u, v, delta v); two or three
    # primitive directions d, the first with a negative exponent on u, each
    # carrying one or more terms g*d whose coefficients are integers of P,
    # integers of the equal but distinct Q, or ring elements; plus a constant
    p, f, N = P.p, P.f, P.N
    dirs = [(-rng.randint(1, 3), 1, rng.randint(0, 2), rng.randint(0, 1))]
    while len(dirs) < rng.randint(2, 3):
        d = tuple(rng.randint(-3, 3) if i % 2 == 0 else rng.randint(0, 2) for i in range(4))
        if gcd(*d) == 1 and d not in dirs:
            dirs.append(d)
    terms = {(0, 0, 0, 0): random_element(P, rng, prec=rng.randint(2, N))}
    for d in dirs:
        for g in rng.sample(range(1, 14), rng.randint(1, 6)):
            prec = rng.randint(2, N)
            kind = rng.randrange(4)
            if kind == 0:
                c = random_element(P, rng, prec=prec)
            else:
                c = (Q if kind == 1 else P).from_coeffs(
                    (rng.randrange(p ** prec),) + (0,) * (f - 1), prec)
            terms[tuple(g * e for e in d)] = c
    items = list(terms.items())
    rng.shuffle(items)
    return RestrictedSeries(order=1, arity=2, terms=tuple(items), denominator=True)


def test_grouped_directions_match_termwise_oracle():
    rng = random.Random(13)
    for ring in ORACLE_RINGS[1:] + [(2, 1, 7), (2, 3, 5)]:
        P = get_params(*ring)
        Q = PadicParams(*ring)
        assert Q == P and Q is not P
        for _ in range(6):
            F = _directional_series(P, Q, rng)
            assert len({gcd(*e) and tuple(x // gcd(*e) for x in e) for e, _ in F.terms}) >= 3
            args = [random_element(P, rng, prec=rng.randint(2, P.N), unit=True)
                    for _ in range(2)]
            _same(eval_delta_function(F, args), termwise_eval_delta_function(F, args))
            # u a non-unit: the negative direction needs its inverse
            args[0] = args[0].mul_p_power(1).mask(args[0].prec)
            with pytest.raises(NonUnit):
                eval_delta_function(F, args)
            with pytest.raises(NonUnit):
                termwise_eval_delta_function(F, args)


def test_series_cost_in_ring_products(ring_products):
    # Deterministic (vec_mul, vec_apply, vec_mul_cols) counts.  The
    # term-by-term loops took 62, 114, 144 and 1,159 vec_mul calls at
    # (3, 6, 60); Paterson-Stockmeyer on schoolbook products took 14, 20, 44,
    # 31 and 6 vec_mul calls there and 11, 13, 39, 30 and 7 at (5, 4, 40).
    # Now a series builds two column tables, of x and of x^k, and applies
    # them for the powers and the Horner steps.  psi summed both its log
    # route and its series route and compared them, (16, 31, 4) at
    # (3, 6, 60) and (17, 25, 4) at (5, 4, 40); it now sums the series
    # alone, and its vec_mul calls are u^p, the inverse of u^p and one
    # product.  That inverse was Newton from the mod-p seed, about 2 log2 N
    # products: psi took (15, 16, 2) at (3, 6, 60) and (16, 13, 2) at
    # (5, 4, 40), and the psi truncation (17, 16, 2) and (19, 13, 2).  It is
    # now the norm chain, one vec_apply and one vec_mul per step over the
    # bits of f-1 and one more of each for the conjugates' product and the
    # norm.  The psi truncation's terms all
    # lie along the direction (-p, 1), so eval_delta_function sums them as
    # one series.  In u*du + du^2 + 3u^2*du each term is its own direction
    # and costs what the per-term products did, jets included.
    for ring, counts in (((3, 6, 60), ((0, 15, 2), (0, 21, 2), (7, 20, 2), (9, 20, 2),
                                       (6, 1, 0))),
                         ((5, 4, 40), ((0, 12, 2), (0, 14, 2), (7, 16, 2), (10, 16, 2),
                                       (7, 1, 0)))):
        P = get_params(*ring)
        rng = random.Random(12)
        u = random_element(P, rng, unit=True)
        x = random_element(P, rng).mul_p_power(1)
        F = psi_series_truncation(P, P.N - 1)
        mixed = RestrictedSeries(order=1, arity=1, terms=(
            ((1, 1), P.from_int(1)), ((0, 2), P.from_int(1)), ((2, 1), P.from_int(3))))
        runs = (lambda: padic_log(1 + x), lambda: padic_exp(x), lambda: psi(u),
                lambda: eval_delta_function(F, [u]), lambda: eval_delta_function(mixed, [u]))
        for run, expected in zip(runs, counts):
            got = ring_products(run)
            assert 0 < got[0] + got[1] and got == expected
