"""Ring layer: parameters, arithmetic, Frobenius, Teichmuller lifts, digits."""

import hashlib
import itertools
import random

import pytest

from wittcalc import (
    BudgetExceeded,
    DomainError,
    NonUnit,
    NotPrime,
    ParamsMismatch,
    PrecisionExhausted,
    PrecisionTooSmall,
    ReduciblePolynomial,
    TeichmullerDigits,
    ZqMatrix,
    agreement_precision,
    conway_polynomial,
    digits,
    from_digits,
    frobenius,
    frobenius_inv,
    new_params,
    enumerate_constants,
    random_element,
    solve_matrix_linear,
    teichmuller,
)
from wittcalc import conway, polyarith, solvers, zq
from wittcalc.serialize import element_from_obj, element_to_obj

from conftest import get_params
from oracles import (
    euclid_inv_mod_p,
    full_precision_frobenius_root,
    full_scan_conway_polynomial,
    gcd_is_irreducible_mod_p,
    iterated_teichmuller,
    scaled_from_digits,
    trial_division_prime_factors,
)


# ---------------------------------------------------------------------------
# parameters

def test_params_f1_default_poly_is_x():
    P = new_params(5, 1, 8)
    assert P.poly == (0, 1)
    assert P.from_int(7) * P.from_int(18) == 126


def test_params_accepts_explicit_irreducible():
    # x^2 + 2x + 2 has no roots in F_3 (exhaustive check), hence irreducible
    assert all((x * x + 2 * x + 2) % 3 != 0 for x in range(3))
    P = new_params(3, 2, 10, (2, 2, 1))
    assert P.poly == (2, 2, 1)


def test_params_rejects_non_prime():
    with pytest.raises(NotPrime):
        new_params(4, 1, 8)


def test_params_rejects_reducible():
    # x^2 + 2 = (x+1)(x+2) mod 3
    with pytest.raises(ReduciblePolynomial):
        new_params(3, 2, 10, (2, 0, 1))


def test_every_irreducible_modulus_builds_a_ring():
    # F_p is perfect, so an irreducible m is separable (gcd(m, m') = 1 mod p):
    # no irreducible monic modulus is refused, and phi has order exactly f
    built = 0
    for p, f in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)):
        for low in itertools.product(range(p), repeat=f):
            poly = low + (1,)
            if not conway.is_irreducible_mod_p(poly, p):
                continue
            # m'(g) is a unit mod (m, p); vec_inv raises NonUnit otherwise
            deriv = tuple(i * c for i, c in enumerate(poly))[1:]
            x = (0, 1) + (0,) * (f - 2)
            polyarith.vec_inv(polyarith.vec_eval_int_poly(deriv, x, poly, p), poly, p, 1)
            g = new_params(p, f, 6, poly).gen()
            orbit = [g]
            for _ in range(f):
                orbit.append(frobenius(orbit[-1]))
            assert orbit[f] == g and g not in orbit[1:f]
            built += 1
    # the counts of irreducible monic polynomials of degree f over F_p
    assert built == 1 + 2 + 3 + 6 + 3 + 8 + 18 + 10 + 40 + 21


def test_irreducibility_matches_gcd_oracle():
    # Rabin's test through vec_pow and vec_inv against gcds on int lists,
    # on every monic polynomial of degree >= 2 in these (p, f) ranges
    seen = 0
    for p, top in ((2, 8), (3, 6), (5, 4), (7, 3), (11, 3)):
        for f in range(2, top + 1):
            for low in itertools.product(range(p), repeat=f):
                poly = low + (1,)
                assert conway.is_irreducible_mod_p(poly, p) == gcd_is_irreducible_mod_p(poly, p)
                seen += 1
    assert seen == 4216


def test_vec_inv_matches_euclid_oracle():
    # Seeds from one cofactor against seeds from both, on random moduli
    # (mostly reducible), products with one of their factors, multiples of
    # p, and p = 10^9+7; the inverse mod p^K is checked by multiplying back.
    rng = random.Random(23)
    kinds = {"unit": 0, "zero mod p": 0, "shares a factor": 0}
    for _ in range(4000):
        p = rng.choice((2, 3, 5, 7, 1000000007))
        f, K = rng.randint(2, 6 if p < 10 else 3), rng.randint(1, 8)
        mod = p ** K
        g = [rng.randrange(mod) for _ in range(rng.randint(1, f - 1))] + [1]
        h = [rng.randrange(mod) for _ in range(f + 1 - len(g))] + [1]
        poly = [0] * (f + 1)
        for i, x in enumerate(g):
            for j, y in enumerate(h):
                poly[i + j] = (poly[i + j] + x * y) % mod
        a = tuple(rng.randrange(mod) for _ in range(f))
        choice = rng.randrange(4)
        if choice == 0:
            a = polyarith.vec_scale(a, p, mod)
        elif choice == 1:
            a = polyarith.vec_mul(a, tuple(g) + (0,) * (f - len(g)), poly, mod)
        try:
            seed = euclid_inv_mod_p(a, poly, p)
        except NonUnit:
            with pytest.raises(NonUnit):
                polyarith.vec_inv(a, poly, p, K)
            kinds["zero mod p" if not any(x % p for x in a) else "shares a factor"] += 1
            continue
        inv = polyarith.vec_inv(a, poly, p, K)
        assert polyarith.vec_mask(inv, p) == seed
        assert polyarith.vec_mul(a, inv, poly, mod) == polyarith.vec_one(f)
        kinds["unit"] += 1
    assert min(kinds.values()) > 500, kinds


def test_vec_inv_under_a_reducible_modulus():
    # over F_3, x^2 + 2 = (x + 1)(x + 2): x + 1 is a zero divisor though
    # nonzero mod 3, and x, with x^2 = 1, is its own inverse mod 3
    poly = (2, 0, 1)
    with pytest.raises(NonUnit):
        polyarith.vec_inv((1, 1), poly, 3, 5)
    assert polyarith.vec_inv((0, 1), poly, 3, 1) == (0, 1)
    inv = polyarith.vec_inv((0, 1), poly, 3, 5)
    assert polyarith.vec_mul((0, 1), inv, poly, 3 ** 5) == (1, 0)


def test_params_rejects_tiny_precision():
    with pytest.raises(PrecisionTooSmall):
        new_params(3, 1, 1)


def test_conway_table_spot_checks():
    assert conway_polynomial(3, 2) == (2, 2, 1)
    assert conway_polynomial(3, 1) == (1, 1)
    assert conway_polynomial(5, 1) == (3, 1)
    assert conway_polynomial(7, 1) == (4, 1)
    assert conway_polynomial(2, 1) == (1, 1)
    assert conway_polynomial(2, 2) == (1, 1, 1)
    assert conway_polynomial(2, 3) == (1, 1, 0, 1)
    # norm compatibility: (-1)^f * constant term is a primitive root mod p
    for p, f in [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)]:
        poly = conway_polynomial(p, f)
        g = (-1) ** f * poly[0] % p
        assert pow(g, (p - 1), p) == 1
        ells = [ell for ell in range(2, p) if (p - 1) % ell == 0]
        assert all(pow(g, (p - 1) // ell, p) != 1 for ell in ells if ell > 1)


# Every p = 2 field up to 2^8, fields with f prime (2,7), (3,5), (5,3), and
# composite f with one and with two proper subfields: (3,6), (5,4), (7,6).
CONWAY_FIELDS = [(2, f) for f in range(2, 9)] + [
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4),
    (7, 2), (7, 3), (7, 4), (7, 6), (11, 2), (13, 3), (101, 2)]


def test_conway_matches_full_scan_oracle():
    for p, f in CONWAY_FIELDS:
        conway.conway_polynomial.cache_clear()
        assert conway_polynomial(p, f) == full_scan_conway_polynomial(p, f), (p, f)


def test_conway_search_cost_in_powmods(monkeypatch):
    # Deterministic vec_pow and vec_mul counts for a cold C_{7,6}, subfields
    # included; the scan over all p^f words took 6,137 powerings.
    calls = {"vec_pow": [], "vec_mul": []}
    for mod, name in ((conway, "vec_pow"), (polyarith, "vec_mul")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, c=calls[name], fn=fn: c.append(1) or fn(*a))
    conway.conway_polynomial.cache_clear()
    assert conway_polynomial(7, 6) == (3, 6, 4, 5, 1, 0, 1)
    assert len(calls["vec_pow"]) <= 908
    assert len(calls["vec_mul"]) <= 16_606


def test_conway_search_is_bounded(monkeypatch):
    # C_{7,6} is word 470 among those with norm 3; C_{7,2} and C_{7,3} are
    # words 1 and 7, so only the degree-6 scan runs out.
    monkeypatch.setattr(conway, "MAX_WORDS", 100)
    conway.conway_polynomial.cache_clear()
    with pytest.raises(BudgetExceeded, match="100 words"):
        conway_polynomial(7, 6)
    assert conway_polynomial(7, 3) == (4, 0, 6, 1)
    monkeypatch.setattr(conway, "MAX_WORDS", 471)
    assert conway_polynomial(7, 6) == (3, 6, 4, 5, 1, 0, 1)


def test_conway_search_at_large_p():
    # The words are enumerated lazily and b_0 is fixed to the norm, so the
    # scan stops at b_1 = 3 instead of materialising range(p).
    p = 1000000007
    m = new_params(p, 2, 4).poly
    assert m == (5, p - 3, 1)
    ells = sorted(set(trial_division_prime_factors(p - 1) + trial_division_prime_factors(p + 1)))
    q1 = p * p - 1

    def primitive(m):
        x = (0, 1)
        return (polyarith.vec_pow(x, q1, m, p) == (1, 0)
                and all(polyarith.vec_pow(x, q1 // ell, m, p) != (1, 0) for ell in ells))

    assert pow(m[1] ** 2 - 4 * m[0], (p - 1) // 2, p) == p - 1  # irreducible
    assert primitive(m)
    # the norm is the smallest primitive root mod p
    assert [g for g in range(2, 6)
            if all(pow(g, (p - 1) // ell, p) != 1 for ell in trial_division_prime_factors(p - 1))
            ] == [5]
    for b1 in range(3):
        assert not primitive([5, (-b1) % p, 1])


def test_prime_factors_match_trial_division():
    rng = random.Random(6)
    ns = list(range(1, 3000))
    ns += [rng.randrange(3000, 10 ** 9) for _ in range(300)]
    ns += [41 * 43, 1009 ** 3, 2 ** 30, 3 ** 5 * 7919 ** 2, 30011 * 30013, 46337 ** 2]
    for n in ns:
        assert conway.prime_factors(n) == trial_division_prime_factors(n), n


def test_prime_factors_of_a_large_q_minus_one():
    # (10^9+7)^3 - 1 is about 1e27; trial division needs ~1e13 steps.
    n = (10 ** 9 + 7) ** 3 - 1
    ells = conway.prime_factors(n)
    assert ells == [2, 6067, 500000003, 164826110927971]
    for ell in ells:
        while n % ell == 0:
            n //= ell
    assert n == 1


# ---------------------------------------------------------------------------
# arithmetic and precision rules

def test_inverse_against_extended_euclid():
    P = get_params(3, 1, 4)
    # oracle: pow(2, -1, 81) is the extended-Euclid inverse
    assert pow(2, -1, 81) == 41
    assert P.from_int(2).inv() == 41
    assert P.from_int(2) * P.from_int(41) == 1


def test_precision_propagation_min_rule():
    P = get_params(5, 1, 8)
    u = P.from_int(12, prec=3)
    v = P.from_int(99, prec=5)
    assert (u + v).prec == 3
    assert (u * v).prec == 3
    assert (u - v).prec == 3
    assert u.inv().prec == 3


def test_mixed_precision_equality_small_modulus():
    P = get_params(5, 1, 8)
    a = P.from_int(7, prec=3)
    b = P.from_int(7 + 5 ** 3, prec=5)
    assert a == b  # congruent mod 5^3
    assert agreement_precision(a, b) == 3
    assert P.from_int(7, prec=5) != b


def test_ring_laws_randomized():
    rng = random.Random(0)
    for p, f in [(3, 1), (5, 2), (7, 3)]:
        P = get_params(p, f, 8)
        for _ in range(25):
            u, v, t = (random_element(P, rng) for _ in range(3))
            assert (u + v) + t == u + (v + t)
            assert u * (v + t) == u * v + u * t
            assert u * v == v * u
            assert (u * v) * t == u * (v * t)
            assert u - u == 0


def test_unit_inverse_and_nonunit_rejection():
    P = get_params(5, 2, 8)
    rng = random.Random(1)
    for _ in range(20):
        u = random_element(P, rng, unit=True)
        assert u * u.inv() == 1
    with pytest.raises(NonUnit):
        P.from_int(5).inv()


def test_params_mismatch_rejected():
    u = get_params(3, 1, 6).from_int(1)
    v = get_params(5, 1, 6).from_int(1)
    with pytest.raises(ParamsMismatch):
        u + v


def test_valuation():
    P = get_params(3, 1, 8)
    assert P.from_int(9).valuation() == 2
    assert P.from_int(5).valuation() == 0
    # 0 at precision 4 only says v >= 4, and reads its precision
    zero = P.from_int(3 ** 4, prec=4)
    assert zero.is_zero() and zero.valuation() == 4
    assert P.from_int(3 ** 4).valuation() == 4


def test_exact_div_p_requires_divisibility():
    P = get_params(3, 1, 8)
    assert P.from_int(18).exact_div_p() == 6
    with pytest.raises(ArithmeticError):
        P.from_int(5).exact_div_p()
    with pytest.raises(PrecisionExhausted):
        P.from_int(3, prec=1).exact_div_p()


# ---------------------------------------------------------------------------
# Frobenius

def test_frobenius_fixes_prime_subring():
    P = get_params(5, 1, 8)
    assert frobenius(P.from_int(7)) == 7


def test_frobenius_reduces_to_p_power_map():
    rng = random.Random(2)
    for p, f in [(3, 2), (5, 2), (7, 3)]:
        P = get_params(p, f, 8)
        for _ in range(25):
            u = random_element(P, rng)
            assert agreement_precision(frobenius(u), u ** p) >= 1


def test_frobenius_is_ring_homomorphism():
    P = get_params(5, 3, 10)
    rng = random.Random(3)
    for _ in range(25):
        u, v = random_element(P, rng), random_element(P, rng)
        assert frobenius(u + v) == frobenius(u) + frobenius(v)
        assert frobenius(u * v) == frobenius(u) * frobenius(v)


def test_frobenius_order_and_inverse():
    rng = random.Random(4)
    for p, f in [(3, 1), (3, 2), (5, 3)]:
        P = get_params(p, f, 8)
        for _ in range(10):
            u = random_element(P, rng)
            t = u
            for _ in range(f):
                t = frobenius(t)
            assert t == u
            assert frobenius_inv(frobenius(u)) == u


def test_frobenius_vieta_on_conway_quadratic():
    # g and phi(g) are the two roots of the lifted x^2 + 2x + 2, so their
    # sum and product are read off the coefficients exactly.
    P = get_params(3, 2, 12, (2, 2, 1))
    g = P.gen()
    assert g + frobenius(g) == -2
    assert g * frobenius(g) == 2


def test_frobenius_root_matches_full_precision_oracle():
    # Newton at doubling precision with an updated inverse, built uncached,
    # against Newton at p^N with a fresh inverse each pass; default moduli, a
    # non-Conway one, N = 2, and random irreducible moduli with coefficients
    # lifted mod p^N.  The cached tables are the uncached ones.
    rng = random.Random(19)
    rings = [new_params(p, f, N) for p, f, N in
             [(2, 2, 2), (2, 3, 7), (2, 8, 30), (3, 2, 2), (3, 6, 60), (5, 4, 40),
              (7, 3, 20), (13, 2, 9), (101, 2, 5)]]
    rings.append(new_params(3, 2, 6, (1, 0, 1)))
    while len(rings) < 40:
        p, f, N = rng.choice((2, 3, 5, 7)), rng.randint(2, 5), rng.randint(2, 17)
        poly = tuple(rng.randrange(p ** N) for _ in range(f)) + (1,)
        if conway.is_irreducible_mod_p(poly, p):
            rings.append(new_params(p, f, N, poly))
    for P in rings:
        y = full_precision_frobenius_root(P)
        built = zq._ring_structure.__wrapped__(P.p, P.f, P.N, P.poly, False)
        assert built == (P.poly, P._phi_cols, P._phi_inv_cols)
        assert tuple(col[1] for col in built[1]) == y
        assert frobenius(P.gen()).coeffs == y


def test_equal_rings_share_frobenius_tables():
    # polys that differ by multiples of p^N are one ring: one set of tables
    zq._ring_structure.cache_clear()
    m = (2, 2, 1)
    P = new_params(3, 2, 10, m)
    Q = new_params(3, 2, 10, (2 + 3 ** 10, 2 - 5 * 3 ** 10, 1 + 3 ** 10))
    assert P == Q and P is not Q and Q.poly == m
    assert Q._phi_cols is P._phi_cols and Q._phi_inv_cols is P._phi_inv_cols
    # as do default rings, a ring given the default modulus and one read from JSON
    D = new_params(5, 3, 8)
    for E in (new_params(5, 3, 8), new_params(5, 3, 8, conway_polynomial(5, 3)),
              element_from_obj(element_to_obj(D.gen())).params):
        assert E == D and E._phi_cols is D._phi_cols and E._phi_inv_cols is D._phi_inv_cols
    # a ring that differs only in N gets its own tables, right at its N
    R = new_params(3, 2, 12, m)
    assert R._phi_cols is not P._phi_cols
    assert tuple(col[1] for col in R._phi_cols) == full_precision_frobenius_root(R)
    assert all(x % 3 ** 10 == y for cr, cp in zip(R._phi_cols, P._phi_cols)
               for x, y in zip(cr, cp))
    # a reducible modulus, x^2 + 2 = (x - 1)(x + 1) mod 3, or one of the
    # wrong degree, is refused on every call: refusals are not cached
    for _ in range(2):
        for bad in ((2, 0, 1), (2 + 3 ** 10, 0, 1), (2, 2, 1, 0)):
            with pytest.raises(ReduciblePolynomial):
                new_params(3, 2, 10, bad)
    # every ring starts with its own empty Teichmuller table
    rings = [P, Q, R, new_params(3, 2, 10, m)]
    teichmuller(P.gen())
    assert len(P._teich) == 9
    for i, A in enumerate(rings[1:], 1):
        assert A._teich == {} and all(A._teich is not B._teich for B in rings[:i])


# ---------------------------------------------------------------------------
# Teichmuller lifts

def test_teichmuller_anchor_omega2_mod_25():
    # oracle: iterate x -> x^5 mod 25 from 2: 32 = 7, then 7^5 = 7 (stable)
    x = 2
    for _ in range(2):
        x = pow(x, 5, 25)
    assert x == 7
    P = get_params(5, 1, 2)
    assert teichmuller(P.fq_from_int(2)) == 7


def test_teichmuller_of_minus_one_and_one():
    for p in (3, 5, 7):
        P = get_params(p, 1, 10)
        assert teichmuller(P.fq_from_int(1)) == 1
        assert teichmuller(P.fq_from_int(-1)) == -1
        assert teichmuller(P.fq_from_int(0)) == 0


def test_teichmuller_root_of_unity_and_multiplicative():
    rng = random.Random(5)
    for p, f in [(3, 2), (5, 2), (7, 1)]:
        P = get_params(p, f, 10)
        q = p ** f
        for _ in range(15):
            a = random_element(P, rng, unit=True).residue()
            b = random_element(P, rng, unit=True).residue()
            assert teichmuller(a) ** (q - 1) == 1
            assert teichmuller(a * b) == teichmuller(a) * teichmuller(b)


def test_teichmuller_matches_iterated_oracle():
    # the table against x -> x^q iterated until fixed, on every residue; the
    # residues are asked for in shuffled orders on fresh rings, so each entry
    # is met as a power, as a Frobenius image or as a negation; x^2+1 over
    # F_3 is a modulus whose root is not primitive
    for p, f, N, poly in [(2, 1, 7, None), (2, 3, 6, None), (2, 4, 9, None),
                          (3, 1, 9, None), (3, 2, 6, (1, 0, 1)), (3, 6, 12, None),
                          (5, 2, 7, None), (7, 3, 5, None), (11, 1, 4, None)]:
        P = new_params(p, f, N, poly)
        oracle = {c: iterated_teichmuller(P.fq(c)) for c in itertools.product(range(p), repeat=f)}
        for seed in range(3):
            order = sorted(oracle)
            random.Random(seed).shuffle(order)
            P = new_params(p, f, N, poly)
            for c in order:
                assert teichmuller(P.fq(c)).coeffs == oracle[c]
                assert teichmuller(P.fq(c), 2).coeffs == tuple(x % p ** 2 for x in oracle[c])
            assert len(P._teich) == p ** f


def test_teichmuller_tables_and_constants_are_pinned():
    # one digest over the full tables, asked for in residue order, and the
    # constants of fresh rings, on the rings above: it reads the same as
    # with one lift per orbit for every table and sorted powers for the
    # constants
    h = hashlib.sha256()
    for p, f, N, poly in [(2, 1, 7, None), (2, 3, 6, None), (2, 4, 9, None),
                          (3, 1, 9, None), (3, 2, 6, (1, 0, 1)), (3, 6, 12, None),
                          (5, 2, 7, None), (7, 3, 5, None), (11, 1, 4, None)]:
        P = new_params(p, f, N, poly)
        table = [teichmuller(P.fq(c)).coeffs for c in itertools.product(range(p), repeat=f)]
        consts = [z.coeffs for z in enumerate_constants(new_params(p, f, N, poly))]
        h.update(repr((p, f, N, poly, table, consts)).encode())
    assert h.hexdigest() == "f4e23603e75e94a15d7da1236506061ba7cf11e5921b5c1b14181bfb068df69c"


def test_cold_teichmuller_call_fills_by_the_crossover_rule():
    # a cold call fills the whole table when q - 1 <= 4 N^2 and the orbit of
    # its residue otherwise; both ways give the same table
    for (p, f), (below, above) in {(2, 6): (4, 3), (3, 4): (5, 4), (5, 2): (3, 2),
                                   (37, 1): (3, 2)}.items():
        assert p ** f - 1 <= 4 * below ** 2 and p ** f - 1 > 4 * above ** 2
        P = new_params(p, f, below)
        teichmuller(P.fq((1,) * f))
        assert len(P._teich) == p ** f
        P = new_params(p, f, above)
        teichmuller(P.fq((1,) * f))
        assert 1 <= len(P._teich) <= 2 * f
        orbits = {c: teichmuller(P.fq(c)).coeffs for c in itertools.product(range(p), repeat=f)}
        assert zq.teichmuller_table(new_params(p, f, above)) == orbits


def test_teichmuller_reads_the_residue_of_raw_coefficients():
    # on both sides of the fill rule a coefficient tuple above p is read by
    # its residue, and the table stays keyed by residues in [0, p)
    for p, f, N, raw in ((5, 2, 6, (7, 3)), (101, 2, 4, (104, 3))):
        P = new_params(p, f, N)
        assert teichmuller(P.from_coeffs(raw)) == teichmuller(P.fq(raw))
        assert all(0 <= x < p for key in P._teich for x in key)
    # the orbit-filled ring still reads as full once its table is filled
    assert len(zq.teichmuller_table(P)) == p ** f


def test_frobenius_lift_checks_refuse_a_short_lift(monkeypatch):
    # a lift one digit short must be caught by the check of the Teichmuller
    # table, whole or by orbits, and by the matrix solver's full-precision
    # check; nothing is entered in the table
    lift = zq._frobenius_lift

    def short(params, table, u, W):
        return [[tuple(x % params.p ** (W - 1) for x in e) for e in row]
                for row in lift(params, table, u, W)]

    monkeypatch.setattr(zq, "_frobenius_lift", short)
    monkeypatch.setattr(solvers, "_frobenius_lift", short)
    for p, f, N in ((2, 3, 6), (3, 1, 5), (5, 2, 4), (3, 4, 4)):
        P = new_params(p, f, N)
        with pytest.raises(ArithmeticError):
            teichmuller(P.fq((p - 1,) if f == 1 else (0, 1) + (0,) * (f - 2)))
        assert P._teich == {}
        with pytest.raises(ArithmeticError):
            enumerate_constants(P)
        assert P._teich == {}
        beta = ZqMatrix(((P.from_int(p + 1), P.one()), (P.zero(), P.from_int(2))))
        with pytest.raises(ArithmeticError):
            solve_matrix_linear(beta)


def test_teichmuller_table_cost_in_powers(ring_products):
    # Exact (vec_mul, vec_apply, vec_mul_cols) counts and vec_pow moduli.
    # With the power x^(q^m), m = ceil((N-1)/f), per orbit the full tables
    # below took (10200, 365, 0), (12528, 313, 0) and (1152, 256, 0), and 68,
    # 87 and 36 vec_pow calls; with one Taylor-block lift per orbit
    # (544, 8457, 408), (1305, 7186, 522) and (36, 2380, 180), and 476, 609
    # and 216 vec_pow calls.  Now, below the crossover, the first cold call
    # fills the whole table: the generator search's powers mod p, one lift
    # of omega(gamma), its blocks ending at p^2, p^4, ..., p^N, the check
    # phi(omega) = omega^p one p-th power mod p^N, and the powers of omega
    # one vec_apply each.  While the lift's passes were vec_apply calls
    # these took (35, 481, 7), (132, 389, 7) and (24, 312, 6); with each
    # block one vec_lift_block call, (35, 363, 7), (132, 311, 7) and
    # (24, 254, 6).  Now the powers of omega are one vec_power_table walk,
    # which applies the columns of omega inside its kernel, and (35, 1, 7),
    # (132, 1, 7) and (24, 1, 6) remain: the check's Frobenius is the one
    # vec_apply call.
    runs = {(3, 6, 60): ((35, 1, 7), 3, (2, 4, 8, 16, 32, 60)),
            (5, 4, 40): ((132, 1, 7), 12, (2, 4, 8, 16, 32, 40)),
            (2, 8, 30): ((24, 1, 6), 3, (2, 4, 8, 16, 30))}
    for (p, f, N), (counts, search, tops) in runs.items():
        P = new_params(p, f, N)
        a = P.fq((1,) * f)
        assert ring_products(lambda: teichmuller(a)) == counts
        assert ring_products.calls["vec_pow"] == [p] * search + [p ** k for k in tops + (N,)]
        assert ring_products.calls["vec_lift_block"] == [p ** k for k in tops]
        assert ring_products.calls["vec_power_table"] == [p ** N]
        assert len(P._teich) == p ** f
        full = ring_products(lambda: [teichmuller(P.fq(c))
                                      for c in itertools.product(range(p), repeat=f)])
        assert full == (0, 0, 0) and ring_products.calls["vec_pow"] == []
    # Above it, a cold call makes one lift and fills at most its orbit, 2f
    # entries, and the Frobenius image and the negation are then hits.  These
    # took (7, 47, 5), (49, 41, 5) and (1, 51, 5) while the passes were
    # vec_apply calls; the orbit fill's Frobenius images remain.
    runs = {(3, 8, 20): (7, 9, 5), (101, 2, 20): (49, 3, 5), (2, 12, 20): (1, 13, 5)}
    for (p, f, N), counts in runs.items():
        P = new_params(p, f, N)
        a = P.fq((1,) * f)
        ap = a ** p
        assert ring_products(lambda: teichmuller(a)) == counts
        assert ring_products.calls["vec_pow"] == [p ** k for k in (2, 4, 8, 16, 20, 20)]
        assert ring_products.calls["vec_lift_block"] == [p ** k for k in (2, 4, 8, 16, 20)]
        assert ring_products.calls["vec_power_table"] == []
        assert 1 <= len(P._teich) <= 2 * f
        w = teichmuller(a)
        hits = ring_products(lambda: (teichmuller(ap), teichmuller(-a)))
        assert hits == (0, 0, 0) and ring_products.calls["vec_pow"] == []
        assert teichmuller(ap) == frobenius(w)
        assert teichmuller(-a) == (w if p == 2 else -w)


# ---------------------------------------------------------------------------
# digits

def test_digits_of_p_and_minus_one():
    P = get_params(5, 1, 6)
    d = digits(P.from_int(5))
    assert [c.coeffs for c in d.digits] == [(0,), (1,)] + [(0,)] * 4
    d = digits(P.from_int(-1))
    # omega(-1) = -1, so the expansion terminates after one digit
    assert d.digits[0].coeffs == (4,)
    assert all(c.coeffs == (0,) for c in d.digits[1:])


def test_digits_round_trip_and_unit_detection():
    rng = random.Random(6)
    P = get_params(3, 2, 9)
    for _ in range(25):
        u = random_element(P, rng)
        d = digits(u)
        assert len(d.digits) == u.prec
        assert from_digits(d) == u
        assert u.is_unit() == (not d.digits[0].is_zero())


def test_digit_frobenius_identity():
    rng = random.Random(7)
    P = get_params(5, 2, 12)
    for _ in range(25):
        u = random_element(P, rng)
        assert from_digits(digits(u).frobenius()) == frobenius(u)


def test_from_digits_refuses_digits_from_another_residue_field():
    # digits of Z_49 once evaluated in Z_25 as Zq(8 + 9*g + O(5^2))
    P, Q = new_params(5, 2, 6), new_params(7, 2, 6)
    with pytest.raises(ParamsMismatch):
        from_digits(TeichmullerDigits(P, (Q.fq((3, 1)), Q.fq((2, 5)))))
    # another f, and another modulus mod p (x^2 + 2, not the Conway x^2 + 4x + 2)
    for R in (new_params(5, 3, 6), new_params(5, 2, 6, (2, 0, 1))):
        c = R.fq((1,) + (0,) * (R.f - 2) + (1,))
        with pytest.raises(ParamsMismatch):
            from_digits(TeichmullerDigits(P, (P.fq((1, 0)), c)))
    # the same field at another N, or by a modulus equal mod p, is taken over
    for R, S in ((new_params(5, 2, 9), P),
                 (new_params(5, 2, 4, (7, 5, 1)), new_params(5, 2, 6, (2, 0, 1)))):
        own = digits(random_element(S, random.Random(25)))
        moved = TeichmullerDigits(S, tuple(R.fq(c.coeffs) for c in own))
        assert from_digits(moved).coeffs == from_digits(own).coeffs


def test_from_digits_compiles_kernels_of_bounded_width(monkeypatch):
    # one kernel as wide as the precision took 52 ms and 12.3 MB to compile
    # at precision 1,000; the blocks keep every width at most DIGIT_BLOCK + 1
    P = new_params(3, 2, 300)
    zq.teichmuller_table(P)
    monkeypatch.setattr(polyarith, "_apply", polyarith._Kernels(polyarith._apply_source))
    rng = random.Random(26)
    for prec in range(2, 301):
        d = TeichmullerDigits(P, tuple(P.fq((rng.randrange(3), rng.randrange(3)))
                                       for _ in range(prec)))
        assert from_digits(d) == scaled_from_digits(d)
    widths = sorted(w for w, _ in polyarith._apply)
    assert widths == list(range(1, zq.DIGIT_BLOCK + 2))


def test_p2_ring_layer_is_available():
    # exp/log/psi reject p = 2, but the ring, phi, and digits all work there
    P = get_params(2, 2, 8)
    rng = random.Random(20)
    for _ in range(15):
        u = random_element(P, rng)
        assert frobenius(frobenius(u)) == u
        assert from_digits(digits(u)) == u
        assert from_digits(digits(u).frobenius()) == frobenius(u)


# ---------------------------------------------------------------------------
# serialization

def test_element_serialization_round_trip():
    rng = random.Random(8)
    P = get_params(7, 2, 9)
    for _ in range(10):
        u = random_element(P, rng, prec=rng.randint(1, 9))
        obj = element_to_obj(u)
        assert obj["coeffs"] == [str(c) for c in u.coeffs]
        v = element_from_obj(obj, P)
        assert v == u and v.prec == u.prec
        w = element_from_obj(obj)  # standalone params rebuilt from the object
        assert w.coeffs == u.coeffs
