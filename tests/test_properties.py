"""Property tests over random small rings: the closed-form lifts, the laws
the Teichmuller orbit fill relies on, phi as the lift of the p-power map
(also for random moduli) and the delta sum and product laws (p = 2
included), the exp/log and psi laws (p odd), and the integral LLL against
the Fraction LLL oracle on random integer bases."""

import random
from fractions import Fraction
from math import comb

import pytest

from wittcalc import (
    DomainError,
    SingularSeed,
    ZqMatrix,
    enumerate_constants,
    fermat_quotient,
    frobenius,
    lll_reduce,
    new_params,
    padic_exp,
    padic_log,
    psi,
    solve_matrix_linear,
    teichmuller,
    verify_matrix_linear,
)
from wittcalc.conway import is_irreducible_mod_p

from conftest import get_params
from oracles import fraction_lll_reduce, iterated_teichmuller

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

RINGS = st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(2, 7))
ODD_RINGS = st.tuples(st.sampled_from((3, 5, 7, 11)), st.integers(1, 3), st.integers(2, 8))
SETTINGS = hypothesis.settings(max_examples=40, deadline=None)


def _residue(data, P):
    return P.fq(data.draw(st.tuples(*[st.integers(0, P.p - 1)] * P.f)))


def _element(data, P):
    return P.from_coeffs(data.draw(st.tuples(*[st.integers(0, P.p ** P.N - 1)] * P.f)))


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_teichmuller_is_the_multiplicative_root_of_unity_lift(ring, data):
    P = get_params(*ring)
    a, b = _residue(data, P), _residue(data, P)
    w = teichmuller(a)
    assert w ** (P.p ** P.f) == w
    assert w.residue() == a
    assert w.prec == P.N
    assert teichmuller(a * b) == w * teichmuller(b)


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_teichmuller_commutes_with_frobenius_and_sign(ring, data):
    # the laws the orbit fill relies on, checked on the iterated lift
    P = get_params(*ring)
    a = _residue(data, P)
    w = P.from_coeffs(iterated_teichmuller(a))
    assert teichmuller(a) == w
    assert P.from_coeffs(iterated_teichmuller(a ** P.p)) == frobenius(w) == teichmuller(a ** P.p)
    # at p = 2, -a = a but -omega(a) != omega(a), so the fill skips the sign
    assert P.from_coeffs(iterated_teichmuller(-a)) == (w if P.p == 2 else -w) == teichmuller(-a)


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_frobenius_has_order_f(ring, data):
    P = get_params(*ring)
    u = v = _element(data, P)
    for _ in range(P.f):
        v = frobenius(v)
    assert v.coeffs == u.coeffs


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_frobenius_lifts_the_p_power_map(ring, data):
    # over the default modulus and a random irreducible one lifted mod p^N;
    # these laws pin the Frobenius root found by Newton
    p, f, N = ring
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    while True:
        poly = tuple(rng.randrange(p ** N) for _ in range(f)) + (1,)
        if is_irreducible_mod_p(poly, p):
            break
    for P in (get_params(p, f, N), new_params(p, f, N, poly)):
        a, b = _element(data, P), _element(data, P)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a).residue() == (a ** p).residue()
        v = a
        for _ in range(f):
            v = frobenius(v)
        assert v.coeffs == a.coeffs


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_delta_product_and_sum_laws(ring, data):
    P = get_params(*ring)
    p = P.p
    a, b = _element(data, P), _element(data, P)
    da, db = fermat_quotient(a), fermat_quotient(b)
    assert fermat_quotient(a * b) == a ** p * db + b ** p * da + (da * db).mul_p_power(1)
    cross = sum((comb(p, i) // p * a ** i * b ** (p - i) for i in range(1, p)), P.zero())
    assert fermat_quotient(a + b) == da + db - cross


@SETTINGS
@hypothesis.given(RINGS)
def test_constants_are_the_sorted_teichmuller_units(ring):
    P = get_params(*ring)
    consts = enumerate_constants(P)
    residues = [z.residue().coeffs for z in consts]
    assert len(consts) == P.p ** P.f - 1
    assert residues == sorted(set(residues))
    for z in consts:
        assert z.is_unit()
        assert fermat_quotient(z) == 0


@SETTINGS
@hypothesis.given(RINGS, st.integers(1, 3), st.data())
def test_matrix_solution_meets_invariant_and_keeps_seed(ring, n, data):
    P = get_params(*ring)
    beta = ZqMatrix(tuple(tuple(_element(data, P) for _ in range(n)) for _ in range(n)))
    seed = tuple(tuple(_residue(data, P) for _ in range(n)) for _ in range(n))
    try:
        u = solve_matrix_linear(beta, seed)
    except SingularSeed:
        hypothesis.assume(False)
    coupling = ZqMatrix.identity(P, n) + beta.map(lambda e: e.mul_p_power(1).mask(P.N))
    assert coupling @ u.pow_entries_p() == u.frobenius()
    assert verify_matrix_linear(u, beta) == P.N - 1
    assert u.residues() == seed


@SETTINGS
@hypothesis.given(ODD_RINGS, st.data())
def test_exp_inverts_log_on_one_units(ring, data):
    P = get_params(*ring)
    u = 1 + _element(data, P).mul_p_power(1)
    assert padic_exp(padic_log(u)) == u


@SETTINGS
@hypothesis.given(ODD_RINGS, st.data())
def test_psi_is_a_homomorphism(ring, data):
    P = get_params(*ring)
    units = st.tuples(*[st.integers(0, P.p ** P.N - 1)] * P.f).filter(
        lambda c: any(x % P.p for x in c))
    u, v = (P.from_coeffs(data.draw(units)) for _ in range(2))
    assert psi(u * v) == psi(u) + psi(v)


def _rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            r = m[i][col] / m[rank][col]
            m[i] = [x - r * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.integers(1, 8), st.integers(0, 2), st.data())
def test_integral_lll_returns_the_fraction_lll_basis(n, extra, data):
    row = st.lists(st.integers(-30, 30), min_size=n + extra, max_size=n + extra)
    rows = data.draw(st.lists(row, min_size=n, max_size=n))
    for delta in (Fraction(3, 4), Fraction(99, 100)):
        if _rank(rows) < n:
            with pytest.raises(DomainError):
                lll_reduce(rows, delta)
        else:
            assert lll_reduce(rows, delta) == fraction_lll_reduce(rows, delta)
