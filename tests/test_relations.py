"""Integer relation probe: both search modes, certificates, and the LLL core."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from wittcalc import (
    BudgetExceeded,
    DomainError,
    MixedParams,
    RelationQuery,
    find_relation,
    lll_reduce,
    minimal_polynomial,
    psi,
    random_element,
    solve_exponential,
    teichmuller,
    verify_relation,
)
from wittcalc import relations
from wittcalc.serialize import relation_certificate_from_obj, relation_certificate_to_obj

from conftest import get_params
from oracles import candidate_find_relation, fraction_lll_reduce


def test_integer_value_yields_linear_relation():
    P = get_params(3, 1, 30)
    for mode in ("exhaustive", "lattice"):
        cert = find_relation(RelationQuery(
            values=(P.from_int(7),), deg_bound=2, height_bound=10, mode=mode))
        assert cert.monomials == ((0,), (1,))
        assert cert.coeffs == (7, -1)
        assert verify_relation(cert, [P.from_int(7)], 30)


def test_eighth_root_of_unity_quartic():
    P = get_params(3, 2, 20)
    gbar = P.gen().residue()
    # oracle: the class of x generates F_9^* (order exactly 8)
    assert gbar ** 8 == P.fq_from_int(1)
    assert all(gbar ** k != P.fq_from_int(1) for k in range(1, 8))
    w = teichmuller(gbar)
    assert w ** 4 == -1
    for mode in ("exhaustive", "lattice"):
        cert = find_relation(RelationQuery(
            values=(w,), deg_bound=4, height_bound=1, mode=mode))
        assert cert.monomials == ((0,), (4,))
        assert cert.coeffs == (1, 1)
        assert verify_relation(cert, [w], 20)


def test_minimal_polynomial_picks_lowest_degree():
    # omega(2) in Z_5 is a primitive 4th root of unity: its minimal integer
    # relation is x^2 + 1, a divisor of x^4 - 1 (2 has order 4 mod 5)
    assert [pow(2, k, 5) for k in range(1, 5)] == [2, 4, 3, 1]
    P = get_params(5, 1, 20)
    w = teichmuller(P.fq_from_int(2))
    for mode in ("exhaustive", "lattice"):
        cert = minimal_polynomial(w, 4, 1, mode=mode)
        assert cert.monomials == ((0,), (2,))
        assert cert.coeffs == (1, 1)
    assert minimal_polynomial(teichmuller(P.fq_from_int(-1)), 4, 1).coeffs == (1, 1)
    assert minimal_polynomial(teichmuller(P.fq_from_int(-1)), 4, 1).monomials == ((0,), (1,))


def _poly_divides(d_coeffs, n_coeffs):
    """Exact division test for integer polynomials given as dense coeff lists."""
    num = list(n_coeffs)
    deg_d = len(d_coeffs) - 1
    while len(num) - 1 >= deg_d:
        if num[-1] % d_coeffs[-1]:
            return False
        q = num[-1] // d_coeffs[-1]
        off = len(num) - 1 - deg_d
        for i, c in enumerate(d_coeffs):
            num[off + i] -= q * c
        assert num[-1] == 0
        num.pop()
    return not any(num)


def test_teichmuller_minimal_polynomials_divide_cyclotomic_bound():
    P = get_params(3, 2, 20)
    q = 9
    for a in range(1, q):
        res = P.fq((a % 3, a // 3))
        if res.is_zero():
            continue
        cert = minimal_polynomial(teichmuller(res), q - 1, 1)
        assert cert is not None
        dense = [0] * (cert.degree + 1)
        for e, c in zip(cert.monomials, cert.coeffs):
            dense[e[0]] = c
        xq1 = [-1] + [0] * (q - 2) + [1]
        assert _poly_divides(dense, xq1)


def test_random_units_return_none():
    P = get_params(3, 1, 40)
    rng = random.Random(0)
    for mode in ("exhaustive", "lattice"):
        for _ in range(10):
            u = random_element(P, rng, unit=True)
            assert find_relation(RelationQuery(
                values=(u,), deg_bound=2, height_bound=10, mode=mode)) is None


def test_certificate_soundness_and_monotonicity():
    P = get_params(3, 2, 20)
    w = teichmuller(P.gen().residue())
    cert = find_relation(RelationQuery(
        values=(w,), deg_bound=4, height_bound=1, mode="lattice"))
    assert cert.verified_precision >= 20
    for k in range(1, 21):
        assert verify_relation(cert, [w], k)
    obj = relation_certificate_to_obj(cert)
    back = relation_certificate_from_obj(obj)
    assert back == cert


def test_exhaustive_and_lattice_agree_on_shared_budget():
    rng = random.Random(1)
    P = get_params(5, 1, 30)
    queries = []
    # planted: Teichmuller units (cyclotomic relations at height 1)
    for _ in range(6):
        a = rng.randrange(1, 5)
        queries.append(((teichmuller(P.fq_from_int(a)),), 4, 3))
    # planted: small integers and their negatives
    for _ in range(6):
        queries.append(((P.from_int(rng.randrange(-3, 4)),), 2, 3))
    # planted multivariate: (u, u^2) satisfies x2 - x1^2
    for _ in range(6):
        u = random_element(P, rng, unit=True)
        queries.append(((u, u * u), 2, 2))
    # random: no relation expected
    for _ in range(12):
        queries.append(((random_element(P, rng, unit=True),), 2, 3))
    for values, d, H in queries:
        got = {}
        for mode in ("exhaustive", "lattice"):
            got[mode] = find_relation(RelationQuery(
                values=values, deg_bound=d, height_bound=H, mode=mode))
        if got["exhaustive"] is None:
            assert got["lattice"] is None
        else:
            assert got["lattice"] is not None
            assert got["lattice"].monomials == got["exhaustive"].monomials
            assert got["lattice"].coeffs == got["exhaustive"].coeffs
            for cert in got.values():
                assert verify_relation(cert, list(values), cert.verified_precision)


def test_pipeline_matches_per_mode_candidate_oracle():
    # one power list and one candidate filter give the certificates, or the
    # None, of an evaluation loop per use and a filter per mode
    rng = random.Random(10)
    queries = []
    # low precision keeps the oracle's Fraction LLL of dimension 7 and 8 cheap
    for P, H in ((get_params(5, 1, 10), 2), (get_params(3, 2, 6), 1)):
        units = [random_element(P, rng, unit=True) for _ in range(8)]
        # omega of a generator of F_q^*: its least relation has degree 4 at f = 2
        gen = P.fq_from_int(2) if P.f == 1 else P.gen().residue()
        roots = [teichmuller(gen)] + [
            teichmuller(P.fq([rng.randrange(1, P.p)] + [rng.randrange(P.p)] * (P.f - 1)))
            for _ in range(3)]
        queries += [((w,), 4, 1) for w in roots] + [((roots[0], roots[1] ** 2), 2, H)]
        queries += [((P.from_int(rng.randrange(-3, 4)),), 2, 3) for _ in range(6)]
        queries += [((u, u * u), 2, H) for u in units[:2]]
        queries += [((u,), 2, 3) for u in units[2:6]]
        queries += [((units[6], units[7]), 1, 3), ((units[2], units[2] + 1), 1, 3),
                    ((units[3], 2 * units[3] - 1), 1, 3)]
    assert len(queries) == 40
    for values, d, H in queries:
        for mode in ("exhaustive", "lattice"):
            query = RelationQuery(values=values, deg_bound=d, height_bound=H, mode=mode)
            assert find_relation(query) == candidate_find_relation(query)


def test_base_solution_with_algebraic_rhs_is_recovered():
    # beta = psi(1+p) makes 1+p the distinguished solution, so the probe
    # finds the linear relation x - (1+p) within height p+1.
    P = get_params(5, 1, 20)
    u0 = 1 + P.from_int(5)
    fam = solve_exponential(psi(u0))
    assert fam.base == u0
    cert = minimal_polynomial(fam.base.mask(19), 3, height_bound=6)
    assert cert.degree == 1
    assert cert.monomials == ((0,), (1,))
    assert cert.coeffs == (6, -1)


def test_budget_and_floor_enforcement():
    P = get_params(3, 1, 40)
    u = P.from_int(7)
    with pytest.raises(BudgetExceeded):
        RelationQuery(values=(u,), deg_bound=30, height_bound=1,
                      monomial_budget=16)
    with pytest.raises(BudgetExceeded):
        RelationQuery(values=(u,), deg_bound=2, height_bound=100,
                      height_budget=50)
    with pytest.raises(DomainError):
        # M = 2 cannot support H = 10 over p = 3, f = 1
        RelationQuery(values=(u,), deg_bound=2, height_bound=10, precision=2)
    with pytest.raises(BudgetExceeded):
        # exhaustive enumeration size guard
        find_relation(RelationQuery(
            values=(u, P.from_int(5)), deg_bound=4, height_bound=10,
            mode="exhaustive"))


def test_mixed_params_rejected():
    u = get_params(3, 1, 20).from_int(1)
    v = get_params(5, 1, 20).from_int(1)
    with pytest.raises(MixedParams):
        RelationQuery(values=(u, v), deg_bound=2, height_bound=1)


def test_verify_relation_negative_case():
    P = get_params(5, 1, 8)
    cert = find_relation(RelationQuery(
        values=(P.from_int(3),), deg_bound=1, height_bound=5, mode="exhaustive"))
    assert cert.coeffs == (3, -1)
    # x - 2 does not vanish at 3 even mod 5
    from wittcalc import RelationCertificate
    bad = RelationCertificate(
        monomials=((0,), (1,)), coeffs=(-2, 1), verified_precision=1,
        deg_bound=1, height_bound=5, precision_bound=1, mode="exhaustive")
    assert not verify_relation(bad, [P.from_int(3)], 1)
    assert verify_relation(bad, [P.from_int(2)], 8)


def test_verify_relation_rejects_malformed_certificates():
    P = get_params(5, 1, 8)
    u = P.from_int(3)

    def cert(monos, coeffs, d):
        return relation_certificate_from_obj({
            "monomials": monos, "coeffs": coeffs, "verified_precision": 1,
            "bounds": {"d": d, "H": 5, "M": 1}, "mode": "exhaustive"})

    # u^-1 - u = 0 is false; a negative exponent is refused, not wrapped round
    with pytest.raises(DomainError):
        cert([[-1], [1]], [1, -1], 1)
    with pytest.raises(DomainError):  # degree above the certificate's own bound
        cert([[0], [3]], [1, -1], 2)
    with pytest.raises(DomainError):  # one exponent vector per coefficient
        cert([[0], [1]], [1], 1)
    with pytest.raises(DomainError):  # exponents shorter than the values
        verify_relation(cert([[0], [1]], [1, -1], 1), [u, u], 1)
    # a huge exponent is refused at once by the monomial budget
    with pytest.raises(BudgetExceeded):
        verify_relation(cert([[10 ** 9]], [1], 10 ** 9), [u], 1)
    assert verify_relation(cert([[0], [2]], [1, -1], 600), [P.from_int(-1)], 8,
                           monomial_budget=601)


def test_lll_reduces_known_lattice():
    # planted shortest vector (1, 0, 2) inside a skewed basis
    basis = [
        [1, 0, 2],
        [1000, 1, 2001],
        [2000, 0, 4001],
    ]
    reduced = lll_reduce(basis)
    norms = sorted(sum(x * x for x in row) for row in reduced)
    assert norms[0] <= 5
    # determinant is preserved up to sign
    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert abs(det3(reduced)) == abs(det3(basis))


def test_lll_matches_fraction_oracle_on_probe_lattices(monkeypatch):
    # every lattice the probe reduces in a seeded sweep over p, f and N, at
    # dimensions 3 to 8: the integral LLL returns the oracle's basis exactly
    lattices = []
    real = relations.lll_reduce
    monkeypatch.setattr(relations, "lll_reduce",
                        lambda rows, delta: lattices.append(rows) or real(rows, delta))
    rng = random.Random(11)
    # each f meets each of its six (values, degree) shapes once
    shapes = {f: [(m, d) for m in (1, 2) for d in range(1, 5) if comb(m + d, d) + f <= 8]
              for f in (1, 2)}
    for p, N, f in product((3, 5, 7), (8, 16), (1, 2)):
        P = get_params(p, f, N)
        m, d = shapes[f].pop()
        values = tuple(teichmuller(random_element(P, rng, unit=True).residue())
                       if rng.random() < 0.5 else random_element(P, rng, unit=True)
                       for _ in range(m))
        find_relation(RelationQuery(values=values, deg_bound=d, height_bound=1))
    assert len(lattices) == 12
    assert {len(rows) for rows in lattices} == {3, 4, 5, 6, 7, 8}
    for rows in lattices:
        assert lll_reduce(rows) == fraction_lll_reduce(rows)


def test_lll_rejects_dependent_rows_and_bad_quality():
    for rows in ([[1, 2], [2, 4]], [[0, 0, 0]], [[1, 0], [0, 1], [1, 1]],
                 [[3, 1, 4], [1, 5, 9], [4, 6, 13]]):
        with pytest.raises(DomainError):
            lll_reduce(rows)
    assert lll_reduce([]) == []
    assert lll_reduce([[3, 4]]) == [[3, 4]]
    basis = [[1, 0, 2], [1000, 1, 2001], [2000, 0, 4001]]
    assert lll_reduce(basis, Fraction(99, 100)) == lll_reduce(basis)
    for delta in (Fraction(1, 4), Fraction(101, 100), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            lll_reduce(basis, delta)


def test_lll_rounds_ties_to_even_and_keeps_rows_at_lovasz_equality():
    # mu = 5/2 rounds to 2, as round(Fraction) does, not to 3
    assert lll_reduce([[2, 0], [5, 1]], Fraction(3, 4)) == [[1, 1], [1, -1]]
    # |b1|^2 = delta |b0|^2 exactly: the Lovasz test holds, so no swap
    assert lll_reduce([[2, 0, 0], [1, 1, 1]], Fraction(3, 4)) == [[2, 0, 0], [1, 1, 1]]
    assert lll_reduce([[10, 0, 0], [1, 7, 7]]) == [[10, 0, 0], [1, 7, 7]]
    for basis in ([[2, 0], [5, 1]], [[2, 0, 0], [1, 1, 1]]):
        assert lll_reduce(basis, Fraction(3, 4)) == fraction_lll_reduce(basis, Fraction(3, 4))


def test_exhaustive_mode_proposes_each_vector_once_up_to_sign():
    P = get_params(5, 1, 30)
    u = random_element(P, random.Random(3), unit=True)
    for values, d, H in (((u,), 2, 3), ((u, u + 1), 1, 2), ((u,), 4, 1)):
        query = RelationQuery(values=values, deg_bound=d, height_bound=H, mode="exhaustive")
        n = comb(len(values) + d, d)
        vectors = relations._exhaustive_vectors(query, [None] * n)
        assert iter(vectors) is vectors  # proposed lazily, nothing kept
        vectors = list(vectors)
        assert len(vectors) == ((2 * H + 1) ** n - 1) // 2
        assert all(next(x for x in v if x) > 0 for v in vectors)
        negated = {tuple(-x for x in v) for v in vectors}
        assert set(vectors) | negated | {(0,) * n} == set(product(range(-H, H + 1), repeat=n))


def test_exhaustive_certificates_match_oracle_without_a_seen_set():
    # two units, degree 2: the box the seen set used to fill
    rng = random.Random(4)
    P = get_params(5, 1, 30)
    u, v = (random_element(P, rng, unit=True) for _ in range(2))
    queries = [(u, v), (u, u * u), (u, 2 * u + 1), (u * v, v)]
    for values in queries:
        query = RelationQuery(values=values, deg_bound=2, height_bound=2, mode="exhaustive")
        assert find_relation(query) == candidate_find_relation(query)
    assert find_relation(RelationQuery(values=(u, u * u), deg_bound=2, height_bound=2,
                                       mode="exhaustive")).coeffs == (1, -1)
    # peak memory stays flat in the box size (15,625 vectors here)
    tracemalloc.start()
    find_relation(RelationQuery(values=(u, v), deg_bound=2, height_bound=2, mode="exhaustive"))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 100_000
