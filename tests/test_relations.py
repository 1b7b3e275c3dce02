"""Integer relation probe: both search modes, certificates, and the LLL core."""

import random
import time
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
from oracles import (box_hits, candidate_find_relation, filtered_monomials, fraction_lll_reduce,
                     per_degree_graded_search)


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


def test_minimal_polynomial_rejects_bounds_below_one():
    # the box d = -3 would be searched by no query at all, so it is refused
    # when the query is built rather than reported as searched
    u = get_params(3, 1, 40).from_int(1)
    for deg, height in ((-3, 0), (0, 1), (2, 0)):
        with pytest.raises(DomainError, match=">= 1"):
            minimal_polynomial(u, deg, height)



def test_minimal_polynomial_is_one_query_gated_as_a_whole(monkeypatch):
    # one RelationQuery, one monomial list and one set of monomial values for
    # every degree the search walks; omega(g) over F_9 stops at x^4 + 1
    calls = []
    for name in ("monomials", "_monomial_values"):
        real = getattr(relations, name)
        monkeypatch.setattr(relations, name, lambda *a, real=real, name=name: (
            calls.append(name), real(*a))[1])
    real_init = RelationQuery.__post_init__
    monkeypatch.setattr(RelationQuery, "__post_init__",
                        lambda self: (calls.append("query"), real_init(self))[1])
    P = get_params(3, 2, 20)
    w = teichmuller(P.gen().residue())
    for mode in ("exhaustive", "lattice"):
        calls.clear()
        cert = minimal_polynomial(w, 4, 1, mode=mode)
        assert (cert.monomials, cert.coeffs, cert.deg_bound) == (((0,), (4,)), (1, 1), 4)
        assert sorted(calls) == ["_monomial_values", "monomials", "query"]
    # the whole degree-13 box, 3^14 vectors, is past EXHAUSTIVE_CAP: refused,
    # although degree 1 alone would have answered x - 1
    assert (2 * 1 + 1) ** 14 > relations.EXHAUSTIVE_CAP
    with pytest.raises(BudgetExceeded, match="exhaustive enumeration"):
        minimal_polynomial(get_params(13, 1, 20).from_int(1), 13, 1)
    cert = minimal_polynomial(get_params(13, 1, 20).from_int(1), 12, 1)
    assert (cert.coeffs, cert.deg_bound) == ((1, -1), 1)  # the degree it stopped at


def test_hit_heavy_exhaustive_box_stops_at_the_first_degree(monkeypatch):
    # the half sums each query forms, as (sums before, sums after) per call: one
    # left table grown value by value, then at most one right half from scratch
    calls = []
    real = relations._half_sums

    def counted(ws, cs, mod, columns):
        out = real(ws, cs, mod, columns)
        calls.append((len(columns[0]), len(out[0])))
        return out

    monkeypatch.setattr(relations, "_half_sums", counted)
    P = get_params(13, 1, 20)
    # 0 at degree 12: 3^13 vectors, most of them hits, but the left table of the
    # monomials 1 and x already holds the least, x itself: 9 <= 3^6 left sums
    # and no right half
    query = RelationQuery(values=(P.from_int(0),), deg_bound=12, height_bound=1,
                          mode="exhaustive")
    cert = find_relation(query)
    assert (cert.monomials, cert.coeffs, cert.deg_bound) == (((1,),), (1,), 12)
    assert calls == [(1, 3), (3, 9)]
    # 13^3: its powers from x^7 on vanish mod 13^20 and no relation of lower
    # degree holds, so the whole left table (1, ..., x^5) meets the right half
    # (x^6, ..., x^12) once: 3^6 + 3^7 half sums
    calls.clear()
    query = RelationQuery(values=(P.from_int(13 ** 3),), deg_bound=12, height_bound=1,
                          mode="exhaustive")
    cert = find_relation(query)
    assert (cert.monomials, cert.coeffs, cert.deg_bound) == (((7,),), (1,), 12)
    assert calls == [(3 ** i, 3 ** (i + 1)) for i in range(6)] + [(1, 3 ** 7)]
    assert minimal_polynomial(P.from_int(13 ** 3), 12, 1).deg_bound == 7


def test_lattice_mode_answers_at_the_first_degree_with_a_hit():
    # omega(1 + 2g) over F_25 has order 3: x^2 + x + 1.  One lattice of degree
    # 4 returned its multiple x^3 + x^2 + x; the degree-2 lattice returns it
    P = get_params(5, 2, 16)
    w = teichmuller((1 + 2 * P.gen()).residue())
    assert w ** 3 == 1 and w != 1
    for mode in ("exhaustive", "lattice"):
        cert = find_relation(RelationQuery(values=(w,), deg_bound=4, height_bound=2,
                                           mode=mode))
        assert (cert.monomials, cert.coeffs, cert.deg_bound) == \
            (((0,), (1,), (2,)), (1, 1, 1), 4)


def test_signal_floor_refuses_a_height_bound_at_or_past_p_to_the_m():
    # at (2, 8, 2) the box floor admits H = 8, but 4 = p^M is then a height-8
    # "relation" of every value: the constant polynomial 4
    P = get_params(2, 8, 2)
    u = random_element(P, random.Random(15), unit=True)
    for mode in ("exhaustive", "lattice"):
        with pytest.raises(DomainError, match="heuristic floor"):
            find_relation(RelationQuery(values=(u,), deg_bound=1, height_bound=8, mode=mode))
        with pytest.raises(DomainError, match="heuristic floor"):
            minimal_polynomial(u, 1, 4, mode=mode)
        # H = 3 < 4 is searched, and the constants 1..3 are no hits
        assert find_relation(RelationQuery(values=(u,), deg_bound=1, height_bound=3,
                                           mode=mode)) is None

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
    queries, empty = [], []
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
        # no relation inside these boxes: lattice mode answers them without LLL
        empty += [((units[4],), 3, 1), ((units[5],), 2, 2), ((units[6], units[7]), 1, 2)]
    queries += empty
    assert len(queries) == 46
    for values, d, H in queries:
        for mode in ("exhaustive", "lattice"):
            query = RelationQuery(values=values, deg_bound=d, height_bound=H, mode=mode)
            assert find_relation(query) == candidate_find_relation(query)
    assert all(find_relation(RelationQuery(values=values, deg_bound=d, height_bound=H)) is None
               for values, d, H in empty)


def test_box_hits_match_a_brute_force_filter():
    # the oracle's meet-in-the-middle list of hits and the library's least hit
    # against a filter of the whole box, at small p^M so that boxes hold hits;
    # p = 2 and f up to 3, n up to 7, H up to 3, and monomial degrees from a
    # graded list, so that degree blocks split between the halves
    rng = random.Random(12)
    checked = 0
    for f, p, M, n, H in product((1, 2, 3), (2, 3, 5), (1, 2), range(1, 8), (1, 2, 3)):
        if (2 * H + 1) ** n > 2_401:
            continue
        mod = p ** M
        w = [tuple(rng.randrange(mod) for _ in range(f)) for _ in range(n)]
        if checked % 3 == 1:  # every first coordinate 0: no key may stop at it
            w = [(0,) + v[1:] for v in w]
        if checked % 4 == 2:  # a zero value: every multiple of its unit vector is a hit
            w[rng.randrange(n)] = (0,) * f
        degs = [sum(e) for e in relations.monomials(checked % 3 + 1, n)][:n]
        want = [c for c in product(range(-H, H + 1), repeat=n)
                if next(x for x in c + (1,) if x) > 0 and any(c)
                and all(sum(x * v[j] for x, v in zip(c, w)) % mod == 0 for j in range(f))]
        got = list(box_hits(w, H, mod))
        assert len(got) == len(set(got)) and sorted(got) == want, (f, p, M, n, H, w)
        least = min(want, key=lambda c: relations._rank(degs, c), default=None)
        assert relations._least_box_hit(w, degs, H, mod) == least, (f, p, M, n, H, w, degs)
        checked += 1
    assert checked == 270
    # buckets whose lex-least left half is not of the least height, so that the
    # least partner of a right half depends on the right half's own height
    for w, mod, least in (([(12,), (9,), (6,), (12,)], 16, (1, -2, 1, 0)),
                          ([(3,), (1,), (9,), (8,)], 11, (1, -1, 1, 0))):
        hits = [c for c in product(range(-2, 3), repeat=4) if c > (0,) * 4
                and sum(x * v[0] for x, v in zip(c, w)) % mod == 0]
        assert min(hits, key=lambda c: relations._rank(range(4), c)) == least
        assert relations._least_box_hit(w, range(4), 2, mod) == least


def test_lattice_mode_reduces_no_lattice_when_the_box_holds_no_hit(monkeypatch):
    calls = []
    real = relations.lll_reduce
    monkeypatch.setattr(relations, "lll_reduce",
                        lambda rows, delta: calls.append(len(rows)) or real(rows, delta))
    P = get_params(13, 1, 20)
    rng = random.Random(13)
    for _ in range(10):
        u = random_element(P, rng, unit=True)
        assert find_relation(RelationQuery(values=(u,), deg_bound=3, height_bound=1)) is None
    assert calls == []
    u = random_element(P, rng, unit=True)
    cert = find_relation(RelationQuery(values=(u, u * u), deg_bound=2, height_bound=1))
    assert cert.monomials == ((0, 1), (2, 0)) and cert.coeffs == (1, -1)
    assert calls == [7]


def test_lattice_mode_past_the_cap_matches_the_per_degree_oracle(monkeypatch):
    # two values at degree 3 and H = 2: 5^10 vectors, past EXHAUSTIVE_CAP, so one
    # pass ranks the degree-2 box (5^6 vectors) and LLL takes over from the degree
    # of its least hit, or from degree 3 when it holds none
    dims = []
    real = relations.lll_reduce
    monkeypatch.setattr(relations, "lll_reduce",
                        lambda rows, delta: dims.append(len(rows)) or real(rows, delta))
    P = get_params(7, 1, 20)
    rng = random.Random(16)
    u, v = (random_element(P, rng, unit=True) for _ in range(2))
    assert 5 ** 6 <= relations.EXHAUSTIVE_CAP < 5 ** 10
    for values, coeffs, reduced in (((u, v), None, [11]), ((u, u ** 3), (1, -1), [11]),
                                    ((u, u * u), (1, -1), [7])):
        query = RelationQuery(values=values, deg_bound=3, height_bound=2)
        found = per_degree_graded_search(query)
        dims.clear()
        cert = find_relation(query)
        assert dims == reduced
        assert cert == (None if found is None else
                        relations._certify(query, 3, *found[1:]))
        assert (cert and cert.coeffs) == coeffs


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


def test_budget_and_floor_enforcement(monkeypatch):
    P = get_params(3, 1, 40)
    u = P.from_int(7)
    monkeypatch.setattr(relations, "MAX_MONOMIALS", 16)
    with pytest.raises(BudgetExceeded):
        RelationQuery(values=(u,), deg_bound=30, height_bound=1)
    monkeypatch.setattr(relations, "MAX_HEIGHT", 50)
    with pytest.raises(BudgetExceeded):
        RelationQuery(values=(u,), deg_bound=2, height_bound=100)
    with pytest.raises(DomainError):
        # M = 2 cannot support H = 10 over p = 3, f = 1
        RelationQuery(values=(u,), deg_bound=2, height_bound=10, precision=2)
    with pytest.raises(BudgetExceeded):
        # exhaustive enumeration size guard
        find_relation(RelationQuery(
            values=(u, P.from_int(5)), deg_bound=4, height_bound=10,
            mode="exhaustive"))


def test_a_refused_query_lists_and_evaluates_no_monomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused query listed or evaluated monomials")

    monkeypatch.setattr(relations, "monomials", refuse)
    monkeypatch.setattr(relations, "_monomial_values", refuse)
    P = get_params(3, 1, 40)
    us = [P.from_int(k) for k in range(2, 72)]
    refused = [
        (us, 1, 1, "lattice", "lattice dimension 72 exceeds 64"),
        (us[:2], 4, 10, "exhaustive", f"exhaustive enumeration of {21 ** 15} vectors"),
        (us[:7], 5, 1, "lattice", "792 monomials exceed the budget of 512"),
        (us[:1], 1, 2 ** 20 + 1, "lattice", "height bound 1048577 exceeds 1048576"),
    ]
    for values, d, H, mode, message in refused:
        with pytest.raises(BudgetExceeded, match=message):
            find_relation(RelationQuery(values=tuple(values), deg_bound=d, height_bound=H,
                                        mode=mode))
    # the signal floor comes first: M = 2 over p = 3 is refused as too low (exit 2)
    with pytest.raises(DomainError, match="heuristic floor"):
        RelationQuery(values=tuple(us), deg_bound=1, height_bound=1, precision=2)


def test_monomials_match_the_filter_oracle():
    for arity in range(1, 6):
        for d in range(7):
            assert relations.monomials(arity, d) == filtered_monomials(arity, d)
    # degree 1 in many values no longer walks 2^arity tuples
    assert relations.monomials(62, 1) == [(0,) * 62] + [
        tuple(int(i == j) for i in range(62)) for j in reversed(range(62))]


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


def test_certificate_mode_and_status_are_checked_on_every_construction():
    import dataclasses

    P = get_params(5, 1, 8)
    cert = find_relation(RelationQuery(
        values=(P.from_int(3),), deg_bound=1, height_bound=5, mode="exhaustive"))
    for change in ({"mode": 7}, {"mode": "search"}, {"status": "proven-equality"}):
        with pytest.raises(DomainError):
            dataclasses.replace(cert, **change)
        with pytest.raises(DomainError):
            relation_certificate_from_obj({**relation_certificate_to_obj(cert), **change})
    assert dataclasses.replace(cert, mode="lattice").mode == "lattice"


def test_verify_relation_rejects_malformed_certificates(monkeypatch):
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
    monkeypatch.setattr(relations, "MAX_MONOMIALS", 601)
    assert verify_relation(cert([[0], [2]], [1, -1], 600), [P.from_int(-1)], 8)


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
    # every lattice the probe's lattice code builds in a seeded sweep over p,
    # f and N, at dimensions 3 to 8: the integral LLL returns the oracle's
    # basis exactly.  The lattices are built directly, since find_relation
    # answers a box with no hit without reducing any.
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
        query = RelationQuery(values=values, deg_bound=d, height_bound=1)
        w = relations._monomial_values(values, relations.monomials(m, d), query.precision)
        relations._lattice_vectors(query, w)
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


def test_exhaustive_memory_stays_flat_when_most_of_the_box_is_hits():
    # 0 at degree 10: 177,147 vectors, and every one with c_0 = 0 is a hit;
    # the least is x itself, and no list of hits is kept on the way
    P = get_params(13, 1, 20)
    query = RelationQuery(values=(P.from_int(0),), deg_bound=10, height_bound=1,
                          mode="exhaustive")
    tracemalloc.start()
    cert = find_relation(query)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert cert.monomials == ((1,),) and cert.coeffs == (1,)
    assert peak < 100_000


def test_exhaustive_query_near_the_cap_returns_at_once():
    # 1,401^2 = 1,962,801 vectors, just under EXHAUSTIVE_CAP: about 2 * 1,401
    # half sums, where a walk over the box checked about a million vectors
    P = get_params(13, 1, 20)
    u = random_element(P, random.Random(14), unit=True)
    assert 1_401 ** 2 <= relations.EXHAUSTIVE_CAP
    t0 = time.process_time()
    cert = find_relation(RelationQuery(values=(P.from_int(5),), deg_bound=1,
                                       height_bound=700, mode="exhaustive"))
    none = find_relation(RelationQuery(values=(u,), deg_bound=1, height_bound=700,
                                       mode="exhaustive"))
    assert time.process_time() - t0 < 1.0
    assert cert.monomials == ((0,), (1,)) and cert.coeffs == (5, -1)
    assert none is None
