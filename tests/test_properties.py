"""Property tests over random small rings: the closed-form lifts, the matrix
lift against the digit-by-digit oracle, the matrix verifier against the
ring-element oracle (p = 2 included), full Teichmuller tables filled in
shuffled order against the one-power oracle and the laws the orbit fill
relies on, phi as the lift of the p-power map (also for random moduli),
residue arithmetic at precision 1 against the record oracle (p = 2
included), the CLI's exit codes and one-line diagnostics on random JSON
inputs, the
delta sum and product laws and the multiplicative law of phi(u) = eps*u
(p = 2 included), the digit expansion and its inverse against the
element-wise oracles (p = 2 included), the JSON round trips of the element
and matrix wire forms, the column-table product against the schoolbook one
(reducible moduli included), the straight-line ring kernels against their
loop oracles (any monic modulus, unreduced and negative inputs, inputs
shorter than their columns, stacked columns and length-1 powers), the
compiled Taylor block of the Frobenius lift against the loop lift on the
matrix solver's grids and on Teichmuller lifts (p = 2 and p = 101
included), the compiled walk over the powers of a whole Teichmuller table
against the vec_powers loop (p = 2 and f = 1 included), the matrix
solver's seed check on residue tuples against the FqElement elimination,
every answer sound under lifts of its input and, where the change at the
first unknown digit is a unit, tight, the obstructions of phi(u) = eps*u
and the relation certificates unchanged under lifts (p = 2 included), the
ring laws at mixed precisions with mask and agreement_precision (p = 2
included), phi(u) = eps*u recovering its solution up to Z_p^* (p = 2
included) and psi(u) = beta up to a Teichmuller unit (p odd), the fused
Horner series against the schoolbook one, the exp/log and psi laws, psi
and the psi form of verify_exponential against the log-route oracle (p
odd, p = 101 included), the integral LLL against the
Fraction LLL oracle on random integer bases, exhaustive relation search
against the whole-box oracle, minimal polynomials in both modes against
one query per degree, the one-pass graded search against one box search per
degree in both modes (lattice queries past EXHAUSTIVE_CAP included) and the
integer evaluation of a relation against ring products (p = 2 included)."""

import io
import itertools
import json
import random
from fractions import Fraction
from math import comb, log2

import pytest

from wittcalc import (
    DomainError,
    ExponentialProblem,
    FqElement,
    Obstruction,
    PrecisionExhausted,
    RelationCertificate,
    RelationQuery,
    RestrictedSeries,
    SingularSeed,
    delta_jet,
    digits,
    eval_delta_function,
    from_digits,
    ZqMatrix,
    enumerate_constants,
    fermat_quotient,
    find_relation,
    frobenius,
    frobenius_inv,
    lll_reduce,
    minimal_polynomial,
    new_params,
    padic_exp,
    padic_log,
    psi,
    psi_series_truncation,
    random_element,
    solve_difference,
    solve_exponential,
    solve_matrix_linear,
    teichmuller,
    verify_exponential,
    verify_matrix_linear,
    verify_relation,
)
from wittcalc import delta, relations, solvers, zq
from wittcalc.cli import run
from wittcalc.zq import teichmuller_table
from wittcalc import polyarith as pa
from wittcalc import serialize as ser
from wittcalc.conway import is_irreducible_mod_p

from conftest import get_params, random_ring
from oracles import (
    _relation_evaluate,
    agreement_precision,
    candidate_find_relation,
    degree_loop_minimal_polynomial,
    per_degree_graded_search,
    RecordResidue,
    coupling_matrix,
    digitwise_solve_matrix_linear,
    fq_residue_invertible,
    fraction_lll_reduce,
    guarded_valuation,
    iterated_teichmuller,
    lift,
    loop_frobenius_lift,
    loop_teichmuller_table,
    loop_vec_apply,
    loop_vec_dot,
    loop_vec_mul,
    loop_vec_mul_cols,
    loop_verify_matrix_linear,
    log_route_psi,
    matrix_map,
    matrix_product,
    peel_digits,
    power_teichmuller,
    ring_verify_matrix_linear,
    scaled_from_digits,
    vec_mul_series,
)

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
@hypothesis.given(RINGS, st.randoms(use_true_random=False))
@hypothesis.example((2, 1, 2), random.Random(0))
@hypothesis.example((2, 3, 2), random.Random(1))
@hypothesis.example((3, 2, 2), random.Random(2))
def test_teichmuller_table_matches_power_oracle(ring, rnd):
    # the whole table of a fresh ring, asked for in a shuffled order, so each
    # entry is met as a lift, as a Frobenius image or as a negation
    P = new_params(*ring)
    order = list(itertools.product(range(P.p), repeat=P.f))
    rnd.shuffle(order)
    for c in order:
        assert teichmuller(P.fq(c)).coeffs == power_teichmuller(P.fq(c))
    assert len(P._teich) == P.p ** P.f


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
def test_residue_arithmetic_matches_the_record_oracle(ring, data):
    P = get_params(*ring)
    a, b, u = _residue(data, P), _residue(data, P), _element(data, P)
    ra, rb = RecordResidue.of(a), RecordResidue.of(b)
    res = u.residue()
    assert type(res) is FqElement and res.prec == 1
    assert res.coeffs == RecordResidue.of(u).coeffs
    pairs = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
             (a.frobenius(), ra.frobenius()), (a.frobenius_inv(), ra.frobenius_inv())]
    if not b.is_zero():
        e = data.draw(st.integers(-P.p ** P.f, P.p ** P.f))
        pairs += [(b.inv(), rb.inv()), (b ** e, rb ** e), (a * b ** -1, ra * rb ** -1)]
    for mine, theirs in pairs:
        assert (mine.prec, mine.coeffs) == (1, theirs.coeffs)
        assert mine.residue().coeffs == theirs.coeffs
    assert a.trace() == ra.trace()
    assert (a * b).trace() == (ra * rb).trace()
    assert u.trace() % P.p == RecordResidue.of(u).trace()


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
@hypothesis.given(RINGS, st.integers(0, 2 ** 32))
@hypothesis.example((2, 3, 5), 0)
@hypothesis.example((2, 2, 2), 1)
def test_difference_solutions_are_multiplicative_up_to_z_p(ring, seed):
    # eps = phi(w)/w has norm one; phi(u) = eps*u fixes u up to Z_p^*, so the
    # ratio of u_(eps eps') to u_eps u_eps' is fixed by phi and lies in Z_p
    P = get_params(*ring)
    rng = random.Random(seed)
    w, w2 = (random_element(P, rng, unit=True) for _ in range(2))
    eps, eps2 = frobenius(w) * w.inv(), frobenius(w2) * w2.inv()
    u, u2, u12 = solve_difference(eps), solve_difference(eps2), solve_difference(eps * eps2)
    ratio = u12 * (u * u2).inv()
    assert frobenius(ratio) == ratio
    assert not any(ratio.coeffs[1:])


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
    coupling = coupling_matrix(beta)
    assert matrix_product(coupling, matrix_map(lambda e: e ** P.p, u)) == matrix_map(frobenius, u)
    assert verify_matrix_linear(u, beta) == ring_verify_matrix_linear(u, beta) == P.N - 1
    assert u.residues() == seed


@SETTINGS
@hypothesis.given(RINGS, st.integers(1, 3), st.data())
def test_matrix_taylor_block_lift_matches_digitwise_oracle(ring, n, data):
    P = get_params(*ring)
    beta = ZqMatrix(tuple(tuple(_element(data, P) for _ in range(n)) for _ in range(n)))
    seed = tuple(tuple(_residue(data, P) for _ in range(n)) for _ in range(n))
    try:
        u = solve_matrix_linear(beta, seed)
    except SingularSeed:
        hypothesis.assume(False)
    old = digitwise_solve_matrix_linear(beta, seed)
    assert [[e.coeffs for e in row] for row in u.entries] == \
        [[e.coeffs for e in row] for row in old.entries]


def _verified(u, beta, verify):
    try:
        return verify(u, beta)
    except PrecisionExhausted as exc:
        return type(exc)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from((2, 3, 5, 7, 13)), st.integers(1, 3), st.integers(2, 12),
                  st.integers(1, 3), st.randoms(use_true_random=False))
@hypothesis.example(2, 2, 9, 2, random.Random(0))
def test_matrix_verifier_matches_the_ring_element_oracle(p, f, N, n, rnd):
    # the residual on coefficient tuples against delta(u) - beta u^(p) on
    # ring elements: for a solution, the solution with some entries masked
    # (to precision 1 too) or with one digit changed, a random u at mixed
    # precisions, and against beta masked entry-wise or drawn afresh
    P = get_params(p, f, N)

    def matrix(prec):
        return ZqMatrix(tuple(tuple(random_element(P, rnd, prec()) for _ in range(n))
                              for _ in range(n)))

    beta = matrix(lambda: rnd.randint(2, N))
    u = solve_matrix_linear(beta)
    masked = matrix_map(lambda e: e.mask(rnd.randint(1, e.prec)) if rnd.random() < 0.5 else e, u)
    rows = [list(row) for row in u.entries]
    i, j, k, l = rnd.randrange(n), rnd.randrange(n), rnd.randrange(u.prec), rnd.randrange(f)
    rows[i][j] += P.from_coeffs(tuple(p ** k * (c == l) for c in range(f)))
    cases = [u, masked, ZqMatrix(rows), matrix(lambda: rnd.randint(1, N))]
    betas = [beta, matrix_map(lambda e: e.mask(rnd.randint(1, e.prec)), beta),
             matrix(lambda: rnd.randint(1, N))]
    for v in cases:
        for b in betas:
            assert _verified(v, b, verify_matrix_linear) == \
                _verified(v, b, ring_verify_matrix_linear) == \
                _verified(v, b, loop_verify_matrix_linear)
    assert verify_matrix_linear(u, beta) == u.prec - 1
    if k:
        assert verify_matrix_linear(ZqMatrix(rows), beta) == k - 1


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.one_of(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4)),
                            st.tuples(st.sampled_from((13, 101)), st.integers(1, 2))),
                  st.integers(2, 30), st.integers(0, 3), st.randoms(use_true_random=False))
@hypothesis.example((2, 4), 30, 3, random.Random(0))
@hypothesis.example((101, 2), 20, 0, random.Random(1))
def test_lift_block_kernel_matches_the_loop_lift(pf, N, n, rnd):
    # n = 0 is a Teichmuller lift (n = 1, coupling 1) to a random W; n >= 1
    # the solver's own table and seed, captured on their way into the lift
    (p, f), lift = pf, zq._frobenius_lift
    P = get_params(p, f, N)

    def residue():
        return tuple(rnd.randrange(p) for _ in range(f))

    W = rnd.randint(2, N)
    if n == 0:
        args = [(P, (P._phi_inv_cols,), ((residue(),),), W)]
    else:
        args = []
        beta = ZqMatrix(tuple(tuple(random_element(P, rnd, W) for _ in range(n))
                              for _ in range(n)))
        seed = tuple(tuple(P.fq(residue()) for _ in range(n)) for _ in range(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_frobenius_lift", lambda *a: args.append(a) or lift(*a))
            try:
                solve_matrix_linear(beta, seed)
            except SingularSeed:
                solve_matrix_linear(beta)
    for a in args:
        assert list(map(list, lift(*a))) == loop_frobenius_lift(*a)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from([(p, f) for p in (2, 3, 5, 7, 11, 13, 31) for f in (1, 2, 3, 4)
                                   if p ** f <= 1024]), st.integers(0, 6))
@hypothesis.example((2, 1), 0)
@hypothesis.example((3, 1), 0)
@hypothesis.example((2, 4), 1)
def test_power_table_kernel_matches_the_loop_table(pf, extra):
    # the whole table of a fresh ring, the powers walked by the kernel,
    # against the vec_powers loop: the same items in the same order, for
    # the least N that fills the ring whole (q - 1 <= 4 N^2) and above it
    p, f = pf
    N = 2
    while 4 * N ** 2 < p ** f - 1:
        N += 1
    P = new_params(p, f, N + extra)
    assert list(teichmuller_table(P).items()) == list(loop_teichmuller_table(P).items())


@SETTINGS
@hypothesis.given(RINGS, st.integers(1, 4), st.data())
def test_seed_check_on_tuples_matches_the_residue_oracle(ring, n, data):
    # singular grids are drawn often: a row may repeat another times a
    # residue, or be zero
    P = get_params(*ring)
    rows = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(("random", "multiple", "zero")))
        if kind == "multiple" and rows:
            c = _residue(data, P)
            rows.append([(x * c).residue() for x in data.draw(st.sampled_from(rows))])
        else:
            rows.append([_residue(data, P) if kind != "zero" else P.fq_from_int(0)
                         for _ in range(n)])
    grid = tuple(tuple(row) for row in rows)
    want = fq_residue_invertible(grid)
    assert solvers._residue_invertible(tuple(tuple(e.coeffs for e in row) for row in grid),
                                       P.poly, P.p) == want
    beta = ZqMatrix(tuple(tuple(P.zero() for _ in range(n)) for _ in range(n)))
    if want:
        assert solve_matrix_linear(beta, grid).residues() == grid
    else:
        with pytest.raises(SingularSeed):
            solve_matrix_linear(beta, grid)


def _mixed_delta_function(P):
    # u * delta(u) + delta(u)^2 + 3 u^2 * delta(u), order 1 in one argument
    return RestrictedSeries(order=1, arity=1, terms=(
        ((1, 1), P.one()), ((0, 2), P.one()), ((2, 1), P.from_int(3))))


# name: (domain of x, odd p only, answers of x known mod p^n, tight)
LIFT_OPS = {
    "inv": ("unit", False, lambda x, n: x.inv(), True),
    "frobenius": ("any", False, lambda x, n: frobenius(x), True),
    "frobenius_inv": ("any", False, lambda x, n: frobenius_inv(x), True),
    "delta": ("any", False, lambda x, n: fermat_quotient(x), True),
    "psi": ("unit", True, lambda x, n: psi(x), True),
    "padic_log": ("1 + pZ", True, lambda x, n: padic_log(x), True),
    "padic_exp": ("pZ", True, lambda x, n: padic_exp(x), True),
    # x ** p reports n, where n + 1 digits always hold: (x + p^n r)^p = x^p mod p^(n+1)
    "x ** p": ("any", False, lambda x, n: x ** x.params.p, False),
    "from_digits(digits(x))": ("any", False, lambda x, n: from_digits(digits(x)), True),
    "solve_exponential(x).base": ("any", True, lambda x, n: solve_exponential(x).base, True),
    "teichmuller": ("any", False, lambda x, n: teichmuller(x), True),
    "delta_jet": ("any", False, lambda x, n: delta_jet(x, n - 1).entries, True),
    "psi truncation": ("unit", True, lambda x, n: eval_delta_function(
        psi_series_truncation(x.params, n - 1), [x]), True),
    # its change at digit n - 1 is (u + 2 delta(u) + 3 u^2) p^(n-1), not always a unit
    "u du + du^2 + 3u^2 du": ("any", False, lambda x, n: eval_delta_function(
        _mixed_delta_function(x.params), [x]), False),
}


def _known_mod(P, domain, n, rng):
    """A random element of the domain known mod p^n."""
    x = random_element(P, rng, n, unit=domain == "unit")
    if domain == "1 + pZ":
        return (x.mul_p_power(1) + 1).mask(n)
    return x.mul_p_power(1).mask(n) if domain == "pZ" else x


def _agreement(xs, ys):
    xs, ys = (xs, ys) if isinstance(xs, tuple) else ((xs,), (ys,))
    return [agreement_precision(x, y) for x, y in zip(xs, ys)]


def _precs(xs):
    return [x.prec for x in (xs if isinstance(xs, tuple) else (xs,))]


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(2, 12)),
                  st.integers(0, 2 ** 32))
def test_answers_are_sound_and_tight_under_lift(ring, seed):
    # An answer must not depend on digits its input does not know: for x
    # known mod p^n and its lifts x0 = lift(x) and x1 = x0 + p^n to p^N,
    # every answer agrees with x's to the precision x's reports.  Tight:
    # x0 and x1 differ by a unit at digit n, and for the operations marked
    # tight their answers then differ at the reported precision (or agree
    # to N when nothing is lost).
    P, rng = get_params(*ring), random.Random(seed)
    p, N = P.p, P.N
    n = rng.randint(2, N)
    for name, (domain, odd, fn, tight) in LIFT_OPS.items():
        if odd and p == 2:
            continue
        x = _known_mod(P, domain, n, rng)
        x0 = lift(x, rng)
        x1 = x0 + P.from_int(p ** n)
        want, got0, got1 = fn(x, n), fn(x0, n), fn(x1, n)
        assert _agreement(want, got0) == _agreement(want, got1) == _precs(want), name
        if tight:
            assert _agreement(got0, got1) == _precs(want), name
    # the solvers, whose inputs are a matrix or lie on a locus: beta known
    # mod p^n, each entry lifted; eps = phi(v)/v known mod p^n against
    # phi(v')/v' for a lift v' of v, and against a lift of eps where that
    # lift still has a solution
    k = rng.randint(1, 2)
    beta = ZqMatrix(tuple(tuple(random_element(P, rng, n) for _ in range(k)) for _ in range(k)))
    u = solve_matrix_linear(beta)
    lifted = solve_matrix_linear(matrix_map(lambda e: lift(e, rng), beta))
    assert all(agreement_precision(a, b) == n for ra, rb in zip(u.entries, lifted.entries)
               for a, b in zip(ra, rb))
    v = random_element(P, rng, unit=True)
    eps = (frobenius(v) * v.inv()).mask(n)
    u = solve_difference(eps)
    assert u.prec == n and frobenius(u) == eps * u
    v1 = lift(v.mask(n), rng)
    for e1 in (frobenius(v1) * v1.inv(), lift(eps, rng)):
        u1 = solve_difference(e1)
        if not isinstance(u1, Obstruction):
            assert agreement_precision(u, u1) == n


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(2, 12)),
                  st.integers(0, 2 ** 32))
def test_obstructions_and_relation_certificates_are_sound_under_lift(ring, seed):
    # The answers that are not ring elements.  An obstruction of
    # phi(u) = eps*u reads eps mod p ("mod-p") or mod p^(stage+1) ("trace",
    # whose stage is below the precision n of eps), so every lift of eps
    # gives the same stage, kind, witness, exponent and trace; only the
    # partial solution moves.  A relation certificate verified at M reads
    # its values mod p^M: it verifies at M on every lift of them, and the
    # search over the lifts at M finds it again, verified at M or more as
    # the lifts' extra digits allow.
    P, rng = get_params(*ring), random.Random(seed)
    p, N = P.p, P.N
    n = rng.randint(2, N)
    v = random_element(P, rng, unit=True)
    twist = 1 + random_element(P, rng).mul_p_power(rng.randint(1, n - 1))
    for eps in (random_element(P, rng, n, unit=True),
                (frobenius(v) * v.inv() * twist).mask(n)):
        obs = solve_difference(eps)
        if not isinstance(obs, Obstruction):
            continue
        assert obs.stage == "mod-p" or obs.stage < n
        for _ in range(2):
            got = solve_difference(lift(eps, rng))
            assert isinstance(got, Obstruction)
            assert (got.stage, got.kind, got.witness, got.exponent, got.trace) == \
                (obs.stage, obs.kind, obs.witness, obs.exponent, obs.trace)
    # y - x^2 + x - 1 = 0 mod p^n, with height 1 in the degree-2 box
    x = random_element(P, rng, n, unit=True)
    values = (x, x * x - x + 1)
    for mode in ("exhaustive", "lattice"):
        try:
            query = RelationQuery(values=values, deg_bound=2, height_bound=1, mode=mode)
        except DomainError:  # n is below the signal floor of this ring
            continue
        cert = find_relation(query)
        assert cert is not None or mode == "lattice"
        if cert is None:
            continue
        M = cert.verified_precision
        assert M == n and verify_relation(cert, values, M)
        for _ in range(2):
            lifted = tuple(lift(a, rng) for a in values)
            assert verify_relation(cert, lifted, M)
            again = find_relation(RelationQuery(values=lifted, deg_bound=2, height_bound=1,
                                                mode=mode, precision=M))
            assert again.verified_precision >= M
            assert again == RelationCertificate(
                cert.monomials, cert.coeffs, again.verified_precision, cert.deg_bound,
                cert.height_bound, cert.precision_bound, cert.mode)


@SETTINGS
@hypothesis.given(RINGS, st.integers(1, 3), st.data())
def test_monomial_matrices_act_on_matrix_solutions(ring, n, data):
    # for D a diagonal of nonzero residues and P a permutation, u -> u omega(D) P
    # maps solutions of delta(u) = beta u^(p) to solutions: each entry of
    # u omega(D) P is one product u_ik omega(d_k), whose p-th power is
    # u_ik^p phi(omega(d_k)); so the lift of the seed s D P is that of s
    # times omega(D) P
    P = get_params(*ring)
    beta = ZqMatrix(tuple(tuple(_element(data, P) for _ in range(n)) for _ in range(n)))
    seed = tuple(tuple(_residue(data, P) for _ in range(n)) for _ in range(n))
    diag = [data.draw(st.tuples(*[st.integers(0, P.p - 1)] * P.f).filter(any))
            for _ in range(n)]
    perm = data.draw(st.permutations(range(n)))  # P[k][perm[k]] = 1
    try:
        u = solve_matrix_linear(beta, seed)
    except SingularSeed:
        hypothesis.assume(False)
    table = teichmuller_table(P)
    monomial = ZqMatrix(tuple(
        tuple(P.from_coeffs(table[diag[k]]) if perm[k] == j else P.zero() for j in range(n))
        for k in range(n)))
    src = {j: k for k, j in enumerate(perm)}
    moved = tuple(tuple(row[src[j]] * P.fq(diag[src[j]]) for j in range(n)) for row in seed)
    v = solve_matrix_linear(beta, moved)
    assert [[e.coeffs for e in row] for row in v.entries] == \
        [[e.coeffs for e in row] for row in matrix_product(u, monomial).entries]


@SETTINGS
@hypothesis.given(ODD_RINGS.filter(lambda ring: ring[2] >= 3), st.data())
def test_matrix_solutions_at_n1_are_exponential_family_members(ring, data):
    # at n = 1, delta(u) = alpha u^p is the delta form of psi(u) = beta with
    # eps = 1 + p alpha: the lift of each seed is the family member zeta*base
    # with that residue (beta = log(eps)/p loses a digit, and the solver
    # needs two)
    P = get_params(*ring)
    alpha = _element(data, P)
    s = P.fq(data.draw(st.tuples(*[st.integers(0, P.p - 1)] * P.f).filter(any)))
    u = solve_matrix_linear(ZqMatrix(((alpha,),)), ((s,),)).entries[0][0]
    family = solve_exponential(ExponentialProblem.from_alpha(alpha).beta)
    member = next(m for m in family.members() if m.residue() == s)
    assert u.prec == P.N and member.prec >= P.N - 1
    assert u == member


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_from_digits_inverts_digits_and_matches_the_oracles(ring, data):
    P = get_params(*ring)
    u = _element(data, P).mask(data.draw(st.integers(1, P.N)))
    d = digits(u)
    assert [c.coeffs for c in d] == [c.coeffs for c in peel_digits(u)]
    v = from_digits(d)
    assert (v.coeffs, v.prec) == (u.coeffs, u.prec)
    w = from_digits(d.frobenius())
    assert (w.coeffs, w.prec) == (scaled_from_digits(d.frobenius()).coeffs, u.prec)


def _json(obj):
    return json.loads(json.dumps(obj))


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_wire_forms_survive_json_round_trips(ring, data):
    P = get_params(*ring)
    u = _element(data, P).mask(data.draw(st.integers(1, P.N)))
    v = ser.element_from_obj(_json(ser.element_to_obj(u)), P)
    assert (v.params, v.coeffs, v.prec) == (P, u.coeffs, u.prec)
    # standalone, the ring is rebuilt from the object at N = max(prec, 2)
    v = ser.element_from_obj(_json(ser.element_to_obj(u)))
    assert (v.params.p, v.params.f, v.params.poly, v.coeffs, v.prec) == \
        (P.p, P.f, P.poly, u.coeffs, u.prec)
    n = data.draw(st.integers(1, 3))
    m = ZqMatrix(tuple(tuple(_element(data, P) for _ in range(n)) for _ in range(n)))
    m = matrix_map(lambda e: e.mask(u.prec), m)
    back = ser.matrix_from_obj(_json(ser.matrix_to_obj(m)), P)
    assert back.prec == m.prec
    assert [[e.coeffs for e in row] for row in back.entries] == \
        [[e.coeffs for e in row] for row in m.entries]
    arity = data.draw(st.integers(1, 2))
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * arity), min_size=1,
                               max_size=4, unique=True))
    height = data.draw(st.integers(1, 9))
    coeffs = data.draw(st.lists(st.integers(-height, height).filter(bool),
                                min_size=len(monos), max_size=len(monos)))
    cert = RelationCertificate(
        tuple(monos), tuple(coeffs), data.draw(st.integers(1, P.N)),
        max(sum(e) for e in monos) + data.draw(st.integers(0, 2)), height, P.N,
        data.draw(st.sampled_from(("exhaustive", "lattice"))))
    assert ser.relation_certificate_from_obj(_json(ser.relation_certificate_to_obj(cert))) == cert


@SETTINGS
@hypothesis.given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 6), st.integers(1, 12), st.data())
def test_column_table_product_is_vec_mul(p, f, K, data):
    # any monic modulus, reducible ones included; columns stacked end to end
    # apply to the concatenated input
    mod = p ** K
    vec = st.tuples(*[st.integers(0, mod - 1)] * f)
    low = data.draw(st.one_of(st.just((0,) * f), vec))
    poly = low + (1,)
    x, y, w, z = (data.draw(vec) for _ in range(4))
    cols = pa.vec_mul_cols(y, poly, mod)
    assert len(cols) == f and all(len(col) == f for col in cols)
    assert pa.vec_apply(x, cols, mod) == pa.vec_mul(x, y, poly, mod)
    stacked = tuple(a + b for a, b in zip(cols, pa.vec_mul_cols(z, poly, mod)))
    assert len(stacked) == f and all(len(col) == 2 * f for col in stacked)
    assert pa.vec_apply(x + w, stacked, mod) == pa.vec_add(
        pa.vec_mul(x, y, poly, mod), pa.vec_mul(w, z, poly, mod), mod)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from((2, 3, 5, 7, 13)), st.integers(1, 10), st.integers(1, 12),
                  st.data())
def test_straight_line_kernels_match_the_loop_oracles(p, f, K, data):
    # any monic modulus: the zero-low one, reducible products and
    # coefficients up to p^K in size; inputs reduced, unreduced and negative
    mod = p ** K

    def vec(n=f):
        return data.draw(st.one_of(st.tuples(*[st.integers(0, mod - 1)] * n),
                                   st.tuples(*[st.integers(-2 * mod, 2 * mod)] * n)))

    def monic(d):
        return data.draw(st.tuples(*[st.integers(-mod, mod)] * d)) + (1,)

    low = data.draw(st.sampled_from(("zero", "wide", "reducible")))
    if low == "zero":
        poly = (0,) * f + (1,)
    elif low == "reducible" and f > 1:
        d = data.draw(st.integers(1, f - 1))
        g, h = monic(d), monic(f - d)
        poly = tuple(sum(g[i] * h[n - i] for i in range(len(g)) if 0 <= n - i < len(h))
                     for n in range(f + 1))
    else:
        poly = monic(f)
    a, b = vec(), vec()
    assert pa.vec_mul(a, b, poly, mod) == loop_vec_mul(a, b, poly, mod)
    cols = pa.vec_mul_cols(b, poly, mod)
    assert cols == loop_vec_mul_cols(b, poly, mod)
    assert pa.vec_apply(a, cols, mod) == loop_vec_apply(a, cols, mod)
    n = data.draw(st.integers(0, 4))
    xs, ys = [vec() for _ in range(n)], tuple(vec() for _ in range(n))
    assert pa.vec_dot(xs, ys, poly, mod) == loop_vec_dot(xs, ys, poly, mod)
    # columns stacked end to end, applied to inputs of every width up to theirs
    stacked = tuple(c + d for c, d in zip(cols, pa.vec_mul_cols(vec(), poly, mod)))
    x = vec(data.draw(st.integers(0, 2 * f)))
    assert pa.vec_apply(x, stacked, mod) == loop_vec_apply(x, stacked, mod)
    # powers, by the builtin pow at length 1 and square-and-multiply above
    e = data.draw(st.integers(0, 40))
    power = pa.vec_one(f)
    for _ in range(e):
        power = loop_vec_mul(power, a, poly, mod)
    assert pa.vec_pow(a, e, poly, mod) == power


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_ring_laws_at_mixed_precisions(ring, data):
    # associativity, distributivity and inverses at mixed precisions; mask is
    # a ring map to every lower precision; agreement_precision finds the
    # first digit where two elements differ
    P = get_params(*ring)
    a, b, c = (_element(data, P).mask(data.draw(st.integers(1, P.N))) for _ in range(3))
    abc = (a * b) * c
    assert abc == a * (b * c) and abc.prec == min(a.prec, b.prec, c.prec)
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    units = st.tuples(*[st.integers(0, P.p ** P.N - 1)] * P.f).filter(
        lambda cs: any(x % P.p for x in cs))
    w = P.from_coeffs(data.draw(units))
    u = w.mask(data.draw(st.integers(1, P.N)))
    assert (u * u.inv()).coeffs == P.one(u.prec).coeffs
    k = data.draw(st.integers(1, min(a.prec, b.prec)))
    for x, y in (((a * b).mask(k), a.mask(k) * b.mask(k)),
                 ((a - b).mask(k), a.mask(k) - b.mask(k))):
        assert (x.coeffs, x.prec) == (y.coeffs, y.prec)
    assert agreement_precision(a, a.mask(k)) == agreement_precision(a.mask(k), a) == k
    j = data.draw(st.integers(0, P.N))
    assert agreement_precision(a, a + w.mul_p_power(j)) == min(j, a.prec)


@SETTINGS
@hypothesis.given(st.sampled_from((2, 3, 5, 7, 101)), st.integers(1, 8), st.integers(2, 9),
                  st.data())
def test_inverse_by_the_norm_inverts(p, f, N, data):
    # u * u^-1 = 1 exactly at u's precision for every p, p = 2 included,
    # over random irreducible moduli up to f = 8, where the norm chain runs
    # every bit pattern of f-1; the inverse is an involution and multiplicative
    P = random_ring(random.Random(data.draw(st.integers(0, 2 ** 32))), p, f, N)
    units = st.tuples(*[st.integers(0, p ** N - 1)] * f).filter(lambda cs: any(x % p for x in cs))
    u = P.from_coeffs(data.draw(units)).mask(data.draw(st.integers(1, N)))
    v = P.from_coeffs(data.draw(units))
    w = u.inv()
    assert w.prec == u.prec and (u * w).coeffs == P.one(u.prec).coeffs
    assert (w.inv().coeffs, (u * v).inv().coeffs) == (u.coeffs, (w * v.inv()).coeffs)


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_valuation_is_an_int_capped_at_the_precision(ring, data):
    # valuation() is min(v_p, prec) as an int, prec exactly at 0; it adds
    # under products up to the product's precision, and a difference has
    # one valuation either way round
    P = get_params(*ring)

    def element():
        x = _element(data, P).mul_p_power(data.draw(st.integers(0, P.N)))
        return x.mask(data.draw(st.integers(1, P.N)))

    a, b = element(), element()
    for u in (a, b, a * b, a - b, P.zero(a.prec)):
        v = u.valuation()
        assert type(v) is int and v == guarded_valuation(u)
        assert 0 <= v <= u.prec and (v == u.prec) == u.is_zero()
    assert (a * b).valuation() == min(a.valuation() + b.valuation(), (a * b).prec)
    assert (a - b).valuation() == (b - a).valuation()


@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_difference_equation_recovers_its_solution_up_to_z_p(ring, data):
    # phi(u) = eps*u with eps = phi(v)/v has v as a solution, and any two
    # unit solutions differ by a unit of Z_p
    P = get_params(*ring)
    units = st.tuples(*[st.integers(0, P.p ** P.N - 1)] * P.f).filter(
        lambda cs: any(x % P.p for x in cs))
    v = P.from_coeffs(data.draw(units))
    ratio = solve_difference(frobenius(v) * v.inv()) * v.inv()
    assert ratio.is_unit() and frobenius(ratio) == ratio and not any(ratio.coeffs[1:])


@SETTINGS
@hypothesis.given(ODD_RINGS.filter(lambda ring: ring[2] >= 3), st.data())
def test_exponential_equation_recovers_its_solution_up_to_a_constant(ring, data):
    # psi(u) = psi(v) holds exactly when u/v is a Teichmuller unit
    P = get_params(*ring)
    units = st.tuples(*[st.integers(0, P.p ** P.N - 1)] * P.f).filter(
        lambda cs: any(x % P.p for x in cs))
    u = P.from_coeffs(data.draw(units))
    ratio = u * solve_exponential(psi(u)).base.inv()
    assert ratio == teichmuller(ratio.residue())

@SETTINGS
@hypothesis.given(RINGS, st.data())
def test_fused_horner_series_matches_vec_mul_oracle(ring, data):
    hypothesis.assume(ring[0] != 2)
    P = get_params(*ring)
    p = P.p
    target = data.draw(st.integers(2, P.N))
    x = _element(data, P).mul_p_power(1).mask(target)
    w = _element(data, P).mask(target)
    for arg, table in ((x, delta._log_terms(p, target)), (x, delta._exp_terms(p, target)),
                       (w, delta._psi_terms(p, target))):
        a, b = delta._series(arg, table, target), vec_mul_series(arg, table, target)
        assert (a.coeffs, a.prec) == (b.coeffs, b.prec)


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


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.tuples(st.sampled_from((3, 5, 7, 13, 101)), st.integers(1, 4),
                            st.integers(2, 30)), st.integers(0, 2 ** 32))
@hypothesis.example((3, 1, 2), 0)
@hypothesis.example((101, 4, 30), 1)
def test_psi_series_matches_the_log_route_oracle(ring, seed):
    # psi sums its series in delta(u)/u^p; the oracle sums the closed form
    # log(phi(u)/u^p)/p as the log series.  Both answers, and the psi form
    # of verify_exponential against the residual taken from the oracle, are
    # compared byte for byte, for u and beta known below full precision.
    P, rnd = get_params(*ring), random.Random(seed)
    N = P.N
    u = random_element(P, rnd, rnd.randint(2, N), unit=True)
    got, want = psi(u), log_route_psi(u)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    # beta is known to a random number of digits and agrees with psi(u) to another
    shift = random_element(P, rnd).mul_p_power(rnd.randint(0, N)).mask(N)
    beta = (lift(want, rnd) + shift).mask(rnd.randint(2, N))
    res = want - beta
    cert = verify_exponential(u, ExponentialProblem.from_beta(beta), base=u)
    assert cert.psi_form == (agreement_precision(res, P.zero(res.prec)), res.prec)


# (values, degree bound, height bound) with boxes of at most 3^8 vectors, so
# the oracle's walk over the whole box stays cheap
RELATION_BOXES = [(m, d, H) for m in (1, 2, 3) for d in (1, 2, 3) for H in (1, 2, 3)
                  if (2 * H + 1) ** comb(m + d, d) <= 3 ** 8]


def _relation_value(data, P, earlier):
    # a planted value is a quadratic in an earlier one; the first falls back to a unit
    kind = data.draw(st.sampled_from(
        ("unit", "zero", "int", "p-multiple", "teichmuller", "planted")))
    if kind == "planted" and earlier:
        u = data.draw(st.sampled_from(earlier))
        a, b, c = data.draw(st.tuples(*[st.integers(-2, 2)] * 3))
        return a * u * u + b * u + c
    if kind == "zero":
        return P.zero()
    if kind == "int":
        return P.from_int(data.draw(st.integers(-3, 3)))
    if kind == "p-multiple":
        return P.p * _element(data, P)
    if kind == "teichmuller":
        return teichmuller(_residue(data, P))
    return P.from_coeffs(data.draw(st.tuples(*[st.integers(0, P.p ** P.N - 1)] * P.f).filter(
        lambda c: any(x % P.p for x in c))))


@SETTINGS
@hypothesis.given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3),
                  st.sampled_from(RELATION_BOXES), st.data())
def test_exhaustive_relations_match_the_box_oracle(p, f, box, data):
    # the meet-in-the-middle search against every vector of the box, at the
    # lowest precisions the signal floor allows, where hits are common
    m, d, H = box
    bits_needed = 2 * (log2(2 * H + 1) + log2(comb(m + d, d) + 1))
    M = 2
    while M * f * log2(p) < bits_needed:
        M += 1
    P = get_params(p, f, M + data.draw(st.integers(0, 2)))
    values = []
    for _ in range(m):
        values.append(_relation_value(data, P, values))
    precision = data.draw(st.sampled_from((None, M)))
    query = RelationQuery(values=tuple(values), deg_bound=d, height_bound=H,
                          mode="exhaustive", precision=precision)
    assert find_relation(query) == candidate_find_relation(query)



# the oracle's lattice mode reduces by the Fraction LLL at every degree, so
# fewer examples keep this property near the others' cost
@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 4),
                  st.integers(1, 2), st.data())
def test_minimal_polynomial_matches_the_degree_loop_oracle(p, f, d, H, data):
    # one graded query against one query per degree, certificate for
    # certificate and in both modes, at the lowest precisions the floor allows
    bits_needed = 2 * (log2(2 * H + 1) + log2(d + 2))
    M = 2
    while M * f * log2(p) < bits_needed or p ** M <= H:
        M += 1
    P = get_params(p, f, M + data.draw(st.integers(0, 2)))
    u = _relation_value(data, P, [])
    precision = data.draw(st.sampled_from((None, M)))
    for mode in ("exhaustive", "lattice"):
        assert minimal_polynomial(u, d, H, mode=mode, precision=precision) == \
            degree_loop_minimal_polynomial(u, d, H, mode=mode, precision=precision)
    query = RelationQuery(values=(u,), deg_bound=d, height_bound=H, mode="exhaustive",
                          precision=precision)
    assert find_relation(query) == candidate_find_relation(query)

# 1-3 values, d <= 4, H <= 3: every box within EXHAUSTIVE_CAP is searched in
# both modes; a bigger one is refused in exhaustive mode and searched past the
# cap by LLL in lattice mode, which the oracle does one degree at a time too
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 3),
                  st.integers(1, 4), st.integers(1, 3), st.data())
def test_graded_search_matches_the_per_degree_oracle(p, f, m, d, H, data):
    # one meet-in-the-middle pass against one box search per degree: the same
    # certificate or None from find_relation and minimal_polynomial, both modes
    count = comb(m + d, d)
    bits_needed = 2 * (log2(2 * H + 1) + log2(count + 1))
    M = 2
    while M * f * log2(p) < bits_needed or p ** M <= H:
        M += 1
    # past the floor, a None is as likely as a hit
    P = get_params(p, f, M + data.draw(st.integers(0, 6)))
    values = []
    for _ in range(m):
        values.append(_relation_value(data, P, values))
    precision = data.draw(st.sampled_from((None, M)))
    for mode in ("exhaustive", "lattice"):
        if mode == "exhaustive" and (2 * H + 1) ** count > relations.EXHAUSTIVE_CAP:
            continue
        query = RelationQuery(values=tuple(values), deg_bound=d, height_bound=H, mode=mode,
                              precision=precision)
        found = per_degree_graded_search(query)
        assert find_relation(query) == (
            None if found is None else relations._certify(query, d, *found[1:]))
        query = RelationQuery(values=tuple(values[:1]), deg_bound=d, height_bound=H,
                              mode=mode, precision=precision)
        found = per_degree_graded_search(query)
        assert minimal_polynomial(values[0], d, H, mode=mode, precision=precision) == (
            None if found is None else relations._certify(query, *found))


@SETTINGS
@hypothesis.given(RINGS, st.integers(1, 3), st.data())
def test_integer_evaluation_matches_the_ring_oracle(ring, m, data):
    # sum c*w by integer multiples per coordinate against one ring product per
    # factor, negative coefficients and p = 2 included
    P = get_params(*ring)
    values = [_element(data, P) for _ in range(m)]
    monos = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), min_size=1, max_size=6))
    coeffs = data.draw(st.lists(st.integers(-60, 60), min_size=len(monos),
                                max_size=len(monos)))
    k = data.draw(st.integers(1, P.N))
    got = relations._evaluate(coeffs, relations._monomial_values(values, monos, k), P, k)
    want = _relation_evaluate(monos, coeffs, values, k)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


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


# JSON for the CLI fuzz: well-formed elements, matrices, value lists and
# certificates in the ring (5, 2, 6), with any of their parts or the whole
# replaced by a random tree of leaves the readers accept or refuse
FIELDS = ("p", "f", "prec", "poly", "coeffs", "entries", "n", "items", "kind", "beta",
          "u", "eps", "values", "precision", "certificate", "monomials",
          "verified_precision", "bounds", "d", "H", "M", "mode", "status")
WORDS = ("exhaustive", "lattice", "proven-congruence", "", "0x7", " 1", "+3", "-2")
LEAVES = (st.none() | st.booleans() | st.integers(-30, 30) | st.integers(-2 ** 70, 2 ** 70)
          | st.floats() | st.sampled_from(WORDS) | st.text("0123456789-\n\"", max_size=4))
TREES = st.recursive(LEAVES, lambda ch: st.lists(ch, max_size=3)
                     | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), ch,
                                       max_size=4), max_leaves=8)


def mostly(valid):
    """``valid``, or one time in five a random tree in its place."""
    return st.one_of(valid, valid, valid, valid, TREES)


SMALL = mostly(st.integers(-1, 7))
COEFFS = mostly(st.lists(mostly(st.integers(-5 ** 7, 5 ** 7).map(str) | st.integers(-9, 9)),
                         min_size=2, max_size=2))
ELEMENT = mostly(COEFFS | st.fixed_dictionaries(
    {"p": mostly(st.sampled_from((5, "5"))), "f": mostly(st.just(2)), "prec": SMALL,
     "coeffs": COEFFS}, optional={"poly": st.sampled_from(([2, 4, 1], [2, 0, 1])) | TREES}))
GRID = mostly(st.integers(1, 2).flatmap(
    lambda n: st.lists(st.lists(COEFFS, min_size=n, max_size=n), min_size=n, max_size=n)))
MATRIX = GRID | st.fixed_dictionaries({"entries": GRID}, optional={"prec": SMALL})
VALUES = mostly(st.lists(ELEMENT, min_size=1, max_size=2))
EXPONENTS = st.lists(mostly(st.integers(0, 3)), min_size=1, max_size=2)
CERTIFICATE = mostly(st.fixed_dictionaries(
    {"monomials": mostly(st.lists(EXPONENTS, min_size=1, max_size=3)),
     "coeffs": mostly(st.lists(mostly(st.integers(-8, 8)), min_size=1, max_size=3)),
     "verified_precision": SMALL,
     "bounds": mostly(st.fixed_dictionaries({"d": SMALL, "H": SMALL, "M": SMALL})),
     "mode": mostly(st.sampled_from(("exhaustive", "lattice"))) | st.sampled_from(WORDS)},
    optional={"status": mostly(st.just("proven-congruence"))}))
ITEM = st.one_of(
    st.fixed_dictionaries({"kind": st.just("exponential"), "beta": ELEMENT, "u": ELEMENT}),
    st.fixed_dictionaries({"kind": st.just("difference"), "eps": ELEMENT, "u": ELEMENT}),
    st.fixed_dictionaries({"kind": st.just("matrix"), "beta": MATRIX, "u": MATRIX}),
    st.fixed_dictionaries({"kind": st.just("relation"), "values": VALUES,
                           "certificate": CERTIFICATE}, optional={"precision": SMALL}))
ITEMS = st.lists(mostly(ITEM), max_size=2)
INPUTS = {"element": ELEMENT, "matrix": MATRIX, "values": VALUES,
          "items": ITEMS | st.fixed_dictionaries({"items": ITEMS}) | TREES}
SLOTS = {
    "digits": (["digits"], "element"), "delta": (["delta"], "element"),
    "log": (["log"], "element"), "exp": (["exp"], "element"), "psi": (["psi"], "element"),
    "jet": (["jet", "--order", "2"], "element"),
    "solve-mult": (["solve-mult", "--beta"], "element"),
    "solve-diff": (["solve-diff", "--eps"], "element"),
    "solve-matrix": (["solve-matrix", "--beta"], "matrix"),
    "seed": (["solve-matrix", "--beta", '[[["1","2"],["0","3"]],[["4","4"],["2","0"]]]',
              "--u0"], "matrix"),
    "relations": (["relations", "--deg", "2", "--height", "2", "--values"], "values"),
    "verify": (["verify"], "items"),
}


@pytest.mark.parametrize("slot", SLOTS)
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.data())
def test_cli_answers_random_json_with_an_exit_code_and_one_line(slot, data):
    argv, kind = SLOTS[slot]
    # inline JSON is an array or an object; anything else names a file
    arg = data.draw(INPUTS[kind].filter(lambda a: isinstance(a, (list, dict))))
    out, err = io.StringIO(), io.StringIO()
    code = run(["--p", "5", "--f", "2", "--prec", "6"] + argv + [json.dumps(arg)],
               stdout=out, stderr=err)
    assert code in (0, 2, 3, 4, 5)
    if code in (0, 3):
        assert json.loads(out.getvalue()) and err.getvalue() == ""
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
