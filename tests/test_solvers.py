"""Equation families: multiplicative, difference, and matrix solvers."""

import random
from fractions import Fraction

import pytest

from wittcalc import (
    BudgetExceeded,
    ExponentialProblem,
    NonUnit,
    Obstruction,
    ParamsMismatch,
    SingularSeed,
    UnsupportedPrime,
    ZqElement,
    ZqMatrix,
    agreement_precision,
    enumerate_constants,
    fermat_quotient,
    frobenius,
    new_params,
    padic_exp,
    phi_norm,
    psi,
    random_element,
    solve_difference,
    solve_exponential,
    solve_matrix_linear,
    teichmuller,
    verify_exponential,
    verify_matrix_linear,
)
from wittcalc import solvers

from conftest import get_params, oracle_exp
from oracles import (
    per_residue_constants,
    staged_solve_difference,
    staged_solve_matrix_linear,
    termwise_frobenius_sum,
)


# ---------------------------------------------------------------------------
# multiplicative family

def test_beta_zero_family_is_teichmuller():
    P = get_params(3, 1, 6)
    fam = solve_exponential(P.zero())
    assert fam.base == 1
    assert [z.coeffs[0] for z in fam.constants] == [1, 3 ** 6 - 1]


def test_beta_one_base_matches_geometric_sum_oracle():
    # For f = 1, phi is the identity, so sum p^n beta = p*beta/(1-p); with
    # p = 3, beta = 1 this is -3/2 and base = exp(-3/2).
    N = 9
    P = get_params(3, 1, N)
    fam = solve_exponential(P.from_int(1))
    geometric = sum(3 ** n for n in range(1, N)) % 3 ** N
    assert geometric == -3 * pow(2, -1, 3 ** N) % 3 ** N
    assert fam.base == oracle_exp(Fraction(-3, 2), 3, N)


def test_three_forms_consistency():
    P = get_params(5, 2, 10)
    rng = random.Random(0)
    beta = random_element(P, rng)
    prob = ExponentialProblem.from_beta(beta)
    # eps = 1 + p*alpha ties the derived quantities together
    assert prob.epsilon == 1 + prob.alpha.mul_p_power(1)
    assert (prob.epsilon - 1).valuation() >= 1 or (prob.epsilon - 1).is_zero()
    u = solve_exponential(beta).base
    assert frobenius(u) == prob.epsilon * u ** 5
    assert agreement_precision(fermat_quotient(u), prob.alpha * u ** 5) >= 9
    assert agreement_precision(psi(u), beta) >= 9


def test_problem_constructors_agree():
    P = get_params(7, 1, 8)
    rng = random.Random(1)
    alpha = random_element(P, rng)
    prob = ExponentialProblem.from_alpha(alpha)
    via_eps = ExponentialProblem.from_epsilon(prob.epsilon)
    via_beta = ExponentialProblem.from_beta(prob.beta)
    assert via_eps.alpha == alpha
    assert via_eps.beta == prob.beta
    assert agreement_precision(via_beta.alpha, alpha) >= 7


def test_family_members_all_verify():
    rng = random.Random(2)
    for p, f in [(3, 1), (5, 2)]:
        P = get_params(p, f, 10)
        beta = random_element(P, rng)
        fam = solve_exponential(beta)
        assert len(fam.constants) == p ** f - 1
        for u in fam.members():
            cert = verify_exponential(u, fam.problem, base=fam.base)
            assert cert.ok
            assert cert.delta_form[0] >= 9


def test_family_closure_both_directions():
    P = get_params(5, 1, 10)
    rng = random.Random(3)
    fam = solve_exponential(random_element(P, rng))
    members = list(fam.members())
    for u in members[:3]:
        for v in members[:3]:
            ratio = u * v.inv()
            assert fermat_quotient(ratio) == 0
            assert ratio == teichmuller(ratio.residue())


def test_non_member_fails_with_reported_precision():
    P = get_params(5, 1, 8)
    fam = solve_exponential(P.zero())
    cert = verify_exponential(1 + P.from_int(5), fam.problem, base=fam.base)
    assert not cert.ok
    # delta(1+p) = 1 - p + O(p^2) is a unit, so agreement starts at 0
    assert cert.delta_form[0] == 0
    assert cert.ratio[0] == 0


def test_exhaustive_toy_scale_cross_check():
    # p=3, f=1, N=4: compare the family against brute force over all 54
    # units of Z/81, using plain integer arithmetic as the oracle.
    N = 4
    P = get_params(3, 1, N)
    rng = random.Random(4)
    for _ in range(5):
        alpha = random_element(P, rng)
        fam = solve_exponential(ExponentialProblem.from_alpha(alpha).beta)
        solver_set = {(z * fam.base).coeffs[0] for z in fam.constants}
        a = alpha.coeffs[0]
        brute = set()
        for u in range(81):
            if u % 3 == 0:
                continue
            if ((u - u ** 3) // 3 - a * u ** 3) % 27 == 0:
                brute.add(u)
        assert brute == solver_set


def test_verified_base_matches_termwise_oracle(monkeypatch):
    # the base from f applications of phi^(-1) against one per term of the sum
    rng = random.Random(17)
    for p, f, N in [(3, 1, 7), (5, 1, 5), (3, 2, 8), (5, 2, 6), (7, 2, 4), (3, 3, 9),
                    (5, 3, 5), (11, 3, 3)]:
        P = get_params(p, f, N)
        for prec in [2, 3, N - 1, N] * 2:
            beta = random_element(P, rng, prec=max(2, prec))
            problem = ExponentialProblem.from_beta(beta)
            calls = []
            inv = solvers.frobenius_inv
            with monkeypatch.context() as m:
                m.setattr(solvers, "frobenius_inv", lambda u: calls.append(1) or inv(u))
                base, cert = solvers._verified_base(problem)
            assert len(calls) == f
            old = padic_exp(termwise_frobenius_sum(beta))
            assert (base.coeffs, base.prec) == (old.coeffs, old.prec)
            assert cert.ok


def test_solve_exponential_rejects_p2():
    with pytest.raises(UnsupportedPrime):
        solve_exponential(get_params(2, 1, 8).from_int(1))


def test_enumerate_constants_frozen_and_properties():
    P = get_params(5, 1, 2)
    assert sorted(z.coeffs[0] for z in enumerate_constants(P)) == [1, 7, 18, 24]
    P9 = get_params(3, 2, 8)
    consts = enumerate_constants(P9)
    assert len(consts) == 8
    for z in consts:
        assert z ** 8 == 1
        assert fermat_quotient(z) == 0
    # distinct mod p
    assert len({z.residue().coeffs for z in consts}) == 8


def test_constants_match_per_residue_oracle():
    # powers of omega(first generator) against one iterated lift per residue
    P = new_params(3, 2, 6, (1, 0, 1))
    assert P.gen().residue() ** 4 == P.fq_from_int(1)  # g has order 4 in F_9^*, not 8
    rings = [P] + [new_params(p, f, N) for p, f, N in
                   [(2, 1, 6), (2, 2, 5), (2, 3, 7), (3, 1, 8), (3, 3, 5),
                    (5, 1, 6), (5, 2, 5), (7, 2, 4), (13, 1, 4)]]
    rings.append(new_params(2, 4, 6, (1, 1, 1, 1, 1)))  # g has order 5 in F_16^*
    for P in rings:
        assert tuple(z.coeffs for z in enumerate_constants(P)) == per_residue_constants(P)


# ---------------------------------------------------------------------------
# difference family

def test_difference_eps_one_and_fixed_ring():
    P = get_params(3, 2, 3)
    assert solve_difference(P.one()) == 1
    # exhaustive: phi(u) = u on units of Z_9/27 picks out exactly the units
    # of Z/27 embedded as constant polynomials
    fixed = set()
    for a in range(27):
        for b in range(27):
            if a % 3 == 0 and b % 3 == 0:
                continue
            u = P.from_coeffs((a, b), prec=3)
            if frobenius(u) == u:
                fixed.add((a, b))
    expected = {(a, 0) for a in range(27) if a % 3 != 0}
    assert fixed == expected


def test_difference_teichmuller_identity():
    for p, f in [(3, 2), (5, 2)]:
        P = get_params(p, f, 8)
        zeta = teichmuller(P.gen().residue())
        eps = zeta ** (p - 1)
        assert frobenius(zeta) == eps * zeta
        u = solve_difference(eps)
        assert not isinstance(u, Obstruction)
        assert frobenius(u) == eps * u


def test_difference_mod_p_obstruction_for_generator():
    P = get_params(3, 2, 10)
    gbar = P.gen().residue()
    # oracle: no element of F_9 squares to the generator (exhaustive)
    squares = set()
    for a in range(3):
        for b in range(3):
            x = P.fq((a, b))
            squares.add((x * x).coeffs)
    assert gbar.coeffs not in squares
    result = solve_difference(P.gen() + 0)
    assert isinstance(result, Obstruction)
    assert result.stage == "mod-p"
    assert result.kind == "power-residue"
    # witness recheck: eps_bar^((q-1)/gcd) really is not 1
    assert gbar ** result.exponent == result.witness
    assert result.witness != P.fq_from_int(1)


def test_difference_trace_obstruction_witness_rechecks():
    P = get_params(3, 2, 8)
    rng = random.Random(5)
    seen_trace = False
    for _ in range(60):
        eps = random_element(P, rng, unit=True)
        result = solve_difference(eps)
        if isinstance(result, Obstruction) and result.kind == "trace":
            seen_trace = True
            k, u = result.stage, result.partial
            assert frobenius(u) * (eps * u).inv() - 1 == P.zero(k + 0)
            d = (frobenius(u) * (eps * u).inv() - 1).exact_div_p(k)
            assert -d.residue() == result.witness
            assert result.witness.trace() == result.trace != 0
            break
    assert seen_trace


def test_difference_phi_norm_consistency():
    P = get_params(3, 2, 4)
    rng = random.Random(6)
    for _ in range(40):
        eps = random_element(P, rng, unit=True)
        if phi_norm(eps) != 1:
            assert isinstance(solve_difference(eps), Obstruction)


def test_difference_rejects_non_units_and_works_at_p2():
    P = get_params(3, 2, 8)
    with pytest.raises(NonUnit):
        solve_difference(P.from_int(3))
    # no exp is involved, so p = 2 is allowed here
    P2 = get_params(2, 2, 6)
    u = solve_difference(P2.one())
    assert frobenius(u) == u
    zero = ZqMatrix(((P2.zero(),),))
    m = solve_matrix_linear(zero)
    assert m.entries[0][0] == 1


def test_difference_solution_survives_norm_one_inputs():
    # eps built as phi(v)/v always has norm 1 and must be solvable
    P = get_params(5, 2, 8)
    rng = random.Random(7)
    for _ in range(10):
        v = random_element(P, rng, unit=True)
        eps = frobenius(v) * v.inv()
        u = solve_difference(eps)
        assert not isinstance(u, Obstruction)
        assert frobenius(u) == eps * u


def _normalised(v):
    """v scaled so that its first coefficient prime to p is 1."""
    p = v.params.p
    return v * pow(next(a for a in v.coeffs if a % p), -1, p ** v.prec)


def test_difference_closed_form_is_the_normalised_solution():
    rng = random.Random(13)
    for p, f, N in [(2, 3, 8), (3, 2, 8), (5, 3, 6), (7, 1, 5), (2, 1, 6)]:
        P = get_params(p, f, N)
        for _ in range(8):
            v = random_element(P, rng, unit=True)
            assert solve_difference(frobenius(v) * v.inv()) == _normalised(v)


def test_constants_are_bounded(monkeypatch):
    with pytest.raises(BudgetExceeded):
        solve_exponential(new_params(36893488147419104219, 1, 4).one())
    # q - 1 = 24 constants at (5, 2): refused one below, listed at the bound
    P = get_params(5, 2, 6)
    monkeypatch.setattr(solvers, "MAX_CONSTANTS", 23)
    with pytest.raises(BudgetExceeded, match="q - 1 = 24"):
        enumerate_constants(P)
    with pytest.raises(BudgetExceeded):
        solve_exponential(P.zero())
    monkeypatch.setattr(solvers, "MAX_CONSTANTS", 24)
    assert len(solve_exponential(P.zero()).constants) == 24


def test_difference_norm_one_on_a_66_bit_prime():
    P = new_params(36893488147419104219, 1, 4)
    assert solve_difference(P.one()) == 1


def test_difference_matches_staged_oracle():
    # the staged lift (generator, discrete log, one Artin-Schreier system per
    # step) against the closed form, on random eps of every kind
    rng = random.Random(14)
    rings = [(2, 1, 6), (2, 2, 7), (2, 3, 6), (3, 1, 6), (3, 2, 7), (3, 3, 5),
             (5, 1, 5), (5, 2, 6), (7, 2, 5), (13, 1, 4)]
    kinds = set()
    for p, f, N in rings:
        P = get_params(p, f, N)
        for trial in range(12):
            v = random_element(P, rng, unit=True)
            eps = frobenius(v) * v.inv()  # norm 1: solvable
            if trial % 3 == 1:
                # N(eps) - 1 gets valuation k when Tr(c mod p) != 0
                k = rng.randrange(1, N)
                eps = eps * (random_element(P, rng).mul_p_power(k) + 1)
            elif trial % 3 == 2:
                eps = random_element(P, rng, unit=True)
            new, old = solve_difference(eps), staged_solve_difference(eps)
            assert isinstance(new, Obstruction) == isinstance(old, Obstruction)
            if not isinstance(new, Obstruction):
                kinds.add("solution")
                assert frobenius(new) == eps * new
                ratio = new * old.inv()
                assert frobenius(ratio) == ratio
                continue
            kinds.add(new.kind)
            assert (new.stage, new.kind, new.trace, new.exponent) == \
                (old.stage, old.kind, old.trace, old.exponent)
            if new.kind == "power-residue":
                assert new.witness == old.witness
                assert eps.residue() ** new.exponent == new.witness
                continue
            k, u = new.stage, new.partial
            r = frobenius(u) * (eps * u).inv() - 1
            assert -r.exact_div_p(k).residue() == new.witness
            assert new.witness.trace() == new.trace != 0
    assert kinds == {"solution", "power-residue", "trace"}


# ---------------------------------------------------------------------------
# matrix family

def _rand_matrix(P, rng, n):
    return ZqMatrix(tuple(tuple(random_element(P, rng) for _ in range(n))
                          for _ in range(n)))


def test_matrix_residual_and_determinism():
    P = get_params(5, 1, 10)
    rng = random.Random(8)
    beta = _rand_matrix(P, rng, 2)
    u1 = solve_matrix_linear(beta)
    u2 = solve_matrix_linear(beta)
    assert u1 == u2
    assert verify_matrix_linear(u1, beta) >= 9


def test_matrix_beta_zero_gives_teichmuller_entries():
    P = get_params(5, 1, 10)
    zero = ZqMatrix(tuple(tuple(P.zero() for _ in range(2)) for _ in range(2)))
    seed = ((P.fq_from_int(2), P.fq_from_int(0)),
            (P.fq_from_int(1), P.fq_from_int(3)))
    u = solve_matrix_linear(zero, seed)
    for i in range(2):
        for j in range(2):
            assert u.entries[i][j] == teichmuller(seed[i][j])
            assert fermat_quotient(u.entries[i][j]) == 0


def test_matrix_n1_matches_scalar_family():
    P = get_params(5, 1, 10)
    rng = random.Random(9)
    for _ in range(5):
        b = random_element(P, rng)
        beta = ZqMatrix(((b,),))
        fam = solve_exponential(ExponentialProblem.from_alpha(b).beta)
        for a in range(1, 5):
            u = solve_matrix_linear(beta, ((P.fq_from_int(a),),)).entries[0][0]
            member = teichmuller(P.fq_from_int(a)) * fam.base
            assert agreement_precision(u, member) >= 9


def test_matrix_singular_seed_rejected():
    P = get_params(5, 1, 10)
    rng = random.Random(10)
    beta = _rand_matrix(P, rng, 2)
    seed = ((P.fq_from_int(1), P.fq_from_int(2)),
            (P.fq_from_int(2), P.fq_from_int(4)))
    with pytest.raises(SingularSeed):
        solve_matrix_linear(beta, seed)


def test_matrix_solutions_form_torsor_over_seeds():
    # distinct invertible seeds give solutions distinct mod p
    P = get_params(3, 1, 6)
    rng = random.Random(11)
    beta = _rand_matrix(P, rng, 2)
    seeds = [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 1), (0, 1))]
    sols = []
    for s in seeds:
        grid = tuple(tuple(P.fq_from_int(x) for x in row) for row in s)
        u = solve_matrix_linear(beta, grid)
        assert u.residues() == grid
        sols.append(u)
    assert len({tuple(e.coeffs for row in u.entries for e in row) for u in sols}) == 3


def test_matrix_lift_matches_staged_oracle():
    # the fixed-point lift against the one-digit-per-step residual correction,
    # from the default identity seed and from random invertible seeds
    rng = random.Random(16)
    rings = [(2, 1, 7, None), (2, 2, 6, None), (3, 1, 7, None), (3, 2, 6, (1, 0, 1)),
             (5, 1, 6, None), (5, 3, 4, None), (7, 2, 5, None)]
    for p, f, N, poly in rings:
        P = new_params(p, f, N, poly)
        for n in (1, 2, 3):
            beta = _rand_matrix(P, rng, n)
            one = tuple(tuple(P.fq_from_int(int(i == j)) for j in range(n)) for i in range(n))
            solved = [(solve_matrix_linear(beta), one)]
            while len(solved) < 3:
                seed = tuple(tuple(P.fq(rng.randrange(p) for _ in range(f))
                                   for _ in range(n)) for _ in range(n))
                try:
                    solved.append((solve_matrix_linear(beta, seed), seed))
                except SingularSeed:
                    pass
            for new, seed in solved:
                old = staged_solve_matrix_linear(beta, seed)
                assert [[e.coeffs for e in row] for row in new.entries] == \
                    [[e.coeffs for e in row] for row in old.entries]
                assert new.prec == old.prec == N


def test_matrix_arithmetic_masks_no_entry_twice(monkeypatch):
    # the constructor masks only entries above the common precision, so map,
    # +, - and @ re-mask nothing (masking every entry, one solve took 585)
    P = get_params(7, 3, 20)
    beta = _rand_matrix(P, random.Random(18), 3)
    calls = []
    mask = ZqElement.mask
    monkeypatch.setattr(ZqElement, "mask", lambda e, prec: calls.append(1) or mask(e, prec))
    u = solve_matrix_linear(beta)
    assert len(calls) <= 9
    assert verify_matrix_linear(u, beta) == P.N - 1
    # a map that changes some precisions still yields one common precision
    mixed = u.map(lambda e: e.mask(5) if e is u.entries[0][0] else e)
    assert mixed.prec == 5 and all(e.prec == 5 for row in mixed.entries for e in row)
    assert mixed - u == ZqMatrix(tuple(tuple(P.zero(5) for _ in range(3)) for _ in range(3)))
    # and a map into another ring for some entries is still refused
    with pytest.raises(ParamsMismatch):
        u.map(lambda e: get_params(7, 2, 20).from_int(1) if e is u.entries[0][0] else e)
