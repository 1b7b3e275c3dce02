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
    PrecisionExhausted,
    SingularSeed,
    UnsupportedPrime,
    ZqElement,
    ZqMatrix,
    agreement_precision,
    conway_polynomial,
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
from wittcalc import solvers, zq

from conftest import get_params, oracle_exp
from oracles import (
    chained_constants,
    digitwise_solve_matrix_linear,
    fixed_point_solve_matrix_linear,
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


def test_self_verification_skips_the_ratio_it_knows(monkeypatch):
    # the base checked against itself takes its ratio form without inverting the
    # base; an equal but distinct copy takes the full path to the same certificate
    inverted = []
    inv = ZqElement.inv
    monkeypatch.setattr(ZqElement, "inv", lambda u: inverted.append(u) or inv(u))
    rng = random.Random(19)
    for p, f, N in [(3, 1, 7), (5, 2, 6), (3, 3, 9), (7, 1, 12)]:
        P = get_params(p, f, N)
        for prec in (2, N - 1, N):
            problem = ExponentialProblem.from_beta(random_element(P, rng, prec=prec))
            inverted.clear()
            base, cert = solvers._verified_base(problem)
            assert all(u is not base for u in inverted) and cert.ok
            assert cert.ratio == (base.prec - 1, base.prec - 1)
            copy = ZqElement(P, base.coeffs, base.prec)
            assert copy is not base and copy == base
            assert verify_exponential(base, problem, base=copy) == cert
            assert inverted[-1] is copy


def test_solve_exponential_rejects_p2():
    with pytest.raises(UnsupportedPrime):
        solve_exponential(get_params(2, 1, 8).from_int(1))


def test_verify_exponential_rejects_p2_on_a_hand_built_problem():
    # the constructors of ExponentialProblem refuse p = 2, but one built
    # field by field still reaches verify_exponential, which refuses it at psi
    P = get_params(2, 2, 8)
    u, beta = P.from_coeffs((3, 2)), P.from_int(1)
    problem = ExponentialProblem(beta, 1 + beta.mul_p_power(1), beta)
    for base in (None, u):
        with pytest.raises(UnsupportedPrime):
            verify_exponential(u, problem, base=base)


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
        consts = enumerate_constants(P)
        assert tuple(z.coeffs for z in consts) == per_residue_constants(P)
        # the half chain and its negatives against all q-1 powers multiplied out
        assert [(z.coeffs, z.prec) for z in consts] == \
            [(z.coeffs, z.prec) for z in chained_constants(P)]


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
    # the Taylor-block lift against the one-digit-per-step residual
    # correction, the fixed point taken W-1 times at full precision and the
    # fixed point at rising precision with one p-th power per entry per pass,
    # from the default identity seed and random invertible seeds; the
    # p = 2 rings put W on the block edges (blocks start at k = 2, 3, 5, 9,
    # 17), where the Taylor step is exact only to p^(2m)
    rng = random.Random(16)
    rings = [(2, 1, 7, None), (2, 2, 6, None), (3, 1, 7, None), (3, 2, 6, (1, 0, 1)),
             (5, 1, 6, None), (5, 3, 4, None), (7, 2, 5, None)]
    rings += [(2, 2, W, None) for W in (2, 3, 4, 5, 8, 9, 16, 17)]
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
                for old in (staged_solve_matrix_linear(beta, seed),
                            fixed_point_solve_matrix_linear(beta, seed),
                            digitwise_solve_matrix_linear(beta, seed)):
                    assert [[e.coeffs for e in row] for row in new.entries] == \
                        [[e.coeffs for e in row] for row in old.entries]
                    assert new.prec == old.prec == N


def test_matrix_seed_from_another_residue_field_refused():
    # a seed residue is only meaningful in beta's residue field: another p,
    # another f or another modulus mod p is refused, another N is not
    P = new_params(5, 2, 6)
    beta = _rand_matrix(P, random.Random(19), 2)
    others = (new_params(7, 2, 6), new_params(5, 3, 6), new_params(5, 2, 6, (2, 0, 1)))
    for Q in others:
        seed = ((Q.fq_from_int(6), Q.fq_from_int(0)), (Q.fq_from_int(0), Q.fq_from_int(6)))
        with pytest.raises(ParamsMismatch):
            solve_matrix_linear(beta, seed)
    Q = new_params(5, 2, 9)
    seed = ((Q.fq((2, 1)), Q.fq_from_int(0)), (Q.fq_from_int(1), Q.fq_from_int(3)))
    u = solve_matrix_linear(beta, seed)
    assert u.params is P
    assert u.residues() == tuple(tuple(P.fq(e.coeffs) for e in row) for row in seed)


def test_verify_matrix_linear_refuses_other_sizes_rings_and_one_digit():
    P = get_params(5, 1, 6)
    rng = random.Random(20)
    beta = _rand_matrix(P, rng, 3)
    with pytest.raises(ParamsMismatch):
        verify_matrix_linear(solve_matrix_linear(_rand_matrix(P, rng, 2)), beta)
    with pytest.raises(ParamsMismatch):
        verify_matrix_linear(solve_matrix_linear(_rand_matrix(get_params(5, 2, 6), rng, 3)), beta)
    u = solve_matrix_linear(beta)
    with pytest.raises(PrecisionExhausted):
        verify_matrix_linear(ZqMatrix(tuple(tuple(e.mask(1) for e in row)
                                            for row in u.entries)), beta)


def test_matrix_lift_check_refuses_a_changed_digit(monkeypatch):
    # the check of the answer does not go through the lift kernel, so a
    # block that returns one digit wrong is caught
    block = zq.pa.vec_lift_block

    def changed(*args):
        u = [list(row) for row in block(*args)]
        p, mod = args[3], args[-1]
        u[-1][0] = ((u[-1][0][0] + mod // p) % mod,) + tuple(u[-1][0][1:])
        return tuple(map(tuple, u))

    for p, f, N, n in ((7, 3, 20, 3), (2, 2, 6, 2), (5, 1, 9, 1)):
        beta = _rand_matrix(get_params(p, f, N), random.Random(21), n)
        solve_matrix_linear(beta)
        with monkeypatch.context() as mp:
            mp.setattr(zq.pa, "vec_lift_block", changed)
            with pytest.raises(ArithmeticError, match="matrix lift lost the invariant"):
                solve_matrix_linear(beta)


def test_matrix_arithmetic_masks_no_entry_twice(monkeypatch):
    # the constructor masks only entries above the common precision, so the
    # solver and the verifier re-mask nothing (masking every entry, one
    # solve took 585)
    P = get_params(7, 3, 20)
    beta = _rand_matrix(P, random.Random(18), 3)
    calls = []
    mask = ZqElement.mask
    monkeypatch.setattr(ZqElement, "mask", lambda e, prec: calls.append(1) or mask(e, prec))
    u = solve_matrix_linear(beta)
    assert len(calls) <= 9
    assert verify_matrix_linear(u, beta) == P.N - 1
    assert len(calls) <= 9
    # entries at other precisions are masked to one common precision
    rows = [list(row) for row in u.entries]
    rows[0][0] = rows[0][0].mask(5)
    mixed = ZqMatrix(rows)
    assert mixed.prec == 5 and all(e.prec == 5 for row in mixed.entries for e in row)
    # and an entry from another ring is refused
    rows[0][0] = get_params(7, 2, 20).from_int(1)
    with pytest.raises(ParamsMismatch):
        ZqMatrix(rows)


def test_solve_layer_cost_in_ring_products(ring_products):
    # Deterministic (vec_mul, vec_apply, vec_mul_cols) counts and vec_dot
    # calls.  With a fresh inverse of m'(y) per pass at p^N, the fixed point
    # at full precision and all q-1 powers of omega(gamma), these took 105
    # and 192 (the first two rings), 1,449 (the matrix solve) and 580 (the
    # constants, ring included) vec_mul calls; with each Frobenius table
    # entry its own power, (3,6,60) took 106 and (2,8,30) 127; with one p-th
    # power per entry per pass, the matrix solve took 729 vec_mul calls and
    # 180 vec_pow calls.  With schoolbook power chains and Frobenius tables
    # applied outside the kernel the five runs took 47, 351, 344, 98 and 109
    # vec_mul calls.  With the power chains applying column tables, and phi,
    # phi^(-1) and the Teichmuller orbit fill vec_apply calls, the matrix
    # solve took (351, 180, 0) and 180 vec_dot calls, one matrix product per
    # pass, and the constants (173, 175, 3), omega(gamma) one q-power.  Now
    # the matrix solve and the Teichmuller table share one Taylor-block lift
    # whose passes are vec_apply calls of column tables; only the solver's
    # full-precision check makes vec_dot calls.  The constants took
    # (111, 214, 8) while omega(gamma) filled its Frobenius orbit in the
    # table; now they are the table, filled whole from the powers of
    # omega(gamma), and the orbit's three vec_apply calls are gone.  The
    # passes of the shared lift were vec_apply calls, (180, 378, 54) for the
    # matrix solve and (111, 211, 8) for the constants; now each Taylor
    # block is one vec_lift_block call, and (180, 36, 54) and (111, 173, 8)
    # remain: the solver's columns of phi^(-1)(C_ik g^l) and its check's
    # Frobenius, and the constants' powers of omega(gamma).  Now those
    # powers are one vec_power_table walk, and the constants take
    # (111, 4, 8): the fresh ring's three and the check's Frobenius.  The
    # matrix solve sets up, checks its answer and tests its seed on
    # coefficient tuples with the same products, so its counts stay.
    # verify_matrix_linear at the same ring and beta took (72, 9, 0), 9
    # vec_dot and 18 vec_pow calls, all mod p^20, as delta(u) - beta @ u^(p)
    # on ring elements: a p-th power per entry for each Fermat quotient and
    # again for u^(p).  Now it is the solver's residual
    # phi(u) - (I + p*beta) @ u^(p) mod p^20 on coefficient tuples, one
    # p-th power per entry.  The ring builds are cold: a ring equal to one
    # built before shares its modulus and Frobenius tables and makes no
    # product, so a second equal build is pinned at (0, 0, 0).
    # the Conway search's products are not the solve layer's
    for p, f in ((7, 3), (3, 6), (2, 8)):
        conway_polynomial(p, f)
    P = new_params(7, 3, 20)
    beta = _rand_matrix(P, random.Random(18), 3)
    u = solve_matrix_linear(beta)

    def cold(p, f, N):
        zq._ring_structure.cache_clear()
        return new_params(p, f, N)

    runs = ((lambda: cold(7, 3, 20), (45, 3, 2), 0, 0, 0),
            (lambda: new_params(7, 3, 20), (0, 0, 0), 0, 0, 0),
            (lambda: solve_matrix_linear(beta), (180, 36, 54), 9, 5, 0),
            (lambda: verify_matrix_linear(u, beta), (36, 9, 0), 9, 0, 0),
            (lambda: enumerate_constants(cold(7, 3, 20)), (111, 4, 8), 0, 5, 1),
            (lambda: cold(3, 6, 60), (90, 12, 2), 0, 0, 0),
            (lambda: new_params(3, 6, 60), (0, 0, 0), 0, 0, 0),
            (lambda: cold(2, 8, 30), (97, 18, 2), 0, 0, 0))
    for run, counts, dots, blocks, tables in runs:
        got = ring_products(run)
        assert got == counts and len(ring_products.calls["vec_dot"]) == dots
        assert len(ring_products.calls["vec_lift_block"]) == blocks
        assert len(ring_products.calls["vec_power_table"]) == tables
        # a warm build calls no kernel at all
        assert any(counts) or not any(ring_products.calls.values())
    # the matrix lift takes one p-th power per entry per Taylor block, the
    # blocks starting at k = 2, 3, 5, 9, 17 and ending at p^2, p^4, p^8,
    # p^16 and p^20, and the check one more per entry mod p^20
    ring_products(lambda: solve_matrix_linear(beta))
    assert ring_products.calls["vec_pow"] == [7 ** k for k in (2, 4, 8, 16, 20, 20)
                                              for _ in range(9)]
    assert ring_products.calls["vec_lift_block"] == [7 ** k for k in (2, 4, 8, 16, 20)]
    ring_products(lambda: verify_matrix_linear(u, beta))
    assert ring_products.calls["vec_pow"] == [7 ** 20] * 9
