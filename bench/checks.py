"""Checks of wittcalc's answers against the reference arithmetic or a law.

Every check takes plain data -- coefficient tuples, precisions, ints -- so
the same check serves answers returned in-process and answers parsed from
the CLI's JSON.  A check raises ``CheckFailed`` when the answer is wrong.
A planted relation that the probe does not find raises ``Missed``: that is
a failed operation, not a wrong answer.
"""

from math import gcd

from reference import cyclotomic


class CheckFailed(Exception):
    """The program's answer contradicts the reference or a law."""


class Missed(Exception):
    """The program gave no answer where one is known to exist."""


def need(cond, what):
    if not cond:
        raise CheckFailed(what)


def element(value, prec):
    """Coefficients of a wittcalc element, after checking its precision."""
    need(value.prec == prec, f"precision {value.prec}, expected {prec}")
    return tuple(value.coeffs)


# -- calculus ------------------------------------------------------------

def check_mul(R, a, b, out, k):
    need(R.eq(out, R.mul(a, b, k), k), "u*v")


def check_inv(R, a, out, k):
    need(R.eq(R.mul(a, out, k), R.one(), k), "u * u^-1 = 1")


def check_frobenius(R, a, out, k):
    need(R.eq(out, R.frob(a, k), k), "phi(u)")


def check_frobenius_inv(R, a, out, k):
    need(R.eq(R.frob(out, k), a, k), "phi(phi^-1(u)) = u")


def check_fermat_quotient(R, u, d, k):
    """p * delta(u) = phi(u) - u^p modulo p^k, where u is known mod p^k."""
    lhs = R.scale(d, R.p, k)
    rhs = R.sub(R.frob(u, k), R.pow(u, R.p, k), k)
    need(R.eq(lhs, rhs, k), "p*delta(u) = phi(u) - u^p")


def check_jet(R, entries):
    """entries: [(coeffs, prec)]; each is the Fermat quotient of the one before."""
    for (u, k), (d, kd) in zip(entries, entries[1:]):
        need(kd == k - 1, "jet precision drops by one per order")
        check_fermat_quotient(R, u, d, k)


def check_digits(R, u, digits, k):
    need(len(digits) == k, "one digit per unit of precision")
    need(all(0 <= c < R.p for d in digits for c in d), "digits are residues")
    need(R.eq(R.from_digits(digits, k), u, k), "sum omega(d_i) p^i = u")


def check_from_digits(R, digits, out, k):
    need(R.eq(out, R.from_digits(digits, k), k), "from_digits = sum omega(d_i) p^i")


def check_log(R, z, y, k):
    need(R.eq(y, R.log(z, k), k), "log(z)")


def check_exp_log(R, z, back, k):
    """exp(log(z)) = z, where back = exp(log(z)) as computed."""
    need(R.eq(back, z, k), "exp(log(1 + p*x)) = 1 + p*x")


def check_psi_additive(R, su, sv, suv, k):
    need(R.eq(suv, R.add(su, sv, k), k), "psi(uv) = psi(u) + psi(v)")


def check_psi(R, u, s, k):
    """p * psi(u) = log(phi(u) / u^p) modulo p^k, where u is known mod p^k."""
    ratio = R.mul(R.frob(u, k), R.inv(R.pow(u, R.p, k), k), k)
    need(R.eq(R.scale(s, R.p, k), R.log(ratio, k), k), "p*psi(u) = log(phi(u)/u^p)")


def check_series(R, series_value, psi_value, k):
    need(R.eq(series_value, psi_value, k), "psi's series at u = psi(u)")


# -- solvers -------------------------------------------------------------

def check_exponential_family(R, beta, base, constants, k):
    """phi(base) = exp(p*beta) * base^p, and the q-1 constants are omega's."""
    eps = R.exp(R.scale(beta, R.p, k), k)
    need(R.is_unit(base), "the base solution is a unit")
    need(R.eq(R.frob(base, k), R.mul(eps, R.pow(base, R.p, k), k), k),
         "phi(u) = eps * u^p")
    check_constants(R, constants, k)


def check_constants(R, constants, k):
    need(len(constants) == R.q - 1, "q-1 constants")
    residues = {R.residue(z) for z in constants}
    need(len(residues) == R.q - 1 and all(any(r) for r in residues),
         "constants have distinct nonzero residues")
    for z in constants:
        need(R.eq(R.pow(z, R.q - 1, k), R.one(), k), "z^(q-1) = 1")


def check_difference(R, eps, u, k):
    need(R.is_unit(u), "the solution is a unit")
    need(R.eq(R.frob(u, k), R.mul(eps, u, k), k), "phi(u) = eps * u")


def check_power_residue(R, eps, witness, exponent):
    """Stage mod-p: eps_bar^((q-1)/gcd(p-1, q-1)) is the witness and is not 1."""
    q1 = R.q - 1
    need(exponent == q1 // gcd(R.p - 1, q1), "power-residue exponent")
    need(tuple(witness) == R.fq_pow(R.residue(eps), exponent), "witness = eps_bar^exponent")
    need(tuple(witness) != R.lift_int(1, 1), "witness differs from 1")


def check_trace_obstruction(R, eps, stage, witness, trace, partial, expected_stage):
    """Stage k: the partial solves phi(u) = eps*u mod p^k, and the
    Artin-Schreier right-hand side c = -((phi(u)/(eps u) - 1)/p^k) mod p
    is the witness, with nonzero absolute trace."""
    p, k = R.p, stage
    need(stage == expected_stage, f"obstruction at stage {stage}, N(eps)-1 has valuation {expected_stage}")
    kk = k + 1
    r = R.mul(R.frob(partial, kk), R.inv(R.mul(eps, partial, kk), kk), kk)
    d = R.sub(r, R.one(), kk)
    need(all(x % p ** k == 0 for x in d), "the partial solves the equation mod p^k")
    c = tuple((-(x // p ** k)) % p for x in d)
    need(c == tuple(witness), "witness = Artin-Schreier right-hand side")
    t = R.fq_trace(c)
    need(t != 0 and t == trace, "the witness has the stated nonzero trace")


def check_matrix(R, beta, U, k):
    """phi(U) = (I + p*beta) * U^(p) entry-wise modulo p^k, with U = I mod p."""
    n = len(U)
    powered = [[R.pow(e, R.p, k) for e in row] for row in U]
    for i in range(n):
        for j in range(n):
            acc = powered[i][j]
            for m in range(n):
                acc = R.add(acc, R.scale(R.mul(beta[i][m], powered[m][j], k), R.p, k), k)
            need(R.eq(R.frob(U[i][j], k), acc, k), "phi(U) = (I + p beta) U^(p)")
            need(R.residue(U[i][j]) == R.lift_int(1 if i == j else 0, 1), "seed U = I mod p")


# -- relations -----------------------------------------------------------

def check_relation(R, values, monomials, coeffs, bounds, M, d, H):
    """A certificate: nonzero, inside its box, and P(values) = 0 mod p^M."""
    need(len(monomials) == len(coeffs) and any(coeffs), "nonzero certificate")
    need(all(abs(c) <= H for c in coeffs), "height within the bound")
    need(all(len(e) == len(values) and sum(e) <= d for e in monomials), "degree within the bound")
    need(bounds == (d, H, M), f"reported bounds {bounds}, searched {(d, H, M)}")
    acc = (0,) * R.f
    for e, c in zip(monomials, coeffs):
        term = R.lift_int(c, M)
        for v, x in zip(values, e):
            if x:
                term = R.mul(term, R.pow(v, x, M), M)
        acc = R.add(acc, term, M)
    need(not any(acc), "P(values) = 0 mod p^M")


def check_minimal_polynomial(monomials, coeffs, order):
    """An exhaustive search for a unit of exact order k returns Phi_k."""
    phi = cyclotomic(order)
    if next(c for c in phi if c) < 0:
        phi = [-c for c in phi]
    want = [((i,), c) for i, c in enumerate(phi) if c]
    need(list(zip(map(tuple, monomials), coeffs)) == want, f"minimal polynomial is Phi_{order}")
