"""Solvers and verifiers for three equation families over Z_q/p^N.

Multiplicative family (p odd):   psi(u) = beta   is equivalent to
phi(u) = eps * u^p  and to  delta(u) = alpha * u^p, where
eps = exp(p*beta) = 1 + p*alpha.  The solutions form a torsor under the
q-1 Teichmuller units: every solution is zeta * base with

    base = exp( sum_{n>=1} p^n phi^(-n)(beta) ),   delta(zeta) = 0.

Difference family:  phi(u) = eps * u.  By Hilbert 90 for the cyclic group
<phi>, a unit solution exists iff the norm N(eps) = eps phi(eps) ...
phi^(f-1)(eps) is 1, and then it is a closed-form sum, unique up to Z_p^*.
When N(eps) != 1 mod p^K, the valuation k of N(eps) - 1 is where it fails:
k = 0 is a power-residue condition on eps mod p, k >= 1 a nonzero trace.
Failures come back as ``Obstruction`` values carrying a recheckable witness,
not as exceptions.

Matrix family:  delta(u) = beta * u^(p), entry-wise p-th powers, i.e.
phi(u) = (I + p*beta) * u^(p).  Mod p the equation is vacuous, so any
invertible residue seed works, and each seed lifts uniquely: the solution
set is an exact GL_n(F_q)-torsor over seeds.  The lift is
``zq._frobenius_lift``, shared with the Teichmuller table: Taylor blocks in
which one p-th power per entry at a block start k = 2, 3, 5, 9, 17, ...
serves every digit up to p^(2k-2), the passes inside a block being affine
and the whole block one compiled kernel per grid shape.  The seed test, the
coupling I + p*beta and the check of the answer run on coefficient tuples;
only the answer is built as ring elements.  One residual,
phi(u) - (I + p*beta) * u^(p) = p * (delta(u) - beta * u^(p)), serves both
the solver's check of its answer and ``verify_matrix_linear``; its matrix
product is one vec_dot per entry, not the lift kernel it checks.
"""

from __future__ import annotations

import itertools

from . import polyarith as pa
from .delta import _psi, fermat_quotient, padic_exp, padic_log
from .errors import (
    BudgetExceeded,
    DomainError,
    NonUnit,
    ParamsMismatch,
    PrecisionExhausted,
    SingularSeed,
    UnsupportedPrime,
)
from .record import frozen_record
from .zq import (
    FqElement,
    ZqElement,
    _frobenius_lift,
    _same_residue_field,
    agreement_precision,
    frobenius,
    frobenius_inv,
    teichmuller_table,
)

# The most constants (q - 1 of them) that enumerate_constants will list.
MAX_CONSTANTS = 100_000


# ---------------------------------------------------------------------------
# multiplicative / exponential family

@frozen_record
class ExponentialProblem:
    """The right-hand side beta along with eps = exp(p*beta) and alpha = (eps-1)/p."""

    beta: ZqElement
    epsilon: ZqElement
    alpha: ZqElement

    @property
    def params(self):
        return self.beta.params

    @classmethod
    def from_beta(cls, beta):
        if beta.params.p == 2:
            raise UnsupportedPrime("the multiplicative family needs p odd")
        eps = padic_exp(beta.mul_p_power(1))
        return cls(beta, eps, (eps - 1).exact_div_p(1))

    @classmethod
    def from_alpha(cls, alpha):
        if alpha.params.p == 2:
            raise UnsupportedPrime("the multiplicative family needs p odd")
        eps = alpha.mul_p_power(1) + 1
        return cls(padic_log(eps).exact_div_p(1), eps, alpha)

    @classmethod
    def from_epsilon(cls, eps):
        if eps.params.p == 2:
            raise UnsupportedPrime("the multiplicative family needs p odd")
        if not (eps - 1).is_zero() and (eps - 1).valuation() < 1:
            raise DomainError("eps must lie in 1 + p*Z_q")
        return cls(padic_log(eps).exact_div_p(1), eps, (eps - 1).exact_div_p(1))


@frozen_record
class ExponentialCertificate:
    """Achieved vs. available agreement precision for each equation form.

    ``available`` is the precision at which the residual is computable from
    the inputs; an exact family member achieves it.  ``ratio`` certifies
    membership: delta(u / base) must vanish, i.e. u / base is Teichmuller.
    """

    phi_form: tuple
    delta_form: tuple
    psi_form: tuple
    ratio: tuple
    constants_count: int

    @property
    def ok(self):
        return all(ach >= avail for ach, avail in
                   (self.phi_form, self.delta_form, self.psi_form, self.ratio))


@frozen_record
class SolutionFamily:
    """base plus the q-1 Teichmuller constants parameterizing all solutions.

    ``certificate`` is the base's self-verification against all three forms.
    """

    problem: ExponentialProblem
    base: ZqElement
    constants: tuple
    certificate: ExponentialCertificate

    def members(self):
        for zeta in self.constants:
            yield zeta * self.base


def enumerate_constants(params):
    """All q-1 solutions of delta(u) = 0 among units: the Teichmuller lifts.

    They are the ring's Teichmuller table (``zq.teichmuller_table``, the
    powers of omega(gamma) for a generator gamma of F_q^*) without 0, read
    in ``itertools.product`` order of the residue coefficient vectors, which
    is lexicographic.  The budget is checked before the table is built.
    """
    p, f, q1 = params.p, params.f, params.p ** params.f - 1
    if q1 > MAX_CONSTANTS:
        raise BudgetExceeded(f"q - 1 = {q1} constants exceed the budget of {MAX_CONSTANTS}")
    table = teichmuller_table(params)
    nonzero = itertools.islice(itertools.product(range(p), repeat=f), 1, None)
    return tuple(ZqElement(params, table[c], params.N) for c in nonzero)


def _verified_base(problem):
    """The distinguished solution with its self-verification certificate.

    base = exp(sum_{n>=1} p^n phi^(-n)(beta)); the sum is exact since the
    n-th term has valuation >= n, and phi has order f, so it is taken as
    sum_{i=1..f} c_i phi^(-i)(beta), c_i = sum of p^n over n = i mod f.
    The base is verified against all three equation forms before returning.
    """
    beta = problem.beta
    params = beta.params
    if beta.prec < 2:
        raise PrecisionExhausted("solve_exponential needs precision >= 2")
    p, f, s_prec = params.p, params.f, min(beta.prec + 1, params.N)
    s, term = pa.vec_zero(f), beta
    for i in range(1, f + 1):
        term = frobenius_inv(term)
        c = sum(p ** n for n in range(i, s_prec, f))
        s = pa.vec_add(s, pa.vec_scale(term.coeffs, c, p ** s_prec), p ** s_prec)
    base = padic_exp(ZqElement(params, s, s_prec))
    cert = verify_exponential(base, problem, base=base)
    if not cert.ok:
        raise ArithmeticError("base solution failed self-verification")
    return base, cert


def solve_exponential(beta):
    """Solve psi(u) = beta over Z_q; returns the full solution family."""
    if beta.params.p == 2:
        raise UnsupportedPrime("the multiplicative family needs p odd")
    constants = enumerate_constants(beta.params)  # first, to fail at once past the budget
    problem = ExponentialProblem.from_beta(beta)
    base, cert = _verified_base(problem)
    return SolutionFamily(problem, base, constants, cert)


def verify_exponential(u, problem, base=None):
    """Certificate for u against psi(u)=beta and its two equivalent forms.

    When ``base`` is omitted the self-verified base is recomputed from the
    problem, so the membership check (u/base Teichmuller) is always present.
    """
    if not u.is_unit():
        raise NonUnit("candidate solutions must be units")
    p = u.params.p
    beta, eps, alpha = problem.beta, problem.epsilon, problem.alpha
    up = u ** p
    phi_u = frobenius(u)
    du = (phi_u - up).exact_div_p(1)
    phi_res = phi_u - eps * up
    delta_res = du - alpha * up
    psi_res = _psi(du, up) - beta
    if base is None:
        base, _ = _verified_base(problem)
    if u is base:  # u/base = 1, whose Fermat quotient is 0 at one digit less
        ratio_res = u.params.zero(u.prec - 1)
    else:
        ratio_res = fermat_quotient(u * base.inv())
    forms = tuple(
        (agreement_precision(r, r.params.zero(r.prec)), r.prec)
        for r in (phi_res, delta_res, psi_res, ratio_res))
    return ExponentialCertificate(
        phi_form=forms[0], delta_form=forms[1], psi_form=forms[2],
        ratio=forms[3],
        constants_count=p ** u.params.f - 1)


# ---------------------------------------------------------------------------
# difference family

@frozen_record
class Obstruction:
    """Why phi(u) = eps*u has no solution: the norm N(eps) is not 1.

    ``stage`` is "mod-p" or k = v_p(N(eps) - 1) >= 1.  The witness is the
    residue value whose recomputation reproduces the failure: for
    "power-residue" it is the residue of N(eps), which equals
    eps_bar^((q-1)/(p-1)) != 1; for "trace" it is
    c = -((phi(u)/(eps*u) - 1)/p^k mod p) with Tr(c) != 0, computed from the
    partial u, which solves the equation mod p^k.
    """

    stage: object
    kind: str
    witness: FqElement
    exponent: int = 0
    trace: int = 0
    partial: ZqElement = None


def phi_norm(eps):
    """eps * phi(eps) * ... * phi^(f-1)(eps)."""
    acc = eps
    t = eps
    for _ in range(eps.params.f - 1):
        t = frobenius(t)
        acc = acc * t
    return acc


def solve_difference(eps):
    """Solve phi(u) = eps * u over Z_q, to the precision of eps.

    Closed form by Hilbert 90 for the cyclic group <phi>: with
    b_0 = 1 and b_(i+1) = b_i * phi^i(eps^-1), the sum
    u = sum_(i<f) b_i phi^i(c) satisfies phi(u) = eps*u + eps*c*(N(eps)^-1 - 1),
    and some basis element c in 1, g, ..., g^(f-1) makes u a unit.  u is
    scaled so that its first coefficient prime to p is 1.  Returns u, or an
    Obstruction as a value when N(eps) != 1.
    """
    params = eps.params
    if not eps.is_unit():
        raise NonUnit("eps must be a unit")
    p, f, K = params.p, params.f, eps.prec
    norm = phi_norm(eps)
    if norm.residue() != params.fq_from_int(1):
        return Obstruction(stage="mod-p", kind="power-residue",
                           witness=norm.residue(), exponent=(p ** f - 1) // (p - 1))
    twists = [params.one(K)]
    t = eps.inv()
    for _ in range(f - 1):
        twists.append(twists[-1] * t)
        t = frobenius(t)
    for i in range(f):
        c = params.from_coeffs(tuple(int(j == i) for j in range(f)), K)
        u = params.zero(K)
        for b in twists:
            u = u + b * c
            c = frobenius(c)
        if u.is_unit():
            break
    else:
        raise ArithmeticError("no basis element gives a unit solution")
    u = u * pow(next(a for a in u.coeffs if a % p), -1, p ** K)
    if not (norm - 1).is_zero():
        # N(eps) = 1 + p^k s with s a unit; N(phi(u)/(eps*u)) = N(eps)^-1 makes
        # the trace of the witness -s mod p, which is nonzero
        k = (norm - 1).valuation()
        c = (-(frobenius(u) * (eps * u).inv() - 1).exact_div_p(k)).residue()
        return Obstruction(stage=k, kind="trace", witness=c,
                           trace=c.trace(), partial=u)
    if frobenius(u) != eps * u:
        raise ArithmeticError("difference solution lost the invariant")
    return u


# ---------------------------------------------------------------------------
# matrix family

class ZqMatrix:
    """A square matrix over Z_q with one common precision (the entry minimum)."""

    __slots__ = ("params", "entries", "n", "prec")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise DomainError("matrix must be square and non-empty")
        params = entries[0][0].params
        prec = min(e.prec for row in entries for e in row)
        if any(e.params is not params and e.params != params for row in entries for e in row):
            raise ParamsMismatch("matrix entries live in different rings")
        self.params = params
        self.n = n
        self.prec = prec
        # entries already at the common precision are reduced mod p^prec
        self.entries = tuple(tuple(e if e.prec == prec else e.mask(prec) for e in row)
                             for row in entries)

    def residues(self):
        return tuple(tuple(e.residue() for e in row) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, ZqMatrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb))

    def __repr__(self):
        return f"ZqMatrix({self.n}x{self.n}, prec={self.prec})"


def _mat_mul(a, b, poly, mod):
    """The product of two grids of coefficient vectors, one vec_dot per entry."""
    cols = tuple(zip(*b))
    return tuple(tuple(pa.vec_dot(row, col, poly, mod) for col in cols) for row in a)


def _coupling(beta, mod):
    """C = I + p*beta mod ``mod``, a grid of coefficient tuples."""
    p, one = beta.params.p, pa.vec_one(beta.params.f)
    return tuple(tuple(pa.vec_add(pa.vec_scale(e.coeffs, p, mod), one, mod) if i == j
                       else pa.vec_scale(e.coeffs, p, mod) for j, e in enumerate(row))
                 for i, row in enumerate(beta.entries))


def _residual(params, coupling, u, mod):
    """phi(u) - C @ u^(p) mod ``mod`` on grids of coefficient tuples.

    The product is ``_mat_mul``, not the lift kernel, so a lift is checked
    by code that did not compute it.
    """
    p, poly = params.p, params.poly
    up = tuple(tuple(pa.vec_pow(e, p, poly, mod) for e in row) for row in u)
    return tuple(tuple(pa.vec_sub(pa.vec_apply(e, params._phi_cols, mod), c, mod)
                       for e, c in zip(row, c_row))
                 for row, c_row in zip(u, _mat_mul(coupling, up, poly, mod)))


def _residue_invertible(rows, poly, p):
    """Gaussian elimination over F_q on a grid of residue coefficient tuples."""
    n = len(rows)
    rows = [list(row) for row in rows]
    for col in range(n):
        piv = next((i for i in range(col, n) if any(rows[i][col])), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pa.vec_inv(rows[col][col], poly, p, 1)
        rows[col] = [pa.vec_mul(x, inv, poly, p) for x in rows[col]]
        for i in range(n):
            if i != col and any(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [pa.vec_sub(x, pa.vec_mul(factor, y, poly, p), p)
                           for x, y in zip(rows[i], rows[col])]
    return True


def _seed_residue(params, e):
    """A seed entry as a residue of params; a ring element must share its residue field."""
    if not isinstance(e, ZqElement):
        return params.fq(e)
    if not _same_residue_field(params, e.params):
        raise ParamsMismatch("seed entry lives in another residue field")
    return params.fq(e.coeffs)


def solve_matrix_linear(beta, seed=None):
    """Solve delta(u) = beta * u^(p) with u invertible, from a mod-p seed.

    Rewritten as u = T(u) = phi^(-1)((I + p*beta) * u^(p)) the equation is
    vacuous mod p, so the seed is free, and T lifts it uniquely.  The lift
    is ``zq._frobenius_lift``, the Taylor-block lift that also fills the
    Teichmuller table (n = 1, coupling 1), here with the columns of
    x -> phi^(-1)((I + p*beta) * x) built once per call; each block is one
    call of the straight-line kernel ``polyarith.vec_lift_block`` compiled
    for the shape (n, f).  The solution mod p^W is then checked against the
    equation at full precision: ``_residual``, phi(u) - C @ u^(p), the
    routine ``verify_matrix_linear`` measures, must vanish mod p^W; its
    matrix product does not go through the kernel.  The seed's
    invertibility over F_q, the coupling C = I + p*beta mod p^W, its table
    and the check all run on the entries' coefficient tuples; ring
    elements are built only for the returned u.
    """
    params = beta.params
    if beta.prec < 2:
        raise PrecisionExhausted("solve_matrix_linear needs precision >= 2")
    p, f, poly, n, W = params.p, params.f, params.poly, beta.n, beta.prec
    if seed is None:
        seed_res = tuple(tuple(pa.vec_one(f) if i == j else pa.vec_zero(f) for j in range(n))
                         for i in range(n))
    else:
        seed_res = tuple(tuple(_seed_residue(params, e).coeffs for e in row) for row in seed)
        if len(seed_res) != n or any(len(row) != n for row in seed_res):
            raise DomainError("seed shape does not match beta")
    if not _residue_invertible(seed_res, poly, p):
        raise SingularSeed("seed matrix is not invertible over F_q")
    mod = p ** W
    coupling = _coupling(beta, mod)
    # row i: the columns of (x_k) -> phi^(-1)(sum_k C_ik x_k), rows phi^(-1)(g^l C_ik)
    table = tuple(tuple(zip(*(pa.vec_apply(row, params._phi_inv_cols, mod) for e in c_row
                              for row in zip(*pa.vec_mul_cols(e, poly, mod)))))
                  for c_row in coupling)
    u = _frobenius_lift(params, table, seed_res, W)
    if any(any(e) for row in _residual(params, coupling, u, mod) for e in row):
        raise ArithmeticError("matrix lift lost the invariant")
    return ZqMatrix(tuple(tuple(ZqElement(params, e, W) for e in row) for row in u))


def verify_matrix_linear(u, beta):
    """Achieved precision of the entry-wise residual delta(u) - beta * u^(p).

    That residual is known mod p^P, P = min(u.prec - 1, beta.prec), and
    equals (phi(u) - C @ u^(p))/p with C = I + p*beta; so the answer is
    min(v_p(r) - 1, P) for r the solver's ``_residual`` taken mod p^(P+1).
    """
    if u.prec < 2:
        raise PrecisionExhausted("fermat_quotient needs precision >= 2")
    params = u.params
    if beta.n != u.n or beta.params is not params and beta.params != params:
        raise ParamsMismatch("matrix shapes or rings differ")
    p, prec = params.p, min(u.prec - 1, beta.prec)
    mod = p ** (prec + 1)
    res = _residual(params, _coupling(beta, mod),
                    tuple(tuple(e.coeffs for e in row) for row in u.entries), mod)
    # r = 0 mod p always; k digits achieved when r = 0 mod p^(k+1)
    return next((k for k in range(prec)
                 if any(c % p ** (k + 2) for row in res for e in row for c in e)), prec)
