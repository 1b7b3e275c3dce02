"""Slow reference implementations kept as differential oracles.

``staged_solve_difference`` is the staged lift for phi(u) = eps*u: solve
u^(p-1) = eps mod p in F_q^* through a generator and a baby-step giant-step
discrete log, then correct u <- u(1 + p^k h) where h solves the
Artin-Schreier equation h^p - h = c at every step.  Its cost grows like
sqrt(q) and it factors q-1 by trial division, so it is only run at small q.

``iterated_teichmuller`` iterates x -> x^q until x is fixed, and
``per_residue_constants`` runs it once for each nonzero residue.
``power_teichmuller`` raises the residue's own lift to the one power q^m,
m = ceil((N-1)/f), since a unit lift right mod p^k has its q-th power right
mod p^(k+f), where the library lifts omega(a) as the fixed point of
x -> phi^(-1)(x^p) in Taylor blocks, with the kernel of its matrix solver.

``ring_verify_matrix_linear`` is the matrix verifier on ring elements:
delta(u) - beta * u^(p) entry by entry, with ``fermat_quotient`` per entry
and a product summed by ``ZqElement`` arithmetic, where the library takes
the solver's residual phi(u) - (I + p*beta) * u^(p) on coefficient tuples
and drops its factor p.  ``matrix_map``, ``matrix_product``,
``matrix_from_residues`` and ``coupling_matrix`` are the ring-element
matrix helpers of this oracle and of the matrix solver oracles below.
``loop_verify_matrix_linear`` takes the library's residual but finds its
valuation by trying p^(k+2) for k = 0, 1, ... in turn, where the library
reads one capped valuation per entry (``polyarith.vec_valuation``).

``marker_valuation`` divides the coefficients by p until one is not
divisible and returns the lower-bound marker ``ValuationAtLeast(prec)`` for
an element that is 0 at its precision, where the library's ``valuation``
is the int min(v_p, prec) from the gcd of the coefficients;
``guarded_valuation`` reads the marker as its callers did, as the
precision.  The ring-element oracles measure their residuals with it.

``staged_solve_matrix_linear`` lifts a residue seed of
phi(u) = (I + p*beta) u^(p) one digit per step: it divides the residual by
p^k and adds p^k times a lift of phi^(-1) of its residue.

``fixed_point_solve_matrix_linear`` applies the same map W-1 times, every
time at full precision, and ``digitwise_solve_matrix_linear`` takes it mod
p^k for k = 2, ..., W with one p-th power per entry per pass, where the
library lifts in Taylor blocks: one p-th power per entry per doubling of
the precision, and one product per entry for each pass inside a block.
``full_precision_frobenius_root`` runs Newton for the root of the modulus
nearest g^p at p^N with a fresh inverse of m'(y) each pass, where the
library doubles the precision and updates the inverse by one Newton step.
``chained_constants`` multiplies out all q-1 powers of omega(gamma), where
the library takes the second half of them as negatives of the first.

``termwise_frobenius_sum`` applies phi^(-1) once per term of
sum_{n>=1} p^n phi^(-n)(beta), where the library groups the terms by n mod f
and needs f applications.

``vec_mul_series`` is the library's Paterson-Stockmeyer sum as it was
before the fused Horner step: the powers x^2..x^k and each Horner step
acc <- acc * x^k + block are schoolbook products (``vec_mul``), the block a
scalar combination of the cached powers, where the library applies the
columns of multiplication by x and by x^k.  ``peel_digits`` peels the
Teichmuller digits on ring elements, one ``teichmuller`` call and one exact
division per digit, and ``scaled_from_digits`` sums omega(c_i) * p^i one
scaled vector at a time, where the library peels raw coefficient tuples
and evaluates the digits by one linear map.

``log_route_psi`` is psi by its closed form log(phi(u)/u^p)/p: the log
series in phi(u)/u^p - 1, whose terms 1/n need guard digits V > 0 once a
multiple of p is among them, then an exact division by p, where the
library sums the same power series in w = delta(u)/u^p = (phi(u)/u^p - 1)/p
from a table with V = 0.

``termwise_series`` sums c * x^n / p^v one power of x at a time,
``termwise_table_series`` does the same for a table already scaled to p^V,
and ``termwise_eval_delta_function`` raises each jet entry to each exponent
by its own square-and-multiply: one or more ring products per term, where
the library's Paterson-Stockmeyer sum and power tables need about sqrt(n).

``fraction_lll_reduce`` is the textbook LLL over exact Fractions, which
recomputes the whole Gram-Schmidt data after every size reduction and every
swap, where the library's integral LLL updates integer Gram determinants
and scaled coefficients by exact division.

``candidate_find_relation`` is the relation probe with one evaluation loop
per use, each raising every value to every exponent by its own power, and
one candidate filter per search mode, where the library builds one power
list per variable and runs one filter over the vectors either mode
proposes.  Its lattice mode reduces by ``fraction_lll_reduce``.
``degree_loop_minimal_polynomial`` runs one such query per degree bound
1, 2, ..., d, each held to the caps on its own, and returns the first hit,
where the library makes one query of degree d whose search walks the
graded prefixes of one monomial list.
``per_degree_graded_search`` is the graded search as one meet-in-the-middle
box search per degree: at each k = 1, ..., d it tables the half sums of the
degree-k prefix afresh, lists every hit of that box (``box_hits``) and stops
at the first degree that has one; lattice mode runs that search to skip a
degree whose box within ``EXHAUSTIVE_CAP`` is empty, and reduces the lattice
of every other degree.  The library makes one pass over the largest prefix
within the cap, ranking its hits as it meets them.
``filtered_monomials`` lists each degree d by filtering all (d+1)^arity
tuples by their sum, where the library lists the compositions of d
directly by stars and bars.

``RecordResidue`` is the residue field F_q as a record of its own: +, -,
x, inverse and powers mod p on coefficient tuples, the Frobenius as x^p, its
inverse as x^(p^(f-1)) and the trace as the sum of the x^p chain, where the
library's residue is a ring element at precision 1 whose arithmetic is the
ring's, its Frobenius the column table of phi taken mod p.

``trial_division_prime_factors`` factors by trial division, where the
library splits by Pollard-Brent rho.  ``full_scan_conway_polynomial`` tests
every one of the p^f words for primitivity by factoring q-1 and for norm
compatibility with every proper subfield, C_{p,1} included, where the
library scans only the p^(f-1) words whose norm is the root of C_{p,1}.

``gcd_is_irreducible_mod_p`` takes the gcd of x^(p^(f/ell)) - x with the
modulus by Euclid on trimmed int lists, where the library asks ``vec_inv``
whether the difference is a unit.  ``euclid_inv_mod_p`` computes both
Bezout cofactors of (a, m) over F_p and keeps one, where the library's
mod-p seed tracks only a's.

``loop_vec_mul``, ``loop_vec_apply``, ``loop_vec_dot`` and
``loop_vec_mul_cols`` are the ring kernels as loops over the coefficients,
with ``loop_reduce`` the reduction by the monic modulus, where the library
runs one straight-line kernel compiled per vector shape.
``loop_frobenius_lift`` is the Taylor-block lift with each pass made of
``vec_apply`` calls, two per entry of the grid, and Python glue, where the
library runs each block as one straight-line kernel compiled per grid shape
(n, f).  ``loop_teichmuller_table`` fills the whole Teichmuller table from
the ``vec_powers`` list of omega(gamma), with a residue genexpr per key and
``vec_neg`` per negative, where the library walks the powers in one
straight-line kernel per (f, p odd).

``fq_residue_invertible`` is the matrix solver's seed check as Gaussian
elimination on ``FqElement`` residues, where the library eliminates on
their coefficient tuples.

``lift`` moves an element known mod p^n to a random element of the ring
that agrees with it mod p^n, at the ring's precision: the soundness
property runs each operation on both and asks that the answers agree to
the precision the first one reports.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, product
from math import comb, gcd, isqrt
from operator import mul

from wittcalc import (
    DomainError,
    FqElement,
    NonUnit,
    Obstruction,
    ParamsMismatch,
    PrecisionExhausted,
    RelationCertificate,
    RelationQuery,
    TeichmullerDigits,
    ZqElement,
    ZqMatrix,
    delta_jet,
    fermat_quotient,
    frobenius,
    frobenius_inv,
    monomials,
    padic_log,
    teichmuller,
)
from wittcalc import polyarith as pa
from wittcalc import relations, solvers
from wittcalc.polyarith import vec_eval_int_poly, vec_one, vec_pow
from wittcalc.record import frozen_record


@frozen_record
class RecordResidue:
    """An element of the residue field F_q in the basis 1, g, ..., g^{f-1}."""

    params: object
    coeffs: tuple

    @classmethod
    def of(cls, u):
        """The residue of a ring element u."""
        return cls(u.params, tuple(c % u.params.p for c in u.coeffs))

    def _coerce(self, other):
        if isinstance(other, RecordResidue):
            if other.params is not self.params and other.params != self.params:
                raise ParamsMismatch("operands live in different fields")
            return other
        if isinstance(other, int):
            return RecordResidue(self.params, pa.vec_from_int(other, self.params.f, self.params.p))
        raise TypeError(f"no residue from {other!r}")

    def __add__(self, other):
        v = self._coerce(other)
        return RecordResidue(self.params, pa.vec_add(self.coeffs, v.coeffs, self.params.p))

    def __sub__(self, other):
        v = self._coerce(other)
        return RecordResidue(self.params, pa.vec_sub(self.coeffs, v.coeffs, self.params.p))

    def __neg__(self):
        return RecordResidue(self.params, pa.vec_neg(self.coeffs, self.params.p))

    def __mul__(self, other):
        v = self._coerce(other)
        return RecordResidue(
            self.params, pa.vec_mul(self.coeffs, v.coeffs, self.params.poly, self.params.p))

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return RecordResidue(
            self.params, pa.vec_pow(self.coeffs, e, self.params.poly, self.params.p))

    def inv(self):
        return RecordResidue(
            self.params, pa.vec_inv(self.coeffs, self.params.poly, self.params.p, 1))

    def is_zero(self):
        return not any(self.coeffs)

    def frobenius(self):
        return self ** self.params.p

    def frobenius_inv(self):
        return self ** (self.params.p ** (self.params.f - 1))

    def trace(self):
        """Absolute trace down to F_p, returned as an int in [0, p)."""
        acc, t = self, self
        for _ in range(self.params.f - 1):
            t = t.frobenius()
            acc = acc + t
        if any(acc.coeffs[1:]):
            raise ArithmeticError("trace left the prime field")
        return acc.coeffs[0]


def trial_division_prime_factors(n):
    """Sorted distinct prime factors, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def full_scan_conway_polynomial(p, f):
    """C_{p,f} as a tuple of f+1 ints in [0, p), ascending degree."""
    if f == 1:
        ells = trial_division_prime_factors(p - 1)
        g = next(g for g in count(1) if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells))
        return ((-g) % p, 1)
    q1 = p ** f - 1
    ells = trial_division_prime_factors(q1)
    divisors = [d for d in range(1, f) if f % d == 0]
    x, one = (0, 1) + (0,) * (f - 2), vec_one(f)
    # Word ordering: the tuple (b_{f-1}, ..., b_0) with b_i = (-1)^{f-i} a_i
    # is compared lexicographically; product() enumerates words in that order.
    for word in product(range(p), repeat=f):
        m = [0] * (f + 1)
        m[f] = 1
        for idx, b in enumerate(word):
            i = f - 1 - idx
            m[i] = b if (f - i) % 2 == 0 else (-b) % p
        if vec_pow(x, q1, m, p) != one:
            continue
        if any(vec_pow(x, q1 // ell, m, p) == one for ell in ells):
            continue
        if all(_full_scan_norm_compatible(x, m, p, f, d) for d in divisors):
            return tuple(m)
    raise ArithmeticError(f"no Conway polynomial found for p={p}, f={f}")


def _full_scan_norm_compatible(x, m, p, f, d):
    """Does C_{p,d} vanish at x^((p^f-1)/(p^d-1)) modulo m?"""
    y = vec_pow(x, (p ** f - 1) // (p ** d - 1), m, p)
    return not any(vec_eval_int_poly(full_scan_conway_polynomial(p, d), y, m, p))


# Dense polynomials over F_p as int lists, ascending, trailing zeros trimmed.

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    t = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t[i + j] = (t[i + j] + x * y) % p
    return _trim(t)


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([(x - y) % p for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def _poly_divmod(a, b, p):
    a, db = list(a), len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        c = q[i] = a[i + db] * inv_lead % p
        for j, y in enumerate(b):
            a[i + j] = (a[i + j] - c * y) % p
    return _trim(q), _trim(a[:db])


def _poly_powmod(a, e, m, p):
    acc, base = [1], _poly_divmod(a, m, p)[1]
    for bit in bin(e)[2:]:
        acc = _poly_divmod(_poly_mul(acc, acc, p), m, p)[1]
        if bit == "1":
            acc = _poly_divmod(_poly_mul(acc, base, p), m, p)[1]
    return acc


def _poly_ext_gcd(a, b, p):
    """(g, s, t) with s*a + t*b = g over F_p, g monic or empty."""
    r0, r1, s0, s1, t0, t1 = _trim(a), _trim(b), [1], [], [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, p), p)
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, p), p)
    if r0:
        c = pow(r0[-1], -1, p)
        r0, s0, t0 = ([x * c % p for x in v] for v in (r0, s0, t0))
    return r0, s0, t0


def gcd_is_irreducible_mod_p(poly, p):
    """Is the monic integer polynomial irreducible over F_p?  By gcds of
    x^(p^(f/ell)) - x with m, for the primes ell of f."""
    m = _trim([c % p for c in poly])
    f = len(m) - 1
    if f < 1:
        return False
    if f == 1:
        return True
    x = [0, 1]
    if _poly_sub(_poly_powmod(x, p ** f, m, p), x, p):
        return False
    for ell in trial_division_prime_factors(f):
        diff = _poly_sub(_poly_powmod(x, p ** (f // ell), m, p), x, p)
        if len(_poly_ext_gcd(diff, m, p)[0]) > 1:
            return False
    return True


def euclid_inv_mod_p(a, poly, p):
    """a^-1 modulo (poly, p) as a length-f vector, from both Bezout cofactors."""
    f = len(a)
    m = _trim([c % p for c in poly])
    g, s, _ = _poly_ext_gcd([x % p for x in a], m, p)
    if len(g) != 1:
        raise NonUnit("element shares a factor with the modulus")
    s = _poly_divmod(s, m, p)[1]
    return tuple(s[i] if i < len(s) else 0 for i in range(f))


def _fq_elements(params):
    """All residue-field elements, the first basis coefficient varying slowest."""
    p, f = params.p, params.f
    for n in range(p ** f):
        coeffs = []
        for _ in range(f):
            n, r = divmod(n, p)
            coeffs.append(r)
        yield FqElement(params, tuple(reversed(coeffs)))


def _lift_residue(c, prec=None):
    """The residue c lifted into Z_q with its coefficients as given."""
    return c.params.from_coeffs(c.coeffs, prec)


def _fq_generator(params):
    """The first generator of F_q^* in enumeration order."""
    q1 = params.p ** params.f - 1
    ells = trial_division_prime_factors(q1) if q1 > 1 else []
    one = params.fq_from_int(1)
    for a in _fq_elements(params):
        if not a.is_zero() and all(a ** (q1 // ell) != one for ell in ells):
            return a
    raise ArithmeticError("no generator found")


def _fq_dlog(gen, a):
    """Discrete log of a in base gen over F_q^*, by baby-step giant-step."""
    params = gen.params
    q1 = params.p ** params.f - 1
    m = isqrt(q1) + 1
    baby = {}
    x = params.fq_from_int(1)
    for j in range(m):
        baby.setdefault(x.coeffs, j)
        x = x * gen
    giant = gen.inv() ** m
    y = a
    for i in range(m + 1):
        j = baby.get(y.coeffs)
        if j is not None:
            return (i * m + j) % q1
        y = y * giant
    raise ArithmeticError("discrete log not found")


def _solve_artin_schreier(params, c):
    """A solution h of h^p - h = c over F_q, or None when Tr(c) != 0."""
    if c.trace() != 0:
        return None
    p, f = params.p, params.f
    cols = []
    for i in range(f):
        b = FqElement(params, tuple(1 if j == i else 0 for j in range(f)))
        cols.append((b.frobenius() - b).coeffs)
    # Gaussian elimination on the augmented f x (f+1) system
    rows = [[cols[j][i] for j in range(f)] + [c.coeffs[i]] for i in range(f)]
    pivots = []
    r = 0
    for col in range(f):
        piv = next((i for i in range(r, f) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(f):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if any(row[f] % p for row in rows[r:]):
        return None
    h = [0] * f
    for i, col in enumerate(pivots):
        h[col] = rows[i][f] % p
    return FqElement(params, tuple(h))


def staged_solve_difference(eps):
    """A unit u with phi(u) = eps*u to the precision of eps, or the first Obstruction."""
    params = eps.params
    eps_bar = eps.residue()
    p, f, K = params.p, params.f, eps.prec
    q1 = p ** f - 1
    d = gcd(p - 1, q1)
    if q1 > 1:
        exponent = q1 // d
        power = eps_bar ** exponent
        if power != params.fq_from_int(1):
            return Obstruction(stage="mod-p", kind="power-residue",
                               witness=power, exponent=exponent)
        gen = _fq_generator(params)
        e = _fq_dlog(gen, eps_bar)
        step = (p - 1) // d
        modulus = q1 // d
        t = (e // d) * pow(step, -1, modulus) % modulus if modulus > 1 else 0
        u = _lift_residue((gen ** t).residue(), K)
    else:
        u = params.one(K)
    for k in range(1, K):
        r = frobenius(u) * (eps * u).inv()
        c = -(r - 1).exact_div_p(k).residue()
        h = _solve_artin_schreier(params, c)
        if h is None:
            return Obstruction(stage=k, kind="trace", witness=c,
                               trace=c.trace(), partial=u)
        u = u * (_lift_residue(h, K).mul_p_power(k) + 1)
    return u


def iterated_teichmuller(a):
    """The coefficients of omega(a) at precision N, by x -> x^q until fixed."""
    params = a.params
    mod = params.p ** params.N
    x = a.coeffs
    for _ in range(params.N):
        nxt = vec_pow(x, params.p ** params.f, params.poly, mod)
        if nxt == x:
            break
        x = nxt
    return x


def power_teichmuller(a):
    """The coefficients of omega(a) at precision N, as a^(q^m) with m = ceil((N-1)/f)."""
    params = a.params
    p, f, N = params.p, params.f, params.N
    return vec_pow(a.coeffs, p ** (f * -(-(N - 1) // f)), params.poly, p ** N)


def per_residue_constants(params):
    """The coefficients of the q-1 Teichmuller units, in residue order."""
    return tuple(iterated_teichmuller(a) for a in _fq_elements(params) if not a.is_zero())


def _same_size_and_ring(*ms):
    if any(m.n != ms[0].n or m.params is not ms[0].params and m.params != ms[0].params
           for m in ms):
        raise ParamsMismatch("matrix shapes or rings differ")


def matrix_map(fn, *ms):
    """fn applied entry by entry to square matrices of one size over one ring."""
    _same_size_and_ring(*ms)
    return ZqMatrix(tuple(tuple(fn(*es) for es in zip(*rows))
                          for rows in zip(*(m.entries for m in ms))))


def matrix_product(a, b):
    """a @ b, each entry a sum of ring products at the lower precision."""
    _same_size_and_ring(a, b)
    prec, cols = min(a.prec, b.prec), tuple(zip(*b.entries))
    return ZqMatrix(tuple(tuple(sum((x * y for x, y in zip(row, col)), a.params.zero(prec))
                                for col in cols) for row in a.entries))


def matrix_from_residues(params, residues, prec=None):
    return ZqMatrix(tuple(tuple(_lift_residue(params.fq(e.coeffs), prec) for e in row)
                          for row in residues))


def coupling_matrix(beta, prec=None):
    """I + p*beta, each entry masked to ``prec``."""
    prec = beta.params.N if prec is None else prec
    return ZqMatrix(tuple(tuple(e.mul_p_power(1).mask(prec) + int(i == j)
                                for j, e in enumerate(row)) for i, row in enumerate(beta.entries)))


def ring_verify_matrix_linear(u, beta):
    """Achieved precision of delta(u) - beta * u^(p), on ring elements."""
    p = u.params.p
    res = matrix_map(lambda x, y: x - y, matrix_map(fermat_quotient, u),
                     matrix_product(beta, matrix_map(lambda e: e ** p, u)))
    return min(guarded_valuation(e) for row in res.entries for e in row)


def loop_verify_matrix_linear(u, beta):
    """verify_matrix_linear with the residual's valuation found by trial powers of p."""
    if u.prec < 2:
        raise PrecisionExhausted("verify_matrix_linear needs precision >= 2")
    params = u.params
    p, prec = params.p, min(u.prec - 1, beta.prec)
    mod = p ** (prec + 1)
    res = solvers._residual(params, solvers._coupling(beta, mod),
                            tuple(tuple(e.coeffs for e in row) for row in u.entries), mod)
    # r = 0 mod p always; k digits achieved when r = 0 mod p^(k+1)
    return next((k for k in range(prec)
                 if any(c % p ** (k + 2) for row in res for e in row for c in e)), prec)


@frozen_record
class ValuationAtLeast:
    """A valuation only known to be >= ``bound`` (the element is 0 at its precision)."""

    bound: int

    def __repr__(self):
        return f">= {self.bound}"


def marker_valuation(u):
    """Largest k with p^k | u, or the lower-bound marker when u is 0 at its precision."""
    if u.is_zero():
        return ValuationAtLeast(u.prec)
    p, k, coeffs = u.params.p, 0, u.coeffs
    while all(c % p == 0 for c in coeffs):
        coeffs = tuple(c // p for c in coeffs)
        k += 1
    return k


def guarded_valuation(u):
    """The marker valuation read as the precision at 0."""
    v = marker_valuation(u)
    return v.bound if isinstance(v, ValuationAtLeast) else v


def staged_solve_matrix_linear(beta, seed):
    """The solution of phi(u) = (I + p*beta) u^(p) with residues ``seed``."""
    p, W = beta.params.p, beta.prec
    coupling = coupling_matrix(beta, W)
    u = matrix_from_residues(beta.params, seed, W)
    for k in range(1, W):
        r = matrix_map(lambda x, y: x - y,
                       matrix_product(coupling, matrix_map(lambda e: e ** p, u)),
                       matrix_map(frobenius, u))
        h = tuple(tuple(e.exact_div_p(k).residue().frobenius_inv() for e in row)
                  for row in r.entries)
        u = matrix_map(lambda x, y: x + y.mul_p_power(k).mask(W), u,
                       matrix_from_residues(beta.params, h, W))
    return u


def fixed_point_solve_matrix_linear(beta, seed):
    """The same solution by W-1 applications of u <- phi^(-1)((I + p*beta) u^(p)),
    each at full precision, with matrix products summed entry by entry."""
    p, W = beta.params.p, beta.prec
    coupling = coupling_matrix(beta, W)
    u = matrix_from_residues(beta.params, seed, W)
    for _ in range(W - 1):
        u = matrix_map(frobenius_inv, matrix_product(coupling, matrix_map(lambda e: e ** p, u)))
    return u


def digitwise_solve_matrix_linear(beta, seed):
    """The same solution by u <- phi^(-1)((I + p*beta) u^(p)) taken mod p^k for
    k = 2, ..., W, one p-th power per entry per digit, on coefficient tuples."""
    params, W = beta.params, beta.prec
    p, poly = params.p, params.poly
    c = tuple(tuple(e.coeffs for e in row) for row in coupling_matrix(beta, W).entries)
    u = tuple(tuple(params.fq(e.coeffs).coeffs for e in row) for row in seed)
    for k in range(2, W + 1):
        mod = p ** k
        x = tuple(zip(*(tuple(vec_pow(e, p, poly, mod) for e in row) for row in u)))
        u = tuple(tuple(frobenius_inv(ZqElement(params, pa.vec_dot(row, col, poly, mod), k)).coeffs
                        for col in x) for row in c)
    return ZqMatrix(tuple(tuple(ZqElement(params, e, W) for e in row) for row in u))


def full_precision_frobenius_root(params):
    """The root of the modulus m nearest g^p, by Newton at p^N with a fresh inverse of m'(y)."""
    p, f, mod, poly = params.p, params.f, params.p ** params.N, params.poly
    deriv = tuple((i * c) % mod for i, c in enumerate(poly))[1:]
    y = vec_pow((0, 1) + (0,) * (f - 2), p, poly, mod)
    for _ in range(params.N.bit_length() + 2):
        fy = pa.vec_eval_int_poly(poly, y, poly, mod)
        if not any(fy):
            return y
        dy = pa.vec_eval_int_poly(deriv, y, poly, mod)
        y = pa.vec_sub(y, pa.vec_mul(fy, pa.vec_inv(dy, poly, p, params.N), poly, mod), mod)
    raise ArithmeticError("Frobenius lift did not converge")


def chained_constants(params):
    """The q-1 Teichmuller units as all q-1 powers of omega(first generator), in residue order."""
    z = teichmuller(_fq_generator(params))
    out = [params.one()]
    for _ in range(params.p ** params.f - 2):
        out.append(out[-1] * z)
    return tuple(sorted(out, key=lambda u: u.residue().coeffs))


def termwise_frobenius_sum(beta):
    """sum_{n=1..s-1} p^n phi^(-n)(beta) at precision s = min(prec + 1, N)."""
    params = beta.params
    s_prec = min(beta.prec + 1, params.N)
    s = params.zero(s_prec)
    term = beta
    for n in range(1, s_prec):
        term = frobenius_inv(term)
        s = s + term.mul_p_power(n)
    return s


def vec_mul_series(x, table, target):
    """sum c_n * x^n / p^V over a table (V, (c_0, c_1, ...)) by Paterson-Stockmeyer
    with schoolbook products, exact mod p^target."""
    params = x.params
    p, f, poly = params.p, params.f, params.poly
    big_v, cs = table
    mod = p ** (target + big_v)
    top = len(cs) - 1
    k = isqrt(top + 1)
    pows = [vec_one(f), pa.vec_mask(x.coeffs, mod)]
    for _ in range(k - 1):
        pows.append(pa.vec_mul(pows[-1], pows[1], poly, mod))
    acc = None
    for start in range(top - top % k, -1, -k):
        pairs = [(c, pows[i]) for i, c in enumerate(cs[start:start + k]) if c]
        block = tuple(sum(c * w[j] for c, w in pairs) % mod for j in range(f))
        acc = block if acc is None else pa.vec_add(
            pa.vec_mul(acc, pows[k], poly, mod), block, mod)
    return ZqElement(params, pa.vec_mask(pa.vec_divexact_p(acc, p ** big_v), p ** target),
                     target)


def peel_digits(u):
    """The Teichmuller digits of u, peeled on ring elements."""
    out = []
    v = u
    for i in range(u.prec):
        c = v.residue()
        out.append(c)
        if i + 1 < u.prec:
            v = (v - teichmuller(c, v.prec)).exact_div_p(1)
    return TeichmullerDigits(u.params, tuple(out))


def scaled_from_digits(d):
    """sum_i omega(digits[i]) p^i at precision len(digits), one term at a time."""
    params = d.params
    prec = len(d.digits)
    mod = params.p ** prec
    acc = pa.vec_zero(params.f)
    for i, c in enumerate(d.digits):
        w = teichmuller(c, prec)
        acc = pa.vec_add(acc, pa.vec_scale(w.coeffs, params.p ** i, mod), mod)
    return ZqElement(params, acc, prec)


def termwise_series(x, terms, target):
    """sum c * x^n / p^v over ascending (n, v, c), exact mod p^target, term by term."""
    params = x.params
    p, f = params.p, params.f
    mod = p ** (target + max((v for _, v, _ in terms), default=0))
    acc = pa.vec_zero(f)
    xp = pa.vec_one(f)
    done = 0
    for n, v, c in terms:
        for _ in range(n - done):
            xp = pa.vec_mul(xp, x.coeffs, params.poly, mod)
        done = n
        acc = pa.vec_add(acc, pa.vec_scale(pa.vec_divexact_p(xp, p ** v), c, mod), mod)
    return ZqElement(params, pa.vec_mask(acc, p ** target), target)


def termwise_table_series(x, table, target):
    """sum c_n * x^n / p^V over a table (V, (c_0, c_1, ...)), one power of x at a time."""
    params = x.params
    p, f = params.p, params.f
    big_v, cs = table
    mod = p ** (target + big_v)
    acc, xp = pa.vec_zero(f), pa.vec_one(f)
    for c in cs:
        acc = pa.vec_add(acc, pa.vec_scale(xp, c, mod), mod)
        xp = pa.vec_mul(xp, x.coeffs, params.poly, mod)
    return ZqElement(params, pa.vec_mask(pa.vec_divexact_p(acc, p ** big_v), p ** target), target)


def log_route_psi(u):
    """psi(u) = log(phi(u)/u^p)/p by the log series at the precision of u."""
    return padic_log(frobenius(u) * (u ** u.params.p).inv()).exact_div_p(1)


def termwise_eval_delta_function(series, args):
    """eval_delta_function with a fresh power of a jet entry for every exponent."""
    args = list(args)
    params = args[0].params
    if any(a.params != params for a in args):
        raise ParamsMismatch("arguments live in different rings")
    r = series.order
    jets = [delta_jet(a, r) for a in args]
    prec = min(
        min((c.prec for _, c in series.terms), default=params.N),
        min(a.prec for a in args) - r,
    )
    if prec < 1:
        raise PrecisionExhausted("no precision left after taking jets")
    inv_cache = {}
    acc = params.zero(prec)
    for exps, coeff in series.terms:
        term = coeff.mask(min(prec, coeff.prec))
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            j, i = divmod(idx, r + 1)
            x = jets[j][i]
            if e < 0:
                if j not in inv_cache:
                    if not args[j].is_unit():
                        raise NonUnit(f"argument {j} must be a unit")
                    inv_cache[j] = x.inv()
                x = inv_cache[j]
                e = -e
            term = term * x.mask(min(x.prec, prec)) ** e
        acc = acc + term
    return acc.mask(prec)


def fraction_lll_reduce(basis, delta=Fraction(99, 100)):
    """LLL over exact Fractions, recomputing Gram-Schmidt after every change."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0:
        return b

    def gram_schmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        star = [None] * n
        for i in range(n):
            star[i] = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], star[j])) / norms[j]
                star[i] = [x - mu[i][j] * y for x, y in zip(star[i], star[j])]
            norms[i] = sum(x * x for x in star[i])
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b


def filtered_monomials(arity, deg_bound):
    out = []
    for d in range(deg_bound + 1):
        out.extend(e for e in product(range(d + 1), repeat=arity) if sum(e) == d)
    return out


def _relation_monomial_values(values, monos, M):
    masked = [v.mask(M) for v in values]
    out = []
    for e in monos:
        w = masked[0].params.one(M)
        for v, k in zip(masked, e):
            if k:
                w = w * v ** k
        out.append(w)
    return out


def _relation_evaluate(monos, coeffs, values, k):
    acc = values[0].params.zero(k)
    vals = [v.mask(k) for v in values]
    for e, c in zip(monos, coeffs):
        if c == 0:
            continue
        w = values[0].params.from_int(c, k)
        for v, kk in zip(vals, e):
            if kk:
                w = w * v ** kk
        acc = acc + w
    return acc


def _sign_normalized(c):
    for x in c:
        if x > 0:
            return tuple(c)
        if x < 0:
            return tuple(-y for y in c)
    return None


def _exhaustive_candidates(query, monos, w):
    H = query.height_bound
    count = len(monos)
    mod = query.params.p ** query.precision
    coords = [x.coeffs for x in w]
    f = query.params.f
    seen = set()
    hits = []
    for c in product(range(-H, H + 1), repeat=count):
        cn = _sign_normalized(c)
        if cn is None or cn in seen:
            continue
        seen.add(cn)
        if all(sum(cc * coords[j][i] for j, cc in enumerate(cn)) % mod == 0
               for i in range(f)):
            hits.append(cn)
    return hits


def _lattice_candidates(query, monos, w):
    count = len(monos)
    f = query.params.f
    dim = count + f
    mod = query.params.p ** query.precision
    H = query.height_bound
    kappa = (H * count + 1) << dim
    rows = []
    for j, x in enumerate(w):
        rows.append([1 if i == j else 0 for i in range(count)]
                    + [kappa * c for c in x.coeffs])
    for i in range(f):
        rows.append([0] * count + [kappa * mod if k == i else 0 for k in range(f)])
    reduced = fraction_lll_reduce(rows, Fraction(99, 100))
    coords = [x.coeffs for x in w]
    candidates = [row[:count] for row in reduced]
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            candidates.append([a + b for a, b in zip(reduced[i][:count], reduced[j][:count])])
            candidates.append([a - b for a, b in zip(reduced[i][:count], reduced[j][:count])])
    hits = []
    seen = set()
    for raw in candidates:
        c = _sign_normalized(raw)
        if c is None or c in seen or max(abs(x) for x in c) > H:
            continue
        seen.add(c)
        if all(sum(cc * coords[j][i] for j, cc in enumerate(c)) % mod == 0
               for i in range(f)):
            hits.append(c)
    return hits


def candidate_find_relation(query):
    """find_relation by per-mode candidate lists and a fresh power per monomial."""
    monos = monomials(len(query.values), query.deg_bound)
    w = _relation_monomial_values(query.values, monos, query.precision)
    if query.mode == "exhaustive":
        candidates = _exhaustive_candidates(query, monos, w)
    else:
        candidates = _lattice_candidates(query, monos, w)
    if not candidates:
        return None

    def key(c):
        deg = max((sum(e) for e, x in zip(monos, c) if x), default=0)
        return (deg, max(abs(x) for x in c), c)

    best = min(candidates, key=key)
    minprec = min(v.prec for v in query.values)
    support = tuple((e, c) for e, c in zip(monos, best) if c)
    result = _relation_evaluate([e for e, _ in support], [c for _, c in support],
                                list(query.values), minprec)
    achieved = guarded_valuation(result)
    if achieved < query.precision:
        raise ArithmeticError("candidate relation failed re-verification")
    return RelationCertificate(
        monomials=tuple(e for e, _ in support),
        coeffs=tuple(c for _, c in support),
        verified_precision=achieved,
        deg_bound=query.deg_bound,
        height_bound=query.height_bound,
        precision_bound=query.precision,
        mode=query.mode)


def degree_loop_minimal_polynomial(u, deg_bound, height_bound=1, mode="exhaustive",
                                   precision=None):
    """minimal_polynomial as one candidate_find_relation query per degree."""
    if deg_bound < 1 or height_bound < 1:
        raise DomainError("degree and height bounds must be >= 1")
    for d in range(1, deg_bound + 1):
        cert = candidate_find_relation(RelationQuery(
            values=(u,), deg_bound=d, height_bound=height_bound,
            mode=mode, precision=precision))
        if cert is not None:
            return cert
    return None


def box_hits(w, H, mod):
    """Every nonzero c in [-H, H]^n whose first nonzero entry is positive and
    with sum c_i w_i = 0 mod ``mod`` in every coordinate, by meeting in the
    middle: the negated half sums of the first n//2 values tabled, the others
    looked up there."""
    k, cs, f = len(w) // 2, range(-H, H + 1), len(w[0])
    left, right, zero = (0,) * k, (0,) * (len(w) - k), (0,) * f

    def sums(ws, cs):
        columns = []
        for j in range(f):
            column = [0]
            for v in ws:
                column = [(x + c * v[j]) % mod for x in column for c in cs]
            columns.append(column)
        return zip(*columns)

    table = {}
    for a, key in zip(product(cs, repeat=k), sums(w[:k], cs[::-1])):
        if a > left:
            table.setdefault(key, []).append(a)
    for b, s in zip(product(cs, repeat=len(w) - k), sums(w[k:], cs)):
        for a in table.get(s, ()):
            yield a + b
        if s == zero and b > right:
            yield left + b


def per_degree_graded_search(query):
    """(k, monos, w, c) as ``relations._graded_search`` returns it, or None, by
    one box search per degree k = 1, ..., d."""
    m, H = len(query.values), query.height_bound
    monos = monomials(m, query.deg_bound)
    w = relations._monomial_values(query.values, monos, query.precision)
    mod = query.params.p ** query.precision
    degs = [sum(e) for e in monos]
    for k in range(1, query.deg_bound + 1):
        wk = w[:comb(m + k, k)]
        if query.mode == "exhaustive":
            hits = box_hits(wk, H, mod)
        elif (2 * H + 1) ** len(wk) <= relations.EXHAUSTIVE_CAP and not any(box_hits(wk, H, mod)):
            continue
        else:
            columns = list(zip(*wk))
            hits = (c for c in relations._lattice_vectors(query, wk) if max(map(abs, c)) <= H
                    and all(sum(x * y for x, y in zip(c, col)) % mod == 0 for col in columns))
        best = min(hits, key=lambda c: (max(compress(degs, c)), max(map(abs, c)), c),
                   default=None)
        if best is not None:
            return k, monos, w, best + (0,) * (len(w) - len(wk))
    return None


def loop_vec_mul(a, b, poly, mod):
    f = len(a)
    if f == 1:
        return ((a[0] * b[0]) % mod,)
    t = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                t[i + j] += x * y
    return loop_reduce(t, poly, mod)


def loop_reduce(t, poly, mod):
    f = len(poly) - 1
    for i in range(2 * f - 2, f - 1, -1):
        c = t[i] % mod
        if c:
            off = i - f
            for j in range(f):
                t[off + j] -= c * poly[j]
    return tuple(t[i] % mod for i in range(f))


def loop_vec_mul_cols(y, poly, mod):
    row = tuple(x % mod for x in y)
    rows = [row]
    for _ in range(len(y) - 1):
        top = row[-1]
        row = tuple((a - top * c) % mod for a, c in zip((0,) + row[:-1], poly))
        rows.append(row)
    return tuple(zip(*rows))


def loop_vec_apply(x, cols, mod):
    return tuple(sum(map(mul, x, col)) % mod for col in cols)


def loop_vec_dot(xs, ys, poly, mod):
    t = [0] * (2 * len(poly) - 3)
    for a, b in zip(xs, ys):
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    t[i + j] += x * y
    return loop_reduce(t, poly, mod)


def loop_frobenius_lift(params, table, u, W):
    """The fixed point of T(x) = phi^(-1)(C * x^(p)) mod p^W over the grid ``u``,
    by Taylor blocks whose passes are ``vec_apply`` calls of column tables."""
    p, poly, idx = params.p, params.poly, range(len(u))

    def t_linear(g, x, mod):
        # phi^(-1)(C * (g o x)) mod `mod`, one column of g o x at a time
        cols = [sum((pa.vec_apply(x[k][j], g[k][j], mod) for k in idx), ()) for j in idx]
        return [[pa.vec_apply(col, t, mod) for col in cols] for t in table]

    m = 1
    while m < W:
        top, pm = min(2 * m, W), p ** m
        mod = p ** top
        g = [[pa.vec_mul_cols(pa.vec_pow(a, p - 1, poly, mod), poly, mod) for a in row]
             for row in u]
        e0 = d = [[tuple((x - y) // pm for x, y in zip(ta, a)) for ta, a in zip(*rows)]
                  for rows in zip(t_linear(g, u, mod), u)]
        for k in range(m + 2, top + 1):
            r = p ** (k - m - 1)
            d = [[tuple((x + p * y) % (p * r) for x, y in zip(ea, za)) for ea, za in zip(*rows)]
                 for rows in zip(e0, t_linear(g, d, r))]
        u = [[tuple(x + pm * y for x, y in zip(a, da)) for a, da in zip(*rows)]
             for rows in zip(u, d)]
        m = top
    return u


def loop_teichmuller_table(params):
    """The whole table {residue: omega(residue) mod p^N} from the powers of
    omega(gamma) listed by ``vec_powers``, negated for the rest when p is odd."""
    p, f, poly = params.p, params.f, params.poly
    q1, mod = p ** f - 1, p ** params.N
    w = power_teichmuller(_fq_generator(params))
    table = {pa.vec_zero(f): pa.vec_zero(f)}
    for w in pa.vec_powers(w, (q1 if p == 2 else q1 // 2) - 1, poly, mod):
        c = tuple(x % p for x in w)
        table[c] = w
        if p > 2:
            table[tuple(-x % p for x in c)] = pa.vec_neg(w, mod)
    return table


def fq_residue_invertible(residues):
    """Gaussian elimination over F_q on a grid of ``FqElement`` residues."""
    n = len(residues)
    rows = [list(row) for row in residues]
    for col in range(n):
        piv = next((i for i in range(col, n) if not rows[i][col].is_zero()), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inv()
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return True


def lift(x, rng):
    """A random element at the ring's precision N that agrees with x mod p^(x.prec)."""
    params = x.params
    pn, big = params.p ** x.prec, params.p ** params.N
    return ZqElement(params, tuple((c + pn * rng.randrange(big // pn)) % big for c in x.coeffs),
                     params.N)
