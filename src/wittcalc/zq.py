"""Exact arithmetic in Z_q/p^N, the truncated unramified extension of Z_p.

Fix a prime p, a residue degree f >= 1 and a working precision N >= 2, and
write q = p^f.  The ring Z_q = Z_p[g]/(m(g)) is represented in the polynomial
basis 1, g, ..., g^{f-1}: an element is a vector of f integers, each reduced
modulo p^k, where k <= N is the element's absolute precision.  Operations
combine precisions by taking the minimum and are exact modulo the precision
they report; nothing is rounded.

Besides the ring structure this module provides:

* ``frobenius`` -- the lift of the residue Frobenius a -> a^p, computed once
  per ring as the Hensel root of m nearest g^p and cached, with its inverse,
  as the columns of a linear map (``polyarith.vec_apply``);
* ``teichmuller`` -- the multiplicative section of reduction mod p, i.e. the
  unique root-of-unity-or-zero lift of each residue, cached per ring: by
  one Frobenius lift (``_frobenius_lift``, shared with the matrix solver)
  per orbit of <phi, -1>, or, for q - 1 <= 4 N^2 and for the solvers'
  constants, whole (``teichmuller_table``) from the powers of one lift;
* ``digits``/``from_digits`` -- the expansion u = sum_i omega(c_i) p^i with
  residue digits c_i, on which the Frobenius acts digit-wise by c -> c^p.

A residue of F_q = Z_q/p, such as a digit or the reduction of a ring
element, is an ``FqElement``: a ring element at precision 1, whose
arithmetic, comparison, Frobenius and trace are the ring's own.
"""

from __future__ import annotations

import itertools

from . import polyarith as pa
from .conway import conway_polynomial, is_irreducible_mod_p, is_prime, prime_factors
from .errors import (
    DomainError,
    NotPrime,
    ParamsMismatch,
    PrecisionExhausted,
    PrecisionTooSmall,
    ReduciblePolynomial,
)
from .record import frozen_record


class PadicParams:
    """Ambient ring descriptor: (p, f, N) plus the defining polynomial.

    The default polynomial is x for f = 1 (plain scalar arithmetic in Z/p^N)
    and the Conway polynomial lifted with coefficients in [0, p) for f >= 2.
    The Frobenius tables are built eagerly, so instances are immutable in
    all observable ways and safe to share between threads.
    """

    __slots__ = ("p", "f", "N", "poly", "_phi_cols", "_phi_inv_cols", "_teich")

    def __init__(self, p, f, N, poly=None):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if not isinstance(f, int) or f < 1:
            raise DomainError(f"residue degree f = {f} must be >= 1")
        if not isinstance(N, int) or N < 2:
            raise PrecisionTooSmall(f"precision N = {N} must be >= 2")
        self.p = p
        self.f = f
        self.N = N
        mod = p ** N
        if poly is None:
            self.poly = (0, 1) if f == 1 else conway_polynomial(p, f)
        else:
            poly = tuple(int(c) % mod for c in poly)
            if len(poly) != f + 1 or poly[f] != 1:
                raise ReduciblePolynomial(
                    f"defining polynomial must be monic of degree {f}")
            if not is_irreducible_mod_p(poly, p):
                raise ReduciblePolynomial(
                    "defining polynomial is reducible mod p")
            self.poly = poly
        self._teich = {}
        self._build_frobenius()

    def _build_frobenius(self):
        p, f, mod = self.p, self.f, self.p ** self.N
        if f == 1:
            self._phi_cols = self._phi_inv_cols = ((1,),)
            return
        # phi(g^i) = y^i, so the powers of y are the rows of phi's matrix
        y = self._hensel_root_near_gp()
        self._phi_cols = tuple(zip(*pa.vec_powers(y, f - 1, self.poly, mod)))
        h = y
        for _ in range(f - 2):
            h = pa.vec_apply(h, self._phi_cols, mod)
        self._phi_inv_cols = tuple(zip(*pa.vec_powers(h, f - 1, self.poly, mod)))

    def _hensel_root_near_gp(self):
        # Newton y <- y - m(y) z from y = g^p, a root mod p, at doubling
        # precision; m is irreducible over the perfect field F_p, hence
        # separable, so m'(y) is a unit.  With y right mod p^k, z = 1/m'(y)
        # right mod p^(k/2) is made right mod p^k by one Newton step
        # z <- z (2 - m'(y) z), and then y is right mod p^(2k).
        p, f, N, poly = self.p, self.f, self.N, self.poly
        deriv = tuple(i * c for i, c in enumerate(poly))[1:]
        y = pa.vec_pow((0, 1) + (0,) * (f - 2), p, poly, p)
        z = pa.vec_inv(pa.vec_eval_int_poly(deriv, y, poly, p), poly, p, 1)
        k = 1
        while k < N:
            if k > 1:
                mod = p ** k
                dz = pa.vec_mul(pa.vec_eval_int_poly(deriv, y, poly, mod), z, poly, mod)
                z = pa.vec_mul(z, pa.vec_sub(pa.vec_from_int(2, f, mod), dz, mod), poly, mod)
            k = min(2 * k, N)
            mod = p ** k
            fy = pa.vec_eval_int_poly(poly, y, poly, mod)
            y = pa.vec_sub(y, pa.vec_mul(fy, z, poly, mod), mod)
        if any(pa.vec_eval_int_poly(poly, y, poly, p ** N)):
            raise ArithmeticError("Frobenius lift did not converge")
        return y

    # -- constructors -------------------------------------------------------

    def _prec(self, prec):
        if prec is None:
            return self.N
        if not 1 <= prec <= self.N:
            raise PrecisionExhausted(
                f"precision {prec} outside 1..{self.N}")
        return prec

    def from_int(self, n, prec=None):
        prec = self._prec(prec)
        return ZqElement(self, pa.vec_from_int(n, self.f, self.p ** prec), prec)

    def from_coeffs(self, coeffs, prec=None):
        prec = self._prec(prec)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.f:
            raise DomainError(f"expected {self.f} coefficients, got {len(coeffs)}")
        return ZqElement(self, pa.vec_mask(coeffs, self.p ** prec), prec)

    def zero(self, prec=None):
        return self.from_int(0, prec)

    def one(self, prec=None):
        return self.from_int(1, prec)

    def gen(self, prec=None):
        """The class of the variable g (only meaningful for f >= 2)."""
        if self.f == 1:
            raise DomainError("degree-1 rings have no polynomial generator")
        return self.from_coeffs((0, 1) + (0,) * (self.f - 2), prec)

    def fq(self, coeffs):
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.f:
            raise DomainError(f"expected {self.f} coefficients, got {len(coeffs)}")
        return FqElement(self, coeffs)

    def fq_from_int(self, n):
        return FqElement(self, (n % self.p,) + (0,) * (self.f - 1))

    # -- value identity -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicParams):
            return NotImplemented
        return (self.p, self.f, self.N, self.poly) == (other.p, other.f, other.N, other.poly)

    def __hash__(self):
        return hash((self.p, self.f, self.N, self.poly))

    def __repr__(self):
        return f"PadicParams(p={self.p}, f={self.f}, N={self.N}, poly={list(self.poly)})"


def new_params(p, f, N, m=None):
    """Validated ring parameters; m defaults to the deterministic modulus."""
    return PadicParams(p, f, N, m)


@frozen_record
class ValuationAtLeast:
    """A valuation only known to be >= ``bound`` (the element is 0 at its precision)."""

    bound: int

    def __repr__(self):
        return f">= {self.bound}"


class ZqElement:
    """An element of Z_q known modulo p^prec, 1 <= prec <= N.

    Immutable.  Arithmetic returns new elements at the minimum of the operand
    precisions; equality means congruence modulo the smaller modulus (use
    ``agreement_precision`` when the comparison precision itself matters).
    """

    __slots__ = ("params", "coeffs", "prec")
    __hash__ = None

    def __init__(self, params, coeffs, prec):
        self.params = params
        self.coeffs = coeffs
        self.prec = prec

    # -- plumbing -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ZqElement):
            if other.params is not self.params and other.params != self.params:
                raise ParamsMismatch("operands live in different rings")
            return other
        if isinstance(other, int):
            return self.params.from_int(other)
        return None

    def mask(self, prec):
        """The same value at precision prec <= current precision."""
        if prec > self.prec:
            raise PrecisionExhausted("cannot raise precision")
        if prec < 1:
            raise PrecisionExhausted("precision must be >= 1")
        return ZqElement(self.params, pa.vec_mask(self.coeffs, self.params.p ** prec), prec)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        prec = min(self.prec, v.prec)
        mod = self.params.p ** prec
        return ZqElement(self.params, pa.vec_add(self.coeffs, v.coeffs, mod), prec)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        prec = min(self.prec, v.prec)
        mod = self.params.p ** prec
        return ZqElement(self.params, pa.vec_sub(self.coeffs, v.coeffs, mod), prec)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return v - self

    def __neg__(self):
        mod = self.params.p ** self.prec
        return ZqElement(self.params, pa.vec_neg(self.coeffs, mod), self.prec)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        prec = min(self.prec, v.prec)
        mod = self.params.p ** prec
        return ZqElement(
            self.params, pa.vec_mul(self.coeffs, v.coeffs, self.params.poly, mod), prec)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inv()
        mod = self.params.p ** base.prec
        return ZqElement(
            base.params, pa.vec_pow(base.coeffs, abs(e), base.params.poly, mod), base.prec)

    def inv(self):
        """Multiplicative inverse; requires a unit (valuation 0)."""
        return ZqElement(
            self.params,
            pa.vec_inv(self.coeffs, self.params.poly, self.params.p, self.prec),
            self.prec)

    def __eq__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        prec = min(self.prec, v.prec)
        mod = self.params.p ** prec
        return pa.vec_mask(self.coeffs, mod) == pa.vec_mask(v.coeffs, mod)

    # -- structure ----------------------------------------------------------

    def residue(self):
        return FqElement(self.params, tuple(c % self.params.p for c in self.coeffs))

    def is_unit(self):
        return any(c % self.params.p for c in self.coeffs)

    def is_zero(self):
        """Zero at the stated precision (true valuation may just exceed it)."""
        return not any(self.coeffs)

    def valuation(self):
        """Largest k <= prec with p^k | u, or a lower-bound marker at 0."""
        if self.is_zero():
            return ValuationAtLeast(self.prec)
        p = self.params.p
        k = 0
        coeffs = self.coeffs
        while all(c % p == 0 for c in coeffs):
            coeffs = tuple(c // p for c in coeffs)
            k += 1
        return k

    def exact_div_p(self, k=1):
        """Divide by p^k (must be exact); precision drops by k."""
        if self.prec - k < 1:
            raise PrecisionExhausted(f"cannot divide by p^{k} at precision {self.prec}")
        return ZqElement(self.params, pa.vec_divexact_p(self.coeffs, self.params.p ** k),
                         self.prec - k)

    def mul_p_power(self, k):
        """Multiply by p^k, gaining k digits of absolute precision (capped at N)."""
        if k < 0:
            raise DomainError("use exact_div_p for negative powers")
        prec = min(self.prec + k, self.params.N)
        mod = self.params.p ** prec
        return ZqElement(self.params, pa.vec_scale(self.coeffs, self.params.p ** k, mod), prec)

    def frobenius(self):
        return frobenius(self)

    def frobenius_inv(self):
        return frobenius_inv(self)

    def trace(self):
        """The absolute trace sum_i phi^i(u), which lies in Z_p, as an int in [0, p^prec)."""
        acc = t = self
        for _ in range(self.params.f - 1):
            t = frobenius(t)
            acc = acc + t
        if any(acc.coeffs[1:]):
            raise ArithmeticError("trace left the prime field")
        return acc.coeffs[0]

    def __repr__(self):
        return f"Zq({self._poly_str()} + O({self.params.p}^{self.prec}))"

    def _poly_str(self):
        if self.params.f == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                gpow = "g" if i == 1 else f"g^{i}"
                parts.append(gpow if c == 1 else f"{c}*{gpow}")
        return " + ".join(parts) if parts else "0"


class FqElement(ZqElement):
    """A residue of F_q = Z_q/p: a ring element known mod p, in the basis 1, g, ..., g^{f-1}.

    Its arithmetic, comparison and Frobenius are the ring's at precision 1,
    so an operation on residues returns a ``ZqElement`` at precision 1;
    ``residue()`` makes it an ``FqElement`` again.
    """

    __slots__ = ()

    def __init__(self, params, coeffs):
        ZqElement.__init__(self, params, coeffs, 1)

    def lift(self, prec=None):
        """The integer-coefficient lift (digits as given) into Z_q."""
        return self.params.from_coeffs(self.coeffs, prec)

    def __repr__(self):
        return f"Fq({self._poly_str()})"


@frozen_record
class TeichmullerDigits:
    """The expansion u = sum_i omega(digits[i]) p^i, one residue per digit."""

    params: PadicParams
    digits: tuple

    @property
    def prec(self):
        return len(self.digits)

    def frobenius(self):
        """Digit-wise residue Frobenius c -> c^p."""
        return TeichmullerDigits(self.params,
                                 tuple(c.frobenius().residue() for c in self.digits))

    def __iter__(self):
        return iter(self.digits)


# ---------------------------------------------------------------------------
# module-level operations

def frobenius(u):
    """The ring automorphism lifting a -> a^p; precision is preserved."""
    mod = u.params.p ** u.prec
    return ZqElement(u.params, pa.vec_apply(u.coeffs, u.params._phi_cols, mod), u.prec)


def frobenius_inv(u):
    """The inverse automorphism, phi^(f-1) (phi has order f on Z_q)."""
    mod = u.params.p ** u.prec
    return ZqElement(u.params, pa.vec_apply(u.coeffs, u.params._phi_inv_cols, mod), u.prec)


def teichmuller(a, prec=None):
    """The unique lift omega(a) with omega(a)^q = omega(a).

    omega(a) is the fixed point of x -> phi^(-1)(x^p) over the residue of a,
    so ``_frobenius_lift`` lifts it with n = 1 and coupling 1, and each lift
    is checked against phi(omega) = omega^p mod p^N.  The table is cached
    per ring at full N and filled in one of two ways:

    * whole (``teichmuller_table``): one lift of omega(gamma), gamma a
      generator of F_q^*, and its (q-1)/2 powers, negated for the rest
      (p odd), or its q-1 powers (p = 2);
    * by orbits: one lift per orbit of <phi, -1>, the rest of the orbit
      being phi(omega(a)) = omega(a^p) and, for p odd, omega(-a) = -omega(a).

    A cold miss fills the whole table when q - 1 <= 4 N^2, and the orbit of
    its residue otherwise.  The rule weighs a lone full-precision
    ``digits`` call, which meets up to N orbits at about N passes of the
    lift each, against the (q-1)/2 or q-1 products of the whole table; f
    cancels.  Measured as the median CPU time of three cold ``digits`` calls
    on each of 279 rings (p from 2 to 257, q up to 3.7e4, N from 5 to 80),
    the rule picks the faster way on 270; on the other 9, all near the
    crossover, the slower is within a factor of 2.  By orbits against
    whole: (5, 4, 40) 22.5 against 4.1 ms, (3, 6, 60) 53 against 5.1 ms,
    (2, 8, 30) 17.7 against 4.3 ms, (101, 2, 20) 7.5 against 26 ms,
    (7, 5, 20) 17 against 87 ms, and near the crossover (2, 12, 40) 78
    against 100 ms and (101, 2, 40) 29 against 27 ms.
    """
    params = a.params
    prec = params._prec(prec)
    return ZqElement(params, pa.vec_mask(_omega(params, a.coeffs), params.p ** prec), prec)


def _omega(params, key):
    """omega(residue of ``key``) mod p^N; the table is keyed by residues, so ``key``
    is reduced on a miss only.  A miss fills the table whole or fills key's orbit."""
    teich = params._teich
    w = teich.get(key)
    if w is not None:
        return w
    p, mod = params.p, params.p ** params.N
    c = key = tuple(x % p for x in key)
    if key not in teich:
        if p ** params.f - 1 <= 4 * params.N ** 2:
            return teichmuller_table(params)[key]
        w = _lift_checked(params, c)
        while c not in teich:
            teich[c] = w
            if p > 2:
                teich[tuple(-x % p for x in c)] = pa.vec_neg(w, mod)
            w = pa.vec_apply(w, params._phi_cols, mod)
            c = tuple(x % p for x in w)
    return teich[key]


def _lift_checked(params, c):
    """omega(c) mod p^N by one Frobenius lift, checked against phi(omega) = omega^p."""
    mod = params.p ** params.N
    w = _frobenius_lift(params, (params._phi_inv_cols,), ((c,),), params.N)[0][0]
    if pa.vec_apply(w, params._phi_cols, mod) != pa.vec_pow(w, params.p, params.poly, mod):
        raise ArithmeticError("Teichmuller lift lost the invariant")
    return w


def teichmuller_table(params):
    """The full table {residue: omega(residue) mod p^N} of the ring, filled once.

    gamma is the first generator of F_q^* in ``itertools.product`` order
    (the class of g need not be one).  A unit w with phi(w) = w^p has
    w^q = w, so the checked lift of gamma is omega(gamma) exactly mod p^N,
    and so are its powers.  For p odd omega(gamma)^((q-1)/2) = -1, so the
    first (q-1)/2 powers are multiplied out and the rest are their
    negatives.  The table is published only once the lift passed its check.
    """
    p, f, poly = params.p, params.f, params.poly
    q1, mod = p ** f - 1, p ** params.N
    if len(params._teich) == q1 + 1:
        return params._teich
    one, ells = pa.vec_one(f), prime_factors(q1)
    gamma = next(c for c in itertools.product(range(p), repeat=f)
                 if any(c) and all(pa.vec_pow(c, q1 // ell, poly, p) != one for ell in ells))
    table = {pa.vec_zero(f): pa.vec_zero(f)}
    for w in pa.vec_powers(_lift_checked(params, gamma), (q1 if p == 2 else q1 // 2) - 1,
                           poly, mod):
        c = tuple(x % p for x in w)
        table[c] = w
        if p > 2:
            table[tuple(-x % p for x in c)] = pa.vec_neg(w, mod)
    params._teich = table
    return table


def _frobenius_lift(params, table, u, W):
    """The fixed point of T(x) = phi^(-1)(C * x^(p)) mod p^W, x^(p) entry-wise,
    over the n x n grid ``u`` of residue tuples; coefficients in [0, p^W).

    ``table[i]`` is the columns of (x_k) -> phi^(-1)(sum_k C_ik x_k), rows
    phi^(-1)(g^l C_ik) for k < n, l < f: entry (i, j) of a pass is one
    ``vec_apply`` of column j laid end to end.  T fixes residues and T mod
    p^(k+1) depends only on x mod p^k.  With a = x mod p^m,
    (a + p^m D)^p = a^p + p^(m+1) a^(p-1) D mod p^(2m) for every p, so
    T(a + p^m D) = T(a) + p^(m+1) phi^(-1)(C * (G o D)) mod p^k, k <= 2m,
    G = a^(p-1).  A Taylor block takes G as column tables and T(a), one p-th
    power per entry, and then each pass k is the affine step
    D <- (T(a) - a)/p^m + p phi^(-1)(C * (G o D)) mod p^(k-m).  Blocks start
    at k = m + 1 = 2, 3, 5, 9, 17, ...
    """
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


def _same_residue_field(params, other):
    """Whether ``other`` has the residue field of params: same p and f, same modulus mod p."""
    p = params.p
    return other is params or ((other.p, other.f) == (p, params.f) and
                               not any((a - b) % p for a, b in zip(other.poly, params.poly)))


def digits(u):
    """Peel the Teichmuller digit expansion; yields exactly u.prec digits.

    The peel runs on coefficient tuples: v - omega(c) is left unreduced, as
    it divides exactly by p and only its residue is read at the next digit.
    """
    params, p = u.params, u.params.p
    out = []
    v = u.coeffs
    for i in range(u.prec):
        c = tuple(x % p for x in v)
        out.append(FqElement(params, c))
        if i + 1 < u.prec:
            v = tuple((x - w) // p for x, w in zip(v, _omega(params, c)))
    return TeichmullerDigits(params, tuple(out))


def from_digits(d):
    """Evaluate sum_i omega(digits[i]) p^i at precision len(digits).

    One linear map: the omega vectors are the columns' entries and
    (1, p, ..., p^(n-1)) the input.  Every digit must come from the residue
    field of d's ring.
    """
    params = d.params
    prec = params._prec(len(d.digits))
    p = params.p
    ws = []
    for c in d.digits:
        if not _same_residue_field(params, c.params):
            raise ParamsMismatch("digit lives in another residue field")
        ws.append(_omega(params, c.coeffs))
    return ZqElement(params, pa.vec_apply([p ** i for i in range(prec)], tuple(zip(*ws)),
                                          p ** prec), prec)


def valuation(u):
    return u.valuation()


def agreement_precision(u, v):
    """Largest k <= min(prec) with u = v mod p^k (0 when residues differ)."""
    d = u - v
    if d.is_zero():
        return d.prec
    return min(d.valuation(), d.prec)


def random_element(params, rng, prec=None, unit=False):
    """Uniform element (or unit) at the given precision, from a seeded RNG."""
    prec = params._prec(prec)
    mod = params.p ** prec
    while True:
        coeffs = tuple(rng.randrange(mod) for _ in range(params.f))
        if not unit or any(c % params.p for c in coeffs):
            return ZqElement(params, coeffs, prec)
