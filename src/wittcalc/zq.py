"""Exact arithmetic in Z_q/p^N, the truncated unramified extension of Z_p.

Fix a prime p, a residue degree f >= 1 and a working precision N >= 2, and
write q = p^f.  The ring Z_q = Z_p[g]/(m(g)) is represented in the polynomial
basis 1, g, ..., g^{f-1}: an element is a vector of f integers, each reduced
modulo p^k, where k <= N is the element's absolute precision.  Operations
combine precisions by taking the minimum and are exact modulo the precision
they report; nothing is rounded.

Besides the ring structure this module provides:

* ``frobenius`` -- the lift of the residue Frobenius a -> a^p, computed once
  per ring as the Hensel root of m nearest g^p and cached as a power table;
* ``teichmuller`` -- the multiplicative section of reduction mod p, i.e. the
  unique root-of-unity-or-zero lift of each residue, one power per orbit;
* ``digits``/``from_digits`` -- the expansion u = sum_i omega(c_i) p^i with
  residue digits c_i, on which the Frobenius acts digit-wise by c -> c^p.

Values of the residue field F_q are ``FqElement``; they appear as digits and
as reductions of ring elements.
"""

from __future__ import annotations

from . import polyarith as pa
from .conway import conway_polynomial, is_irreducible_mod_p, is_prime
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
    The Frobenius power table is built eagerly, so instances are immutable in
    all observable ways and safe to share between threads.
    """

    __slots__ = ("p", "f", "N", "poly", "_phi_pows", "_phi_inv_pows", "_teich")

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
            self._phi_pows = ((1,),)
            self._phi_inv_pows = ((1,),)
            return
        y = self._hensel_root_near_gp()
        self._phi_pows = pa.vec_powers(y, f - 1, self.poly, mod)
        h = y
        for _ in range(f - 2):
            h = self._apply(h, self._phi_pows, mod)
        self._phi_inv_pows = pa.vec_powers(h, f - 1, self.poly, mod)

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

    @staticmethod
    def _apply(coeffs, pows, mod):
        # sum_i coeffs[i] * pows[i], one column of the power table at a time
        return tuple(sum(map(int.__mul__, coeffs, col)) % mod for col in zip(*pows))

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
        return not self.residue().is_zero()

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


@frozen_record
class FqElement:
    """An element of the residue field F_q in the basis 1, g, ..., g^{f-1}."""

    params: PadicParams
    coeffs: tuple

    def _coerce(self, other):
        if isinstance(other, FqElement):
            if other.params is not self.params and other.params != self.params:
                raise ParamsMismatch("operands live in different fields")
            return other
        if isinstance(other, int):
            return self.params.fq_from_int(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FqElement(self.params, pa.vec_add(self.coeffs, v.coeffs, self.params.p))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FqElement(self.params, pa.vec_sub(self.coeffs, v.coeffs, self.params.p))

    def __neg__(self):
        return FqElement(self.params, pa.vec_neg(self.coeffs, self.params.p))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FqElement(
            self.params,
            pa.vec_mul(self.coeffs, v.coeffs, self.params.poly, self.params.p))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        return FqElement(
            self.params, pa.vec_pow(self.coeffs, e, self.params.poly, self.params.p))

    def inv(self):
        return FqElement(
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

    def lift(self, prec=None):
        """The integer-coefficient lift (digits as given) into Z_q."""
        return self.params.from_coeffs(self.coeffs, prec)

    def __repr__(self):
        return f"Fq({ZqElement(self.params, self.coeffs, 1)._poly_str()})"


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
        return TeichmullerDigits(self.params, tuple(c.frobenius() for c in self.digits))

    def __iter__(self):
        return iter(self.digits)


# ---------------------------------------------------------------------------
# module-level operations

def frobenius(u):
    """The ring automorphism lifting a -> a^p; precision is preserved."""
    mod = u.params.p ** u.prec
    return ZqElement(u.params, PadicParams._apply(u.coeffs, u.params._phi_pows, mod), u.prec)


def frobenius_inv(u):
    """The inverse automorphism, phi^(f-1) (phi has order f on Z_q)."""
    mod = u.params.p ** u.prec
    return ZqElement(u.params, PadicParams._apply(u.coeffs, u.params._phi_inv_pows, mod), u.prec)


def teichmuller(a, prec=None):
    """The unique lift omega(a) with omega(a)^q = omega(a).

    A unit lift right mod p^k has its q-th power right mod p^(k+f), so from
    the residue's own lift, right mod p, the power q^m with m = ceil((N-1)/f)
    is omega(a) mod p^N.  A cache miss pays that one power for the orbit of
    a under <phi, -1>: phi(omega(a)) = omega(a^p) and, for p odd,
    omega(-a) = -omega(a) hold exactly mod p^N.  Cached per ring at full N.
    """
    params = a.params
    prec = params._prec(prec)
    if a.coeffs not in params._teich:
        p, f, N, key = params.p, params.f, params.N, a.coeffs
        mod = p ** N
        w = pa.vec_pow(key, p ** (f * -(-(N - 1) // f)), params.poly, mod)
        while key not in params._teich:
            params._teich[key] = w
            if p > 2:
                params._teich[tuple(-c % p for c in key)] = pa.vec_neg(w, mod)
            w = PadicParams._apply(w, params._phi_pows, mod)
            key = tuple(c % p for c in w)
    return ZqElement(params, pa.vec_mask(params._teich[a.coeffs], params.p ** prec), prec)


def digits(u):
    """Peel the Teichmuller digit expansion; yields exactly u.prec digits."""
    out = []
    v = u
    for i in range(u.prec):
        c = v.residue()
        out.append(c)
        if i + 1 < u.prec:
            v = (v - teichmuller(c, v.prec)).exact_div_p(1)
    return TeichmullerDigits(u.params, tuple(out))


def from_digits(d):
    """Evaluate sum_i omega(digits[i]) p^i at precision len(digits)."""
    params = d.params
    prec = params._prec(len(d.digits))
    mod = params.p ** prec
    acc = pa.vec_zero(params.f)
    for i, c in enumerate(d.digits):
        w = teichmuller(c, prec)
        acc = pa.vec_add(acc, pa.vec_scale(w.coeffs, params.p ** i, mod), mod)
    return ZqElement(params, acc, prec)


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
