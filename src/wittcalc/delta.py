"""The Fermat quotient operator and the p-adic calculus built on it.

The operator  delta(u) = (phi(u) - u^p) / p  maps Z_q to Z_q and plays the
role of a derivation on numbers; it is not additive, but satisfies exact sum
and product laws (see the tests).  Each application consumes one digit of
absolute precision, so iterated quotients form a jet (u, delta u, ...,
delta^r u) of strictly decreasing precision.

On their convergence domains (p odd) the p-adic logarithm and exponential
are mutually inverse group isomorphisms between (1 + pZ_q, *) and (pZ_q, +),
and

    psi(u) = log(phi(u) / u^p) / p
           = sum_{n>=1} (-1)^(n-1) (p^(n-1)/n) (delta u / u^p)^n

is a group homomorphism from units to the additive group whose kernel at
full precision is exactly the Teichmuller units.  The two lines are one
power series: with phi(u)/u^p = 1 + p*w, w = delta(u)/u^p, log(1 + p*w)/p
is the series in w.  ``psi`` sums it in w, from a table with V = 0, so it
needs no guard digits.

Series truncation bounds come from exact valuation inequalities, never from
"iterate until small", so results are bit-reproducible:

* log:  v(t^n/n)   >= n - floor(log_p n); drop once that reaches the target;
* exp:  v(x^n/n!)  >= n - (n - s_p(n))/(p-1); same rule (not monotone in n,
  so terms are filtered up to a hard index rather than cut at the first hit);
* psi:  v(coeff_n) =  n - 1 - v_p(n).

All three series are summed by ``_series``: the terms c x^n / p^v are
brought to the common denominator p^V, V = max v, and the integer polynomial
sum c p^(V-v) x^n is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2(1),
1973) in about 2 sqrt(n) ring products.  Each factor is fixed, so each
product applies its column table (``polyarith.vec_apply``), and a Horner
step, a product by x^k plus a block of scalar multiples of cached powers, is
one such application.  ``eval_delta_function`` writes each exponent vector
as g*d, d primitive, and sums two or more integer-coefficient terms of one
direction, such as all of psi's (-p*n, n), as the series sum c_g m^g in the
monomial m = x^d by the same routine; other terms are products from the
power tables, a lone integer coefficient being a scaling.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from . import polyarith as pa
from .errors import (
    ArityMismatch,
    DomainError,
    NonUnit,
    ParamsMismatch,
    PrecisionExhausted,
    UnsupportedPrime,
)
from .record import frozen_record
from .zq import ZqElement, frobenius


def fermat_quotient(u):
    """delta(u) = (phi(u) - u^p)/p; the result has precision prec(u) - 1."""
    if u.prec < 2:
        raise PrecisionExhausted("fermat_quotient needs precision >= 2")
    return (frobenius(u) - u ** u.params.p).exact_div_p(1)


@frozen_record
class DeltaJet:
    """The vector (u, delta u, ..., delta^r u); entry i has precision prec-i."""

    entries: tuple

    @property
    def order(self):
        return len(self.entries) - 1

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def delta_jet(u, r):
    """Iterate the Fermat quotient r times; needs precision >= r + 1."""
    if r < 0:
        raise DomainError("jet order must be >= 0")
    if u.prec < r + 1:
        raise PrecisionExhausted(
            f"order-{r} jet needs precision >= {r + 1}, have {u.prec}")
    entries = [u]
    for _ in range(r):
        entries.append(fermat_quotient(entries[-1]))
    return DeltaJet(tuple(entries))


def _ilog(p, n):
    """floor(log_p n) for n >= 1."""
    k, t = 0, p
    while t <= n:
        k += 1
        t *= p
    return k


def _vp_factorial(p, n):
    s, m = 0, n
    while m:
        s += m % p
        m //= p
    return (n - s) // (p - 1)


def _require_odd(p):
    if p == 2:
        raise UnsupportedPrime("p = 2 is outside the convergence domain used here")


def _scaled(p, terms, target):
    """(V, c) for the triples (n, v, c): V = max v, c[n] = sum c p^(V-v) mod p^(target+V)."""
    big_v = max((v for _, v, _ in terms), default=0)
    mod = p ** (target + big_v)
    cs = [0] * (max((n for n, _, _ in terms), default=0) + 1)
    for n, v, c in terms:
        cs[n] = (cs[n] + c * p ** (big_v - v)) % mod
    return big_v, tuple(cs)


def _series(x, table, target):
    """sum c * x^n / p^v, exact mod p^target, from its table (V, c) = ``_scaled``.

    Each term is scaled to c * p^(V-v) * x^n, an integer polynomial in x
    evaluated mod p^(target + V) by Paterson-Stockmeyer: the powers
    x^0..x^k, k = isqrt(top + 1), are computed once, and Horner in x^k runs
    over blocks of k terms.  Each Horner step
    acc <- acc * x^k + sum_{i<k} c_{start+i} x^i is one linear map, applied
    to acc followed by the block's coefficients: its columns are those of
    multiplication by x^k stacked on the coefficients of x^0..x^(k-1).  That
    is about 2*sqrt(top) ring products instead of top.  Every term is p^V
    times an integer vector (p^v divides x^n), so the sum divides exactly by
    p^V and is then right mod p^target; c only needs to be right mod
    p^target.
    """
    params = x.params
    p, poly = params.p, params.poly
    big_v, cs = table
    mod = p ** (target + big_v)
    top = len(cs) - 1
    k = isqrt(top + 1)
    pows = pa.vec_powers(x.coeffs, k, poly, mod)
    step = tuple(kc + wc for kc, wc in zip(pa.vec_mul_cols(pows[k], poly, mod), zip(*pows[:k])))
    acc = pa.vec_zero(params.f)
    for start in range(top - top % k, -1, -k):
        acc = pa.vec_apply(acc + cs[start:start + k], step, mod)
    return ZqElement(params, pa.vec_mask(pa.vec_divexact_p(acc, p ** big_v), p ** target),
                     target)


def padic_log(u):
    """log on 1 + pZ_q (p odd), exact at the precision of u.

    log(u) = sum_{n>=1} (-1)^(n-1) (u-1)^n / n; terms with
    n - floor(log_p n) >= prec vanish modulo p^prec and are dropped (the
    bound is non-decreasing in n, so the first such term ends the sum).
    """
    params = u.params
    _require_odd(params.p)
    t = u - 1
    if t.is_unit():
        raise DomainError("log is only defined on 1 + p*Z_q")
    return _series(t, _log_terms(params.p, u.prec), u.prec)


@lru_cache(maxsize=256)
def _log_terms(p, target):
    terms = []
    n = 1
    while n - _ilog(p, n) < target:
        v = pa.vec_valuation((n,), p, n.bit_length())
        terms.append((n, v, (-1) ** (n - 1) * pow(n // p ** v, -1, p ** target)))
        n += 1
    return _scaled(p, terms, target)


def padic_exp(x):
    """exp on pZ_q (p odd), exact at the precision of x.

    exp(x) = sum_{n>=0} x^n / n!; terms with n - v_p(n!) >= prec are dropped.
    """
    params = x.params
    _require_odd(params.p)
    if x.is_unit():
        raise DomainError("exp is only defined on p*Z_q")
    return _series(x, _exp_terms(params.p, x.prec), x.prec)


@lru_cache(maxsize=256)
def _exp_terms(p, target):
    # n - v_p(n!) >= n(p-2)/(p-1) + 1/(p-1): everything beyond n_hard is dead
    n_hard = ((p - 1) * target - 1 + (p - 3)) // (p - 2)
    terms = [(0, 0, 1)]
    fact = 1
    for n in range(1, n_hard + 1):
        fact *= n
        v = _vp_factorial(p, n)
        if n - v < target:
            terms.append((n, v, pow(fact // p ** v, -1, p ** target)))
    return _scaled(p, terms, target)


def psi(u):
    """The homomorphism (units, *) -> (Z_q, +); precision drops by one.

    Sums the series in delta(u)/u^p, whose closed form is log(phi(u)/u^p)/p.
    """
    params = u.params
    _require_odd(params.p)
    if not u.is_unit():
        raise NonUnit("psi is defined on units only")
    if u.prec < 2:
        raise PrecisionExhausted("psi needs precision >= 2")
    up = u ** params.p
    return _psi((frobenius(u) - up).exact_div_p(1), up)


def _psi(du, up):
    """psi(u) from delta(u) and u^p: the series in w = delta(u)/u^p (p odd)."""
    p = up.params.p
    _require_odd(p)
    w = du * up.inv()
    return _series(w, _psi_terms(p, w.prec), w.prec)


@lru_cache(maxsize=256)
def _psi_terms(p, target):
    return _scaled(p, _psi_coefficients(p, target, p ** target), target)


@lru_cache(maxsize=256)
def _psi_coefficients(p, target, mod):
    """(n, 0, c_n) for the terms of sum (-1)^(n-1) (p^(n-1)/n) x^n alive mod p^target.

    v(c_n) = n - 1 - v_p(n) >= n - 1 - floor(log_p n), a bound that never
    decreases in n; for target >= 1, n_max is the last n where it is below
    the target.  c_n is reduced mod ``mod``.
    """
    n_max = 1
    while n_max - _ilog(p, n_max + 1) < target:
        n_max += 1
    out = []
    for n in range(1, n_max + 1):
        v = pa.vec_valuation((n,), p, n.bit_length())
        c = p ** (n - 1 - v) * pow(n // p ** v, -1, mod) % mod
        out.append((n, 0, c if n % 2 else (-c) % mod))
    return tuple(out)


@frozen_record
class RestrictedSeries:
    """A finite term list defining a delta-function of order r in m arguments.

    Variables are indexed j*(order+1) + i for argument j and jet level i, so a
    term's exponent vector has length (order+1)*arity.  When ``denominator``
    is set, exponents of the level-0 variables may be negative: the series is
    then a series in delta(u)/u^p style quotients and the affected arguments
    must be units.  At working precision any restricted series is congruent
    to such a finite sum; the truncation is the caller's responsibility and is
    reflected in the precision of the result.
    """

    order: int
    arity: int
    terms: tuple
    denominator: bool = False

    def __post_init__(self):
        if self.order < 0 or self.arity < 1:
            raise DomainError("need order >= 0 and arity >= 1")
        width = (self.order + 1) * self.arity
        seen = set()
        for exps, coeff in self.terms:
            if len(exps) != width:
                raise ArityMismatch(
                    f"exponent vector of length {len(exps)}, expected {width}")
            if exps in seen:
                raise DomainError(f"duplicate multi-index {exps}")
            seen.add(exps)
            if coeff.prec < 1:
                raise PrecisionExhausted("series coefficient carries no precision")
            for idx, e in enumerate(exps):
                if e < 0 and (not self.denominator or idx % (self.order + 1) != 0):
                    raise DomainError(
                        "negative exponents need the denominator flag and a level-0 variable")


def eval_delta_function(series, args):
    """Evaluate f(u) = F(u, delta u, ..., delta^r u) on a vector of arguments.

    The result is exact modulo p^k where k is the minimum over coefficient
    precisions and jet precisions (argument precision minus the order).
    """
    args = list(args)
    if len(args) != series.arity:
        raise ArityMismatch(f"expected {series.arity} arguments, got {len(args)}")
    if not args:
        raise ArityMismatch("need at least one argument")
    params = args[0].params
    for a in args:
        if a.params is not params and a.params != params:
            raise ParamsMismatch("arguments live in different rings")
    r = series.order
    jets = [delta_jet(a, r) for a in args]
    prec = min(
        min((c.prec for _, c in series.terms), default=params.N),
        min(a.prec for a in args) - r,
    )
    if prec < 1:
        raise PrecisionExhausted("no precision left after taking jets")
    tables = {}

    def monomial(exps):
        term = None
        for idx, e in enumerate(exps):
            if e == 0:
                continue
            table = tables.get((idx, e < 0))
            if table is None:
                j, i = divmod(idx, r + 1)
                x = jets[j][i].mask(prec)
                if e < 0:
                    if not args[j].is_unit():
                        raise NonUnit(f"argument {j} must be a unit")
                    x = x.inv()
                table = tables[idx, e < 0] = {1: x}
            power = table.get(abs(e))
            if power is None:
                power = table[abs(e)] = table[1] ** abs(e)
            term = power if term is None else term * power
        return term

    acc = params.zero(prec)
    groups = {}
    for exps, coeff in series.terms:
        g = gcd(*exps)
        if g and (coeff.params is params or coeff.params == params) \
                and not any(coeff.coeffs[1:]):
            groups.setdefault(tuple(e // g for e in exps), []).append((g, 0, coeff.coeffs[0]))
        else:
            acc = acc + (coeff.mask(prec) * monomial(exps) if g else coeff.mask(prec))
    for d, terms in groups.items():
        if len(terms) > 1:
            acc = acc + _series(monomial(d), _scaled(params.p, terms, prec), prec)
        else:
            # a lone integer coefficient costs a scaling, not a series
            (g, _, c), = terms
            term = monomial(tuple(g * e for e in d))
            acc = acc + ZqElement(params, pa.vec_scale(term.coeffs, c, params.p ** prec), prec)
    return acc.mask(prec)


def psi_series_truncation(params, target_prec):
    """The finite truncation of psi's defining series, exact mod p^target_prec.

    Order 1, arity 1, denominator form: term n is
    (-1)^(n-1) (p^(n-1)/n) * x1^n * x0^(-p n).
    """
    _require_odd(params.p)
    if target_prec < 1:
        raise DomainError("target precision must be >= 1")
    p = params.p
    terms = tuple(
        ((-p * n, n), params.from_coeffs((c,) + (0,) * (params.f - 1)))
        for n, _, c in _psi_coefficients(p, target_prec, p ** params.N))
    return RestrictedSeries(order=1, arity=1, terms=terms, denominator=True)
