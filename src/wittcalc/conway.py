"""Primality checking and deterministic defining polynomials for F_{p^f}.

The degree-f default modulus is the Conway polynomial C_{p,f}: the first
monic primitive polynomial, in the classical word ordering, whose root is
norm-compatible with C_{p,d} for every proper divisor d of f.  Computing it
by direct search is cheap at the field sizes this package targets and keeps
serialized elements portable: any implementation that picks the same
polynomial produces bit-identical coefficients.

Compatibility with C_{p,1} = x - g fixes the norm (-1)^f a_0 of a root to g,
the smallest primitive root mod p, so the search scans only the p^(f-1)
words with that constant term, lazily and in order, and raises
``BudgetExceeded`` after ``MAX_WORDS`` of them.
"""

from functools import lru_cache
from itertools import count
from math import gcd

from .errors import BudgetExceeded, NonUnit, NotPrime
from .polyarith import vec_eval_int_poly, vec_inv, vec_one, vec_pow, vec_sub

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Words the Conway search examines for one degree before it gives up.
MAX_WORDS = 100_000


def is_prime(n):
    """Deterministic Miller-Rabin primality test (exact below 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Sorted distinct prime factors of n >= 1: primes below 41 by division,
    the rest by Pollard's rho with Brent's cycle finding (BIT 20, 1980) from
    fixed seeds, so the result and its cost are deterministic."""
    out = {ell for ell in _MR_WITNESSES if n % ell == 0}
    for ell in out:
        while n % ell == 0:
            n //= ell
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return sorted(out)


def _rho_factor(n):
    """A proper factor of a composite n with no prime factor below 41: y -> y^2 + c
    from y = 2, c = 1, 2, ..., the tortoise x catching up at powers of two."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(y - x, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def is_irreducible_mod_p(poly, p):
    """Is the monic integer polynomial irreducible over F_p?

    Rabin's test (SIAM J. Comput. 9, 1980).  The roots of x^(p^d) - x are
    the elements of F_{p^d}, so x^(p^f) = x mod (m, p) says every irreducible
    factor of m has degree dividing f.  For each prime ell | f, x^(p^(f/ell))
    - x being a unit mod (m, p), i.e. coprime to m, says no factor has degree
    dividing f/ell.  Then every factor has degree f: m is irreducible.
    """
    f = len(poly) - 1
    if f < 1:
        return False
    if f == 1:
        return True
    x = (0, 1) + (0,) * (f - 2)
    if vec_pow(x, p ** f, poly, p) != x:
        return False
    for ell in prime_factors(f):
        try:
            vec_inv(vec_sub(vec_pow(x, p ** (f // ell), poly, p), x, p), poly, p, 1)
        except NonUnit:
            return False
    return True


def smallest_primitive_root(p):
    g = 1  # 1 generates the trivial group F_2^*; never primitive for p > 2
    ells = prime_factors(p - 1)
    while True:
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells):
            return g
        g += 1


@lru_cache(maxsize=None)
def conway_polynomial(p, f):
    """C_{p,f} as a tuple of f+1 ints in [0, p), ascending degree."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    g = smallest_primitive_root(p)
    if f == 1:
        return ((-g) % p, 1)
    q1 = p ** f - 1
    r = q1 // (p - 1)
    # x^r == g, the d = 1 norm check, gives x^(q1/ell) = g^((p-1)/ell) != 1
    # for each prime ell not dividing r: only the primes of r need a test.
    ells = prime_factors(r)
    divisors = [d for d in range(2, f) if f % d == 0]
    x, one = (0, 1) + (0,) * (f - 2), vec_one(f)
    # Word ordering: the tuple (b_{f-1}, ..., b_0) with b_i = (-1)^{f-i} a_i
    # is compared lexicographically; b_0 = g and word n holds the base-p
    # digits of n in b_{f-1}, ..., b_1, most significant first.
    for n in range(min(p ** (f - 1), MAX_WORDS)):
        m = [g if f % 2 == 0 else p - g] + [0] * (f - 1) + [1]
        for i in range(1, f):
            n, b = divmod(n, p)
            m[i] = b if (f - i) % 2 == 0 else (-b) % p
        if vec_pow(x, r, m, p) != (g,) + one[1:]:
            continue
        if any(vec_pow(x, q1 // ell, m, p) == one for ell in ells):
            continue
        if all(_norm_compatible(x, m, p, f, d) for d in divisors):
            return tuple(m)
    # C_{p,f} exists, so only the budget ends the scan without a hit
    raise BudgetExceeded(f"Conway search for p={p}, f={f} passed {MAX_WORDS} words")


def _norm_compatible(x, m, p, f, d):
    """Does C_{p,d} vanish at x^((p^f-1)/(p^d-1)) modulo m?"""
    y = vec_pow(x, (p ** f - 1) // (p ** d - 1), m, p)
    return not any(vec_eval_int_poly(conway_polynomial(p, d), y, m, p))
