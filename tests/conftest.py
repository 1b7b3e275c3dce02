"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own series code: they work
with exact Fractions (or plain integers) and reduce modulo p^N at the end,
so the tests check the implementation against a second, independent route.

The ``ring_products`` fixture counts the calls of the ring-product kernels.
"""

from fractions import Fraction

import pytest

from wittcalc import PadicParams
from wittcalc import polyarith as pa

_params_cache = {}


def get_params(p, f, N, poly=None):
    key = (p, f, N, poly)
    if key not in _params_cache:
        _params_cache[key] = PadicParams(p, f, N, poly)
    return _params_cache[key]


@pytest.fixture
def params():
    return get_params


class ProductCounter:
    """The calls of the polyarith kernels below, each recorded by its modulus.

    ``counter(run)`` clears the record, calls ``run()`` and returns the
    numbers of (vec_mul, vec_apply, vec_mul_cols) calls; ``counter.calls``
    keeps every kernel's moduli.  Calls made inside another kernel, such as
    vec_pow's products, count too.
    """

    KERNELS = ("vec_mul", "vec_apply", "vec_mul_cols", "vec_dot", "vec_pow")

    def __init__(self, monkeypatch):
        self.calls = {name: [] for name in self.KERNELS}
        for name, record in self.calls.items():
            fn = getattr(pa, name)
            monkeypatch.setattr(
                pa, name, lambda *a, record=record, fn=fn: record.append(a[-1]) or fn(*a))

    def __call__(self, run):
        for record in self.calls.values():
            record.clear()
        run()
        return tuple(len(self.calls[name]) for name in self.KERNELS[:3])


@pytest.fixture
def ring_products(monkeypatch):
    return ProductCounter(monkeypatch)


def vp_int(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(p, n):
    s, m = 0, n
    while m:
        s += m % p
        m //= p
    return (n - s) // (p - 1)


def reduce_fraction(fr, p, N):
    """a/b mod p^N for a rational with non-negative p-valuation."""
    mod = p ** N
    num, den = fr.numerator, fr.denominator
    if den % p == 0:
        raise ValueError("denominator not prime to p")
    return num * pow(den, -1, mod) % mod


def oracle_log(u_int, p, N):
    """Truncated-series p-adic log of an integer u = 1 mod p, big rationals."""
    t = u_int - 1
    total = 0
    n = 1
    while True:
        bound = n - _ilog(p, n)
        if bound >= N:
            break
        term = Fraction((-1) ** (n - 1) * t ** n, n)
        total = (total + reduce_fraction(term, p, N)) % p ** N
        n += 1
    return total


def oracle_exp(x, p, N):
    """Truncated-series p-adic exp of a rational x with v_p(x) >= 1."""
    n_hard = ((p - 1) * N - 1 + (p - 3)) // (p - 2)
    total = 0
    fact = 1
    power = Fraction(1)
    for n in range(n_hard + 1):
        if n:
            fact *= n
            power *= x
        term = power / fact
        if term == 0:
            continue
        v = vp_int(p, term.numerator) - vp_int(p, term.denominator)
        if v >= N:
            continue
        total = (total + reduce_fraction(term, p, N)) % p ** N
    return total


def _ilog(p, n):
    k, t = 0, p
    while t <= n:
        k += 1
        t *= p
    return k
