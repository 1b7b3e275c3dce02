"""Reference arithmetic in Z_q/p^k, written apart from wittcalc.

The benchmark checks every answer wittcalc gives against this module or
against a law the method must satisfy.  Nothing here imports wittcalc.

An element is a tuple of f plain ints, the coefficients of 1, g, ...,
g^(f-1) modulo a monic integer polynomial m of degree f (the ring's modulus,
read from wittcalc's output) and modulo p^k.  The Frobenius is g -> y with y
the root of m congruent to g^p, found by this module's own Newton iteration;
Teichmuller lifts are the powers of the lift of one generator of F_q^*.
"""

from math import gcd


class RefRing:
    """Z_q/p^N for q = p^f, with the modulus ``poly`` (f+1 ints, monic)."""

    def __init__(self, p, poly, N):
        poly = tuple(int(c) for c in poly)
        if poly[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.poly = poly
        self.f = len(poly) - 1
        self.N = N
        self.q = p ** self.f
        self._ypows = None
        self._teich = None
        self._gen_lift = None

    # -- ring operations ------------------------------------------------

    def one(self):
        return (1,) + (0,) * (self.f - 1)

    def lift_int(self, n, k=None):
        return (n % self.p ** (k or self.N),) + (0,) * (self.f - 1)

    def reduce(self, a, k):
        m = self.p ** k
        return tuple(x % m for x in a)

    def add(self, a, b, k):
        m = self.p ** k
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b, k):
        m = self.p ** k
        return tuple((x - y) % m for x, y in zip(a, b))

    def scale(self, a, c, k):
        m = self.p ** k
        return tuple(x * c % m for x in a)

    def mul(self, a, b, k):
        """Product modulo (poly, p^k): full product, then long division by poly."""
        f, m = self.f, self.p ** k
        prod = [0] * (2 * f - 1)
        for i in range(f):
            if a[i]:
                for j in range(f):
                    prod[i + j] += a[i] * b[j]
        low = self.poly[:-1]
        for top in range(2 * f - 2, f - 1, -1):
            c = prod[top]
            if c:
                base = top - f
                for j in range(f):
                    prod[base + j] -= c * low[j]
        return tuple(x % m for x in prod[:f])

    def pow(self, a, e, k):
        acc, base = self.lift_int(1, k), self.reduce(a, k)
        while e:
            if e & 1:
                acc = self.mul(acc, base, k)
            e >>= 1
            if e:
                base = self.mul(base, base, k)
        return acc

    def inv(self, a, k):
        """Inverse modulo p^k: a^(q-2) in F_q, then Newton x <- x(2 - ax)."""
        x = self.pow(a, self.q - 2, 1)
        if self.mul(a, x, 1) != self.lift_int(1, 1):
            raise ZeroDivisionError("not a unit")
        prec = 1
        while prec < k:
            prec = min(2 * prec, k)
            ax = self.mul(a, x, prec)
            x = self.mul(x, self.sub(self.lift_int(2, prec), ax, prec), prec)
        return x

    def eq(self, a, b, k):
        m = self.p ** k
        return all((x - y) % m == 0 for x, y in zip(a, b))

    def is_unit(self, a):
        return any(x % self.p for x in a)

    def residue(self, a):
        return tuple(x % self.p for x in a)

    # -- Frobenius ------------------------------------------------------

    def _eval_poly(self, coeffs, y, k):
        acc = (0,) * self.f
        for c in reversed(coeffs):
            acc = self.mul(acc, y, k)
            acc = ((acc[0] + c) % self.p ** k,) + acc[1:]
        return acc

    def _frobenius_powers(self):
        if self._ypows is None:
            f, N = self.f, self.N
            if f == 1:
                self._ypows = ((1,),)
                return self._ypows
            deriv = tuple(i * c for i, c in enumerate(self.poly))[1:]
            g = (0, 1) + (0,) * (f - 2)
            y = self.pow(g, self.p, N)
            for _ in range(2 * N.bit_length() + 4):
                my = self._eval_poly(self.poly, y, N)
                if not any(my):
                    break
                step = self.mul(my, self.inv(self._eval_poly(deriv, y, N), N), N)
                y = self.sub(y, step, N)
            else:
                raise ArithmeticError("Newton iteration for the Frobenius did not converge")
            pows = [self.one()]
            for _ in range(f - 1):
                pows.append(self.mul(pows[-1], y, N))
            self._ypows = tuple(pows)
        return self._ypows

    def frob(self, a, k):
        m = self.p ** k
        out = [0] * self.f
        for c, yi in zip(a, self._frobenius_powers()):
            if c:
                for j in range(self.f):
                    out[j] += c * yi[j]
        return tuple(x % m for x in out)

    # -- residue field and Teichmuller lifts ----------------------------

    def fq_pow(self, c, e):
        return self.pow(c, e, 1)

    def fq_trace(self, c):
        """Absolute trace F_q -> F_p as an int; c is a residue vector."""
        acc, t = tuple(c), tuple(c)
        for _ in range(self.f - 1):
            t = self.fq_pow(t, self.p)
            acc = self.add(acc, t, 1)
        if any(acc[1:]):
            raise ArithmeticError("trace left the prime field")
        return acc[0]

    def _generator(self):
        q1 = self.q - 1
        ells = prime_factors(q1)
        one = self.lift_int(1, 1)
        for n in range(1, self.q):
            c = tuple((n // self.p ** i) % self.p for i in range(self.f))
            if all(self.fq_pow(c, q1 // ell) != one for ell in ells):
                return c
        raise ArithmeticError("F_q^* has no generator")

    def teichmuller_table(self):
        """{residue: omega(residue)} at precision N, built from one generator.

        omega(gen) is the root of x^q - x congruent to gen, found by Newton's
        method (the derivative q x^(q-1) - 1 is -1 mod p); every other lift is
        a power of it, so the table costs q - 2 multiplications.
        """
        if self._teich is None:
            N, q = self.N, self.q
            gen = self._generator()
            x = gen
            for _ in range(2 * N.bit_length() + 4):
                fx = self.sub(self.pow(x, q, N), x, N)
                if not any(fx):
                    break
                dfx = self.sub(self.scale(self.pow(x, q - 1, N), q, N), self.one(), N)
                x = self.sub(x, self.mul(fx, self.inv(dfx, N), N), N)
            else:
                raise ArithmeticError("Newton iteration for omega did not converge")
            table = {}
            w = self.one()
            for _ in range(q - 1):
                table[self.residue(w)] = w
                w = self.mul(w, x, N)
            if len(table) != q - 1 or w != self.one():
                raise ArithmeticError("Teichmuller table is not a cyclic group of order q-1")
            self._teich = table
            self._gen_lift = x
        return self._teich

    def teichmuller_of_order(self, order, j):
        """omega(gen)^((q-1)/order * j) with gcd(j, order) = 1: a unit of exact order."""
        if (self.q - 1) % order or gcd(j, order) != 1:
            raise ValueError("order must divide q-1 and j be prime to it")
        self.teichmuller_table()
        return self.pow(self._gen_lift, (self.q - 1) // order * j, self.N)

    def from_digits(self, digits, k):
        """sum_i omega(digits[i]) p^i modulo p^k (zero digits lift to 0)."""
        table = self.teichmuller_table()
        acc = (0,) * self.f
        m = self.p ** k
        for i, c in enumerate(digits[:k]):
            c = tuple(c)
            if any(c):
                acc = tuple((x + y * self.p ** i) % m for x, y in zip(acc, table[c]))
        return acc

    # -- exp and log ----------------------------------------------------

    def log(self, z, k):
        """log(z) for z = 1 mod p, exact modulo p^k (p odd)."""
        p = self.p
        t = self.sub(z, self.one(), k)
        if self.is_unit(t):
            raise ValueError("log needs z = 1 mod p")
        n_max = 1
        while (n_max + 1) - _vp_bound(p, n_max + 1) < k:
            n_max += 1
        guard = _vp_bound(p, n_max)
        kk = k + guard
        t = self.reduce(self.sub(z, self.one(), kk), kk)
        acc = (0,) * self.f
        tp = self.one()
        for n in range(1, n_max + 1):
            tp = self.mul(tp, t, kk)
            v, unit = _split(p, n)
            term = tuple(x // p ** v for x in tp)
            term = self.scale(term, pow(unit, -1, p ** k), k)
            acc = self.add(acc, term, k) if n % 2 else self.sub(acc, term, k)
        return acc

    def exp(self, x, k):
        """exp(x) for x = 0 mod p, exact modulo p^k (p odd)."""
        p = self.p
        if self.is_unit(x):
            raise ValueError("exp needs x = 0 mod p")
        n_max = ((p - 1) * k + p - 3) // (p - 2) + 1
        guard = _vp_factorial(p, n_max)
        kk = k + guard
        acc = self.lift_int(1, k)
        xp = self.one()
        fact = 1
        for n in range(1, n_max + 1):
            xp = self.mul(xp, self.reduce(x, kk), kk)
            fact *= n
            v = _vp_factorial(p, n)
            if n - v >= k:
                continue
            unit = fact // p ** v
            term = tuple(c // p ** v for c in xp)
            acc = self.add(acc, self.scale(term, pow(unit, -1, p ** k), k), k)
        return acc


def _split(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _vp_bound(p, n):
    """floor(log_p n): the largest v_p(m) for m <= n."""
    v, t = 0, p
    while t <= n:
        v += 1
        t *= p
    return v


def _vp_factorial(p, n):
    v, m = 0, n
    while m:
        m //= p
        v += m
    return v


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic(k):
    """Integer coefficients (ascending) of the k-th cyclotomic polynomial."""
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num = _exact_div(num, cyclotomic(d))
    return num


def _exact_div(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1] // b[-1]
        out[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return out
