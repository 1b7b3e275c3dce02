"""Low-level coefficient-vector arithmetic.

Elements of Z_q/p^K are length-f tuples of plain ints in [0, p^K), written
in the basis 1, g, ..., g^{f-1} modulo a monic integer polynomial ``poly``
of degree f (a sequence of f+1 ints, leading coefficient 1).  Every routine
takes the modulus p^K as an explicit integer so internal computations can run
at guard precision above the ring's nominal p^N; results masked back down to
p^k are then exact.

The ``pp_*`` helpers are dense mod-p polynomial routines on int lists with
trailing zeros trimmed; they back the irreducibility tests and mod-p
inverses.
"""

from .errors import NonUnit


# ---------------------------------------------------------------------------
# length-f vectors modulo (poly, p^K)

def vec_zero(f):
    return (0,) * f


def vec_one(f):
    return (1,) + (0,) * (f - 1)


def vec_from_int(n, f, mod):
    return (n % mod,) + (0,) * (f - 1)


def vec_add(a, b, mod):
    return tuple((x + y) % mod for x, y in zip(a, b))


def vec_sub(a, b, mod):
    return tuple((x - y) % mod for x, y in zip(a, b))


def vec_neg(a, mod):
    return tuple((-x) % mod for x in a)


def vec_scale(a, c, mod):
    return tuple((x * c) % mod for x in a)


def vec_mask(a, mod):
    return tuple(x % mod for x in a)


def vec_mul(a, b, poly, mod):
    """Product in Z[g]/(poly, mod); schoolbook, reduced by the monic poly."""
    f = len(a)
    if f == 1:
        return ((a[0] * b[0]) % mod,)
    t = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                t[i + j] += x * y
    return _reduce(t, poly, mod)


def _reduce(t, poly, mod):
    """The integer product coefficients t, of length 2f-1, mod (poly, mod)."""
    f = len(poly) - 1
    for i in range(2 * f - 2, f - 1, -1):
        c = t[i] % mod
        if c:
            off = i - f
            for j in range(f):
                t[off + j] -= c * poly[j]
    return tuple(t[i] % mod for i in range(f))


def vec_pow(a, e, poly, mod):
    """a**e for e >= 0 by square-and-multiply from the top bit."""
    if e < 0:
        raise ValueError("negative exponent at the vector level")
    if e == 0:
        return vec_one(len(a))
    base = acc = vec_mask(a, mod)
    for bit in bin(e)[3:]:
        acc = vec_mul(acc, acc, poly, mod)
        if bit == "1":
            acc = vec_mul(acc, base, poly, mod)
    return acc


def vec_powers(a, n, poly, mod):
    """(a^0, a^1, ..., a^n), one product per power above the first."""
    out = [vec_one(len(a)), vec_mask(a, mod)][:n + 1]
    for _ in range(n - 1):
        out.append(vec_mul(out[-1], out[1], poly, mod))
    return tuple(out)


def vec_dot(xs, ys, poly, mod):
    """sum_k xs[k]*ys[k] in Z[g]/(poly, mod): products summed unreduced, reduced once."""
    t = [0] * (2 * len(poly) - 3)
    for a, b in zip(xs, ys):
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    t[i + j] += x * y
    return _reduce(t, poly, mod)


def vec_eval_int_poly(cs, y, poly, mod):
    """Evaluate the scalar-coefficient polynomial cs (ascending) at vector y."""
    acc = vec_from_int(cs[-1], len(y), mod)
    for c in reversed(cs[:-1]):
        acc = vec_mul(acc, y, poly, mod)
        acc = (acc[0] + c) % mod, *acc[1:]
    return acc


def vec_divexact_p(a, p_pow):
    """Divide every coefficient by p_pow; the division must be exact."""
    for x in a:
        if x % p_pow:
            raise ArithmeticError("inexact division by a power of p")
    return tuple(x // p_pow for x in a)


def vec_inv(a, poly, p, K):
    """Inverse of a modulo (poly, p^K); a must be a unit (nonzero mod p)."""
    f = len(a)
    mod = p ** K
    if f == 1:
        if a[0] % p == 0:
            raise NonUnit("zero divisor: valuation >= 1")
        return (pow(a[0], -1, mod),)
    am = pp_trim([x % p for x in a])
    if not am:
        raise NonUnit("zero divisor: valuation >= 1")
    x0 = pp_invmod(am, pp_trim([c % p for c in poly]), p)
    x = tuple(x0[i] if i < len(x0) else 0 for i in range(f))
    # Newton: x <- x * (2 - a*x), gaining one doubling of correct digits per pass
    k = 1
    two = vec_from_int(2, f, mod)
    while k < K:
        k *= 2
        m2 = p ** min(k, K)
        ax = vec_mul(vec_mask(a, m2), x, poly, m2)
        x = vec_mul(x, vec_sub(vec_mask(two, m2), ax, m2), poly, m2)
    return vec_mask(x, mod)


# ---------------------------------------------------------------------------
# dense polynomials over F_p: int lists, ascending degree, trailing zeros cut

def pp_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pp_mul(a, b, p):
    if not a or not b:
        return []
    t = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                t[i + j] = (t[i + j] + x * y) % p
    return pp_trim(t)


def pp_divmod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(da - db + 1, 0)
    for i in range(da - db, -1, -1):
        c = (a[i + db] * inv_lead) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return pp_trim(q), pp_trim(a[:db])


def pp_mod(a, b, p):
    return pp_divmod(a, b, p)[1]


def pp_gcd(a, b, p):
    a, b = pp_trim(a), pp_trim(b)
    while b:
        a, b = b, pp_mod(a, b, p)
    if a:
        a = [(x * pow(a[-1], -1, p)) % p for x in a]
    return a


def pp_ext_gcd(a, b, p):
    """Return (g, s, t) with s*a + t*b = g, g monic (or empty)."""
    r0, r1 = pp_trim(a), pp_trim(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, pp_trim([(x - y) % p for x, y in _zip_pad(s0, pp_mul(q, s1, p))])
        t0, t1 = t1, pp_trim([(x - y) % p for x, y in _zip_pad(t0, pp_mul(q, t1, p))])
    if r0:
        c = pow(r0[-1], -1, p)
        r0 = [(x * c) % p for x in r0]
        s0 = [(x * c) % p for x in s0]
        t0 = [(x * c) % p for x in t0]
    return r0, s0, t0


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def pp_invmod(a, m, p):
    """Inverse of a modulo the polynomial m over F_p."""
    g, s, _ = pp_ext_gcd(a, m, p)
    if len(g) != 1:
        raise NonUnit("element shares a factor with the modulus")
    return pp_mod(s, m, p)


def pp_powmod(a, e, m, p):
    acc = [1]
    base = pp_mod(a, m, p)
    while e:
        if e & 1:
            acc = pp_mod(pp_mul(acc, base, p), m, p)
        e >>= 1
        if e:
            base = pp_mod(pp_mul(base, base, p), m, p)
    return acc
