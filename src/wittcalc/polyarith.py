"""Low-level coefficient-vector arithmetic.

Elements of Z_q/p^K are length-f tuples of plain ints in [0, p^K), written
in the basis 1, g, ..., g^{f-1} modulo a monic integer polynomial ``poly``
of degree f (a sequence of f+1 ints, leading coefficient 1).  Every routine
takes the modulus p^K as an explicit integer so internal computations can run
at guard precision above the ring's nominal p^N; results masked back down to
p^k are then exact.

Multiplying by an element y that stays fixed over a loop is a linear map on
coefficient vectors.  ``vec_mul_cols`` builds its f x f matrix once, as the
columns cols[j] = (coefficient j of y, of g*y, ..., of g^(f-1)*y), and
``vec_apply`` then makes each output coordinate one C-level dot product
``sum(map(mul, x, cols[j]))`` instead of a schoolbook product and a
reduction in bytecode.  Columns of several maps laid end to end apply to the
concatenated input, so a sum of products with fixed factors is one call.
"""

from operator import mul

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
    """(a^0, a^1, ..., a^n), one product per power above the first; for f >= 2
    the products apply the columns of a."""
    out = [vec_one(len(a)), vec_mask(a, mod)][:n + 1]
    if n > 1 and len(a) > 1:
        cols = vec_mul_cols(a, poly, mod)
        for _ in range(n - 1):
            out.append(vec_apply(out[-1], cols, mod))
    else:
        for _ in range(n - 1):
            out.append(vec_mul(out[-1], out[1], poly, mod))
    return tuple(out)


def vec_mul_cols(y, poly, mod):
    """The columns of x -> x*y mod (poly, mod): cols[j][i] is coefficient j of g^i * y.

    The rows g^i * y come from y by f-1 shifts by g, each reduced by the
    monic poly."""
    row = vec_mask(y, mod)
    rows = [row]
    for _ in range(len(y) - 1):
        top = row[-1]
        row = tuple((a - top * c) % mod for a, c in zip((0,) + row[:-1], poly))
        rows.append(row)
    return tuple(zip(*rows))


def vec_apply(x, cols, mod):
    """The linear map with columns ``cols`` (see ``vec_mul_cols``) applied to x, mod mod."""
    return tuple(sum(map(mul, x, col)) % mod for col in cols)


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
    """Inverse of a modulo (poly, p^K); NonUnit unless a is a unit mod (poly, p)."""
    f = len(a)
    mod = p ** K
    if not any(x % p for x in a):
        raise NonUnit("zero divisor: valuation >= 1")
    if f == 1:
        return (pow(a[0], -1, mod),)
    x = _inv_mod_p(a, poly, p)
    # Newton: x <- x * (2 - a*x), gaining one doubling of correct digits per pass
    k = 1
    two = vec_from_int(2, f, mod)
    while k < K:
        k *= 2
        m2 = p ** min(k, K)
        ax = vec_mul(vec_mask(a, m2), x, poly, m2)
        x = vec_mul(x, vec_sub(vec_mask(two, m2), ax, m2), poly, m2)
    return vec_mask(x, mod)


def _inv_mod_p(a, poly, p):
    """a^-1 mod (poly, p) by Euclid on (poly, a), keeping only a's cofactor.

    The remainders r and cofactors t keep t*a == r mod (poly, p); each
    cofactor has degree f minus that of the remainder before it, so below f.
    """
    f = len(a)
    r0, r1 = [c % p for c in poly], [x % p for x in a]
    t0, t1 = [0] * f, [1] + [0] * (f - 1)
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) < 2:
            break
        u = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            c, s = r0.pop() * u % p, len(r0) + 1 - len(r1)
            if c:
                for j, y in enumerate(r1[:-1]):
                    r0[s + j] = (r0[s + j] - c * y) % p
                for j, y in enumerate(t1):
                    if y:
                        t0[s + j] = (t0[s + j] - c * y) % p
        r0, r1, t0, t1 = r1, r0, t1, t0
    if not r1:
        raise NonUnit("element shares a factor with the modulus")
    u = pow(r1[0], -1, p)
    return tuple(y * u % p for y in t1)
