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
``vec_apply`` then makes each output coordinate one dot product of x with
cols[j].  Columns of several maps laid end to end apply to the concatenated
input, so a sum of products with fixed factors is one call.  The width of
``vec_apply`` is len(x): every column holds at least that many entries and
only those are read, so a short input (such as the series' short last Horner
block) applies the leading part of each column.

The four ring kernels ``vec_mul``, ``vec_apply``, ``vec_dot`` and
``vec_mul_cols`` are straight-line code: on the first call with a new shape
(f for ``vec_mul`` and ``vec_mul_cols``, (len(x), len(cols)) for
``vec_apply``, (terms, f) for ``vec_dot``) the body is generated with every
loop unrolled over named locals, compiled, and kept in that kernel's dict,
as ``record.frozen_record`` builds its methods.  Importing the module
compiles nothing.  The reduction by the monic poly still takes c_i = t_i mod
p^K from the top coefficient down, so every result is the integer the loops
gave and a modulus with large coefficients does not make the sums grow.
The loop versions are the differential oracles in ``tests/oracles.py``.
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
    """Product in Z[g]/(poly, mod); schoolbook, reduced by the monic poly.

    At length 1 the product is made here: a kernel call costs more than it."""
    f = len(a)
    if f == 1:
        return (a[0] * b[0] % mod,)
    return _mul[f](a, b, poly, mod)


def vec_pow(a, e, poly, mod):
    """a**e for e >= 0 by square-and-multiply from the top bit; for length 1
    the builtin pow."""
    if e < 0:
        raise ValueError("negative exponent at the vector level")
    if e == 0:
        return vec_one(len(a))
    if len(a) == 1:
        return (pow(a[0], e, mod),)
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
    return _cols[len(y)](y, poly, mod)


def vec_apply(x, cols, mod):
    """The linear map with columns ``cols`` (see ``vec_mul_cols``) applied to x, mod mod.

    The map's width is len(x): every column holds at least that many entries,
    and only those are read."""
    return _apply[len(x), len(cols)](x, cols, mod)


def vec_dot(xs, ys, poly, mod):
    """sum_k xs[k]*ys[k] in Z[g]/(poly, mod), xs and ys of one length: products
    summed unreduced, reduced once."""
    return _dot[len(xs), len(poly) - 1](xs, ys, poly, mod)


# ---------------------------------------------------------------------------
# straight-line kernels, one per shape

class _Kernels(dict):
    """Kernels by shape; a missing one is generated by ``source(shape)`` and compiled."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, shape):
        ns, name = {}, f"<polyarith {self.source.__name__} {shape}>"
        exec(compile(self.source(shape), name, "exec"), ns)
        kernel = self[shape] = ns["kernel"]
        return kernel


def _sum(terms):
    """The terms added as a balanced tree, so a wide sum nests only log2 deep."""
    if len(terms) < 2:
        return terms[0] if terms else "0"
    h = len(terms) // 2
    return f"({_sum(terms[:h])} + {_sum(terms[h:])})"


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _unpack(names, seq):
    return f"    {''.join(n + ', ' for n in names)}= {seq}\n" if names else ""


def _tuple(items):
    return f"({''.join(i + ', ' for i in items)})"


def _poly(f):
    return _unpack(_names("m", f) + ["_"], "poly") if f > 1 else ""


def _reduced(f, pairs):
    """Statements returning sum x*y over the vector pairs, x and y named by
    coefficient, mod (poly, mod): the product coefficients t_0..t_(2f-2),
    reduced from the top as c_i = t_i mod mod, c_i * poly taken off t_(i-f..i-1)."""
    def coeff(i):
        t = [f"{x[j]} * {y[i - j]}" for x, y in pairs
             for j in range(max(0, i - f + 1), min(i, f - 1) + 1)]
        less = [f"c{k} * m{i - k + f}" for k in range(max(f, i + 1), min(i + f, 2 * f - 2) + 1)]
        return f"({_sum(t)} - {_sum(less)}) % mod" if less else f"{_sum(t)} % mod"

    body = _poly(f) + "".join(f"    c{i} = {coeff(i)}\n" for i in range(2 * f - 2, f - 1, -1))
    return body + f"    return {_tuple(coeff(i) for i in range(f))}\n"


def _mul_source(f):
    a, b = _names("a", f), _names("b", f)
    return ("def kernel(a, b, poly, mod):\n" + _unpack(a, "a") + _unpack(b, "b")
            + _reduced(f, [(a, b)]))


def _dot_source(shape):
    n, f = shape
    a, b = ([_names(f"{v}{k}_", f) for k in range(n)] for v in "ab")
    return ("def kernel(xs, ys, poly, mod):\n" + _unpack([_tuple(x) for x in a], "xs")
            + _unpack([_tuple(y) for y in b], "ys") + _reduced(f, list(zip(a, b))))


def _cols_source(f):
    rows = [_names("r0_", f)]
    body = _unpack(_names("y", f), "y") + _poly(f)
    body += "".join(f"    r0_{j} = y{j} % mod\n" for j in range(f))
    for i in range(1, f):
        top = rows[-1][-1]
        rows.append(_names(f"r{i}_", f))
        body += f"    r{i}_0 = -{top} * m0 % mod\n"
        body += "".join(f"    r{i}_{j} = ({rows[-2][j - 1]} - {top} * m{j}) % mod\n"
                        for j in range(1, f))
    cols = _tuple(_tuple(col) for col in zip(*rows))
    return f"def kernel(y, poly, mod):\n{body}    return {cols}\n"


def _apply_source(shape):
    n, w = shape
    out = (f"{_sum([f'x{i} * c{j}[{i}]' for i in range(n)])} % mod" for j in range(w))
    return ("def kernel(x, cols, mod):\n" + _unpack(_names("x", n), "x")
            + _unpack(_names("c", w), "cols") + f"    return {_tuple(out)}\n")


_mul = _Kernels(_mul_source)
_dot = _Kernels(_dot_source)
_cols = _Kernels(_cols_source)
_apply = _Kernels(_apply_source)


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
