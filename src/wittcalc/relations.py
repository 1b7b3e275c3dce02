"""Bounded-degree, bounded-height integer relation search among ring values.

Given values v_1, ..., v_m in a common Z_q/p^N, the probe looks for an
integer-coefficient polynomial P, of total degree <= d and max |coefficient|
<= H, with P(v_1, ..., v_m) = 0 mod p^M.  A hit is returned as a certificate
whose status is always "proven-congruence": finite precision can certify the
congruence, never exact vanishing, and a ``None`` result means only that
nothing inside the searched box passed -- it is not a transcendence claim.

A hit is a nonzero, sign-normalized integer coefficient vector over the
monomials of degree <= d, in graded order, that reproduces the congruence;
hits are ranked by (degree, height, lexicographic coefficient order).  The
monomials of degree <= k are a prefix of the list, and one pass searches the
largest prefix whose box holds at most ``EXHAUSTIVE_CAP`` vectors, which in
exhaustive mode is the whole query:

* exhaustive -- the least hit of the box, found by meeting in the middle
  once: the half sums of the first half of the monomials are tabled, the
  left-only hits ranked first, and the other half walked once, by degree, so
  about 2 (2H+1)^(n/2) half sums for a box of (2H+1)^n vectors;
* lattice   -- from the degree k of that least hit on, or from the first
  degree past the cap when the box holds none: the integer parts of the rows
  of the lattice spanned by [identity | monomial values] rows of degree <= k
  augmented with p^M rows, reduced by the integral LLL below with quality
  parameter 0.99, and the sums and differences of pairs of those rows, each
  kept once, of which a filter keeps those within the height bound that
  reproduce the congruence.  The first degree where it keeps one answers
  with the least.

Exhaustive mode is complete: a ``None`` means that nothing in the box
satisfies the congruence.  Every vector the lattice filter accepts lies in
the box, so lattice mode reduces no lattice below the degree of the box's
least hit: a lattice ``None`` speaks for the box of every degree within the
cap, and past it only for the rows it reduced.  Building a ``RelationQuery``
checks every cap for the whole degree-d query before any monomial is listed:
``MAX_MONOMIALS``, ``MAX_HEIGHT``, the signal floor, and ``LATTICE_DIM_CAP``
or ``EXHAUSTIVE_CAP``; past a cap it raises BudgetExceeded.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import combinations, compress, islice, product
from math import comb, log2

from . import polyarith as pa
from .errors import BudgetExceeded, DomainError, MixedParams
from .record import frozen_record

MAX_MONOMIALS = 512
MAX_HEIGHT = 1 << 20
EXHAUSTIVE_CAP = 2_000_000
LATTICE_DIM_CAP = 64


@frozen_record
class _Ratio:
    """An LLL quality parameter numerator/denominator, read like a Fraction."""

    numerator: int
    denominator: int


LLL_DELTA = _Ratio(99, 100)


def monomials(arity, deg_bound):
    """Exponent vectors of total degree <= deg_bound, in graded lex order: degree d
    by stars and bars, e_i the gap before bar i, the bar positions in lex order."""
    out = []
    for d in range(deg_bound + 1):
        for bars in combinations(range(d + arity - 1), arity - 1):
            edges = (-1,) + bars + (d + arity - 1,)
            out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


def _monomial_count(arity, deg_bound):
    count = comb(arity + deg_bound, deg_bound)
    if count > MAX_MONOMIALS:
        raise BudgetExceeded(f"{count} monomials exceed the budget of {MAX_MONOMIALS}")
    return count


@frozen_record
class RelationQuery:
    """A bounded search request over values sharing one ring and precision M."""

    values: tuple
    deg_bound: int
    height_bound: int
    mode: str = "lattice"
    precision: int = None

    def __post_init__(self):
        if not self.values:
            raise DomainError("need at least one value")
        params = self.values[0].params
        for v in self.values:
            if v.params != params:
                raise MixedParams("relation values live in different rings")
        if self.mode not in ("exhaustive", "lattice"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.deg_bound < 1 or self.height_bound < 1:
            raise DomainError("degree and height bounds must be >= 1")
        M = self.precision
        if M is None:
            M = min(v.prec for v in self.values)
            object.__setattr__(self, "precision", M)
        if M < 2 or M > min(v.prec for v in self.values):
            raise DomainError("search precision must be >= 2 and <= the values'")
        count = _monomial_count(len(self.values), self.deg_bound)
        if self.height_bound > MAX_HEIGHT:
            raise BudgetExceeded(f"height bound {self.height_bound} exceeds {MAX_HEIGHT}")
        # Signal floor: p^(M*f) must dwarf the box and p^M exceed H, or a "hit" is noise.
        bits_available = M * params.f * log2(params.p)
        bits_needed = 2 * (log2(2 * self.height_bound + 1) + log2(count + 1))
        if bits_available < bits_needed or params.p ** M <= self.height_bound:
            raise DomainError(
                f"precision M={M} too low for H={self.height_bound}, "
                f"{count} monomials (heuristic floor)")
        dim, box = count + params.f, (2 * self.height_bound + 1) ** count
        if self.mode == "lattice" and dim > LATTICE_DIM_CAP:
            raise BudgetExceeded(f"lattice dimension {dim} exceeds {LATTICE_DIM_CAP}")
        if self.mode == "exhaustive" and box > EXHAUSTIVE_CAP:
            # the whole box counts: the sign-normalized half and its negatives
            raise BudgetExceeded(f"exhaustive enumeration of {box} vectors exceeds "
                                 f"{EXHAUSTIVE_CAP}")

    @property
    def params(self):
        return self.values[0].params


@frozen_record
class RelationCertificate:
    """An integer polynomial congruence P(values) = 0 mod p^verified_precision.

    ``monomials`` lists only the support (nonzero coefficients).  The status
    never claims more than a congruence at the stated precision.
    """

    monomials: tuple
    coeffs: tuple
    verified_precision: int
    deg_bound: int
    height_bound: int
    precision_bound: int
    mode: str
    status: str = "proven-congruence"

    def __post_init__(self):
        if not self.coeffs or all(c == 0 for c in self.coeffs):
            raise DomainError("certificate must have a nonzero coefficient")
        if any(abs(c) > self.height_bound for c in self.coeffs):
            raise DomainError("certificate exceeds its own height bound")
        if len(self.monomials) != len(self.coeffs):
            raise DomainError("certificate needs one coefficient per monomial")
        if any(x < 0 for e in self.monomials for x in e) or self.degree > self.deg_bound:
            raise DomainError("certificate exponents must be >= 0, of degree <= d")
        if self.mode not in ("exhaustive", "lattice"):
            raise DomainError(f"certificate mode must be exhaustive or lattice, not {self.mode!r}")
        if self.status != "proven-congruence":
            raise DomainError(f"certificate status must be proven-congruence, not {self.status!r}")

    @property
    def degree(self):
        return max(sum(e) for e in self.monomials)


def _monomial_values(values, monos, k):
    """The monomials at the values mod p^k, from one power list per variable;
    a monomial's first factor is its power itself, not a product by one."""
    params = values[0].params
    mod = params.p ** k
    # vec_powers masks to p^k, and k never exceeds a value's precision
    pows = [pa.vec_powers(v.coeffs, max(e[j] for e in monos), params.poly, mod)
            for j, v in enumerate(values)]
    out = []
    for e in monos:
        factors = [row[kk] for row, kk in zip(pows, e) if kk] or [pows[0][0]]
        w = factors[0]
        for x in factors[1:]:
            w = pa.vec_mul(w, x, params.poly, mod)
        out.append(w)
    return out


def _evaluate(coeffs, ws, params, k):
    """sum c*w over the monomial values ws, mod p^k: integer multiples summed per coordinate."""
    mod = params.p ** k
    return params.from_coeffs([sum(c * x for c, x in zip(coeffs, col)) % mod
                               for col in zip(*ws)], k)


def _sign_normalized(c):
    for x in c:
        if x > 0:
            return tuple(c)
        if x < 0:
            return tuple(-y for y in c)
    return None


def find_relation(query):
    """Search the query box degree by degree; return the certificate of the least
    hit of the first degree that has one, or None.  A hit is a sign-normalized
    vector within the height bound that reproduces the congruence mod p^M."""
    found = _graded_search(query)
    return None if found is None else _certify(query, query.deg_bound, *found[1:])


def _graded_search(query):
    """(k, monos, w, c): the degree k where the search stopped, the monomials of
    degree <= d, their values w mod p^M and the least hit c found at k, padded
    with zeros; or None.

    One meet-in-the-middle pass ranks the hits of the largest prefix whose box
    has at most ``EXHAUSTIVE_CAP`` vectors, the whole query in exhaustive mode,
    which returns the least of them.  Lattice mode reduces the lattice of each
    degree from the degree of that least hit on, or from the first degree past
    the cap when the capped box holds none: a lower degree has no hit, so no
    row could pass there.
    """
    m, H, d = len(query.values), query.height_bound, query.deg_bound
    monos = monomials(m, d)
    w = _monomial_values(query.values, monos, query.precision)
    mod = query.params.p ** query.precision
    degs = [sum(e) for e in monos]
    rank = partial(_rank, degs)
    # the boxes grow with the degree, so those within the cap are of degrees 1..capped
    capped = sum((2 * H + 1) ** comb(m + k, k) <= EXHAUSTIVE_CAP for k in range(1, d + 1))
    best = _least_box_hit(w[:comb(m + capped, capped)], degs, H, mod) if capped else None
    if query.mode == "exhaustive":  # capped == d: the query's own cap
        return None if best is None else (rank(best)[0], monos, w, best)
    for k in range(capped + 1 if best is None else rank(best)[0], d + 1):
        wk = w[:comb(m + k, k)]  # the monomials of degree <= k, by graded order
        columns = list(zip(*wk))
        hits = (c for c in _lattice_vectors(query, wk) if max(map(abs, c)) <= H and all(
            sum(x * y for x, y in zip(c, col)) % mod == 0 for col in columns))
        best = min(hits, key=rank, default=None)
        if best is not None:
            return k, monos, w, best + (0,) * (len(w) - len(wk))
    return None


def _rank(degs, c):
    """(degree, height, c): hits are ranked by this key, the least first."""
    return max(compress(degs, c)), max(map(abs, c)), c


def _certify(query, deg_bound, monos, w, coeffs):
    """Certify the hit under degree bound deg_bound, re-verified at the values'
    own precision; w, the values at the search precision, serves when equal."""
    minprec = min(v.prec for v in query.values)
    if minprec > query.precision:
        w = _monomial_values(query.values, monos, minprec)
    result = _evaluate(coeffs, w, query.params, minprec)
    achieved = result.valuation()
    if achieved < query.precision:
        raise ArithmeticError("candidate relation failed re-verification")
    support = [(e, c) for e, c in zip(monos, coeffs) if c]
    return RelationCertificate(
        monomials=tuple(e for e, _ in support),
        coeffs=tuple(c for _, c in support),
        verified_precision=achieved,
        deg_bound=deg_bound,
        height_bound=query.height_bound,
        precision_bound=query.precision,
        mode=query.mode)


def _least_box_hit(w, degs, H, mod):
    """The least nonzero c in [-H, H]^n by ``_rank`` whose first nonzero entry
    is positive and with sum c_i w_i = 0 mod ``mod`` in every coordinate, or
    None; ``degs`` are the degrees of the values' monomials, in graded order.

    Meet in the middle (Horowitz & Sahni, J. ACM 21(2), 1974), once: the
    negated half sums of the first n//2 values are tabled by residue vector,
    a degree at a time, stopping at the first degree with a left-only hit
    (key 0); the right half's sums, over values of degree at most that hit's,
    are looked up in order of degree until a hit of higher degree than the
    least turns up.  So about 2 (2H+1)^(n/2) half sums are formed, and a
    hit-heavy box costs no more: a hit with a nonzero right half b has b's
    degree, and the least left half meeting b is one step into a staircase
    of its bucket, however many hits the bucket holds.
    """
    k, cs, f = len(w) // 2, range(-H, H + 1), len(w[0])
    zero, rank = (0,) * f, partial(_rank, degs)
    columns, done = [[0]] * f, 0
    while done < k:
        end = min(bisect_right(degs, degs[done]), k)
        columns, done = _half_sums(w[done:end], cs[::-1], mod, columns), end
        # over the reversed range, the sum at a's place is -sum a_i w_i, and the
        # tuples past the middle of ``product`` order are those above 0
        if done < k and zero in islice(zip(*columns), len(columns[0]) // 2 + 1, None):
            break
    left, table = (0,) * done, {}
    for a, key in zip(product(cs, repeat=done), zip(*columns)):
        if a > left:
            table.setdefault(key, []).append(a)
    pad = (0,) * (len(w) - done)
    best = min((a + pad for a in table.get(zero, ())), key=rank, default=None)
    top = len(w) if best is None else bisect_right(degs, rank(best)[0], done, len(w))
    if top == done:
        return best
    # the right values summed last first, over 0 first: a sum's place in
    # ``product`` order puts the last value it uses, so its degree, first
    cz, right, stairs = sorted(cs, key=abs), pad[:top - done], {}
    sums = zip(*_half_sums(w[done:top][::-1], cz, mod, [[0]] * f))
    for t, s in islice(zip(product(cz, repeat=top - done), sums), 1, None):
        if s != zero and s not in table:
            continue
        b = t[::-1]
        if s == zero and b > right:
            a = left  # b alone is a hit, and no left half ranks below 0
        elif s in table:
            if s not in stairs:
                stairs[s] = _staircase(table[s])
            height = max(map(abs, b))
            a = next((a for a, h in stairs[s] if h <= height), stairs[s][-1][0])
        else:
            continue
        c = a + b + pad[top - done:]
        if best is None or rank(c) < rank(best):
            best = c
        elif rank(c)[0] > rank(best)[0]:
            break  # every sum still to come is of this degree or higher
    return best


def _staircase(bucket):
    """(a, height of a) for each a of the lex-ordered bucket that is lower than
    every a before it: the lex-least a of height <= h is the first entry of
    height <= h, and the last entry is the lex-least of the least height."""
    stair = []
    for a in bucket:
        h = max(map(abs, a))
        if not stair or h < stair[-1][1]:
            stair.append((a, h))
    return stair


def _half_sums(ws, cs, mod, columns):
    """The columns, one per coordinate, of s + sum c_i w_i mod ``mod`` for every
    sum s of ``columns`` and every c in cs^len(ws): ``product`` order over the
    values summed before and then ws, as plain ints."""
    out = []
    for j, column in enumerate(columns):
        for v in ws:
            multiples = [c * v[j] for c in cs]
            column = [(x + m) % mod for x in column for m in multiples]
        out.append(column)
    return out


def _lattice_vectors(query, w):
    count = len(w)
    f = query.params.f
    dim = count + f
    mod = query.params.p ** query.precision
    # Any height-H relation vector has norm <= H*sqrt(count); scaling the
    # value columns by kappa pushes every non-relation vector well past the
    # LLL approximation factor, so relations surface as reduced rows.
    kappa = (query.height_bound * count + 1) << dim
    rows = [[1 if i == j else 0 for i in range(count)] + [kappa * c for c in x]
            for j, x in enumerate(w)]
    rows += [[0] * count + [kappa * mod if k == i else 0 for k in range(f)]
             for i in range(f)]
    reduced = [row[:count] for row in lll_reduce(rows, LLL_DELTA)]
    # The pairwise sums and differences are load-bearing under this LLL: in
    # a few queries the best relation is one of them and no reduced row.
    vectors = list(reduced)
    for i, a in enumerate(reduced):
        for b in reduced[i + 1:]:
            vectors += [[x + y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)]]
    normalized = {_sign_normalized(v) for v in vectors}
    normalized.discard(None)
    return normalized


def minimal_polynomial(u, deg_bound, height_bound=1, mode="exhaustive", precision=None):
    """Lowest-degree, then lowest-height univariate relation for u, or None:
    one query held to the caps at deg_bound, certified under the degree where
    its graded search stopped.  For a Teichmuller unit the result divides
    x^(q-1) - 1 over the integers."""
    query = RelationQuery(values=(u,), deg_bound=deg_bound, height_bound=height_bound,
                          mode=mode, precision=precision)
    found = _graded_search(query)
    return None if found is None else _certify(query, *found)


def verify_relation(cert, values, k):
    """Re-evaluate the certificate exactly modulo p^k; its box is held to MAX_MONOMIALS."""
    if not values:
        raise DomainError("a relation certificate is verified at one value or more, not none")
    minprec = min(v.prec for v in values)
    if k > minprec or k < 1:
        raise DomainError(f"verification precision {k} outside 1..{minprec}")
    if any(len(e) != len(values) for e in cert.monomials):
        raise DomainError(f"certificate exponents are not all of length {len(values)}")
    _monomial_count(len(values), cert.deg_bound)
    ws = _monomial_values(values, cert.monomials, k)
    result = _evaluate(cert.coeffs, ws, values[0].params, k)
    return result.is_zero()


# ---------------------------------------------------------------------------
# integral LLL

def lll_reduce(basis, delta=LLL_DELTA):
    """Lenstra-Lenstra-Lovasz reduction of linearly independent integer rows.

    Integral LLL (Cohen, Alg. 2.6.7; de Weger 1987): it keeps the Gram
    determinants d[i] of the first i rows (d[0] = 1) and the integers
    lam[i][j] = d[j+1] * mu[i][j], and updates both by exact division, so no
    rational number is ever formed.  Row k is size-reduced against every j
    from k-1 down to 0, rounding mu half to even, before the Lovasz test
    |b*_k|^2 >= (delta - mu[k][k-1]^2) |b*_{k-1}|^2, which with
    |b*_k|^2 = d[k+1]/d[k] is an integer inequality; rows k-1 and k swap
    when it fails.
    ``delta`` is any ratio in (1/4, 1] with ``numerator`` and ``denominator``,
    such as a Fraction.  Dependent rows raise DomainError (some d[i] is 0).
    """
    dn, dd = delta.numerator, delta.denominator
    if not 0 < dd < 4 * dn <= 4 * dd:
        raise DomainError(f"LLL quality {dn}/{dd} must lie in (1/4, 1]")
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise DomainError("LLL needs linearly independent rows")
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > d[j + 1]:
                # r = round(lk[j] / d[j+1]), ties to even
                r, rem = divmod(2 * lk[j] + d[j + 1], 2 * d[j + 1])
                if rem == 0 and r & 1:
                    r -= 1
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lk[j] -= r * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        lkk = lk[k - 1]
        if dd * d[k + 1] * d[k - 1] >= dn * d[k] ** 2 - dd * lkk ** 2:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lk[j], lam[k - 1][j] = lam[k - 1][j], lk[j]
        B = (d[k - 1] * d[k + 1] + lkk ** 2) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lkk * t) // d[k]
            lam[i][k - 1] = (B * t + lkk * lam[i][k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return b
