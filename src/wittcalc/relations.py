"""Bounded-degree, bounded-height integer relation search among ring values.

Given values v_1, ..., v_m in a common Z_q/p^N, the probe looks for an
integer-coefficient polynomial P, of total degree <= d and max |coefficient|
<= H, with P(v_1, ..., v_m) = 0 mod p^M.  A hit is returned as a certificate
whose status is always "proven-congruence": finite precision can certify the
congruence, never exact vanishing, and a ``None`` result means only that
nothing inside the searched box passed -- it is not a transcendence claim.

Two modes propose nonzero, sign-normalized integer coefficient vectors:

* exhaustive -- every vector in the box whose first nonzero entry is
  positive; feasible only at tiny budgets but complete within them;
* lattice   -- the integer parts of the rows of the lattice spanned by
  [identity | monomial values] rows augmented with p^M rows, reduced by the
  integral LLL below with quality parameter 0.99, and the sums and
  differences of pairs of those rows, each kept once.

One filter serves both: a vector is accepted iff it is within the height
bound and reproduces the congruence.  Ties are broken by (degree of the
relation, height, lexicographic coefficient order), so output is
deterministic.
"""

from __future__ import annotations

from itertools import product
from math import comb, log2

from . import polyarith as pa
from .errors import BudgetExceeded, DomainError, MixedParams
from .record import frozen_record
from .zq import agreement_precision

DEFAULT_MONOMIAL_BUDGET = 512
DEFAULT_HEIGHT_BUDGET = 1 << 20
EXHAUSTIVE_CAP = 2_000_000
LATTICE_DIM_CAP = 64


@frozen_record
class _Ratio:
    """An LLL quality parameter numerator/denominator, read like a Fraction."""

    numerator: int
    denominator: int


LLL_DELTA = _Ratio(99, 100)


def monomials(arity, deg_bound):
    """Exponent vectors of total degree <= deg_bound, in graded lex order."""
    out = []
    for d in range(deg_bound + 1):
        out.extend(e for e in product(range(d + 1), repeat=arity) if sum(e) == d)
    return out


@frozen_record
class RelationQuery:
    """A bounded search request over values sharing one ring and precision M."""

    values: tuple
    deg_bound: int
    height_bound: int
    mode: str = "lattice"
    precision: int = None
    monomial_budget: int = DEFAULT_MONOMIAL_BUDGET
    height_budget: int = DEFAULT_HEIGHT_BUDGET

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
        count = comb(len(self.values) + self.deg_bound, self.deg_bound)
        if count > self.monomial_budget:
            raise BudgetExceeded(
                f"{count} monomials exceed the budget of {self.monomial_budget}")
        if self.height_bound > self.height_budget:
            raise BudgetExceeded(
                f"height bound {self.height_bound} exceeds {self.height_budget}")
        # Signal floor: p^(M*f) must dwarf the searched box or a "hit" is noise.
        bits_available = M * params.f * log2(params.p)
        bits_needed = 2 * (log2(2 * self.height_bound + 1) + log2(count + 1))
        if bits_available < bits_needed:
            raise DomainError(
                f"precision M={M} too low for H={self.height_bound}, "
                f"{count} monomials (heuristic floor)")

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

    @property
    def degree(self):
        return max(sum(e) for e in self.monomials)


def _monomial_values(values, monos, k):
    """The monomials at the values mod p^k, from one power list per variable."""
    params = values[0].params
    mod = params.p ** k
    pows = [pa.vec_powers(v.mask(k).coeffs, max(e[j] for e in monos), params.poly, mod)
            for j, v in enumerate(values)]
    out = []
    for e in monos:
        w = pa.vec_one(params.f)
        for row, kk in zip(pows, e):
            if kk:
                w = pa.vec_mul(w, row[kk], params.poly, mod)
        out.append(w)
    return out


def _evaluate(monos, coeffs, values, k):
    """sum c*w over the monomial values w, mod p^k."""
    params = values[0].params
    mod = params.p ** k
    cs = [pa.vec_from_int(c, params.f, mod) for c in coeffs]
    ws = _monomial_values(values, monos, k)
    return params.from_coeffs(pa.vec_dot(cs, ws, params.poly, mod), k)


def _sign_normalized(c):
    for x in c:
        if x > 0:
            return tuple(c)
        if x < 0:
            return tuple(-y for y in c)
    return None


def _candidate_key(monos, c):
    deg = max((sum(e) for e, x in zip(monos, c) if x), default=0)
    height = max(abs(x) for x in c)
    return (deg, height, c)


def find_relation(query):
    """Search the query box; return the best certificate found, or None.

    The mode proposes sign-normalized vectors, each once; a vector is a hit
    when it is within the height bound and reproduces the congruence in
    every coefficient column.
    """
    monos = monomials(len(query.values), query.deg_bound)
    w = _monomial_values(query.values, monos, query.precision)
    vectors = (_exhaustive_vectors if query.mode == "exhaustive" else _lattice_vectors)(query, w)
    mod = query.params.p ** query.precision
    H = query.height_bound
    columns = list(zip(*w))
    hits = []
    for c in vectors:
        if max(map(abs, c)) <= H and all(
                sum(x * y for x, y in zip(c, col)) % mod == 0 for col in columns):
            hits.append(c)
    if not hits:
        return None
    return _certify(query, monos, min(hits, key=lambda c: _candidate_key(monos, c)))


def _certify(query, monos, coeffs):
    minprec = min(v.prec for v in query.values)
    result = _evaluate(monos, coeffs, query.values, minprec)
    achieved = agreement_precision(result, query.params.zero(minprec))
    if achieved < query.precision:
        raise ArithmeticError("candidate relation failed re-verification")
    support = [(e, c) for e, c in zip(monos, coeffs) if c]
    return RelationCertificate(
        monomials=tuple(e for e, _ in support),
        coeffs=tuple(c for _, c in support),
        verified_precision=achieved,
        deg_bound=query.deg_bound,
        height_bound=query.height_bound,
        precision_bound=query.precision,
        mode=query.mode)


def _exhaustive_vectors(query, w):
    """Every vector of the box whose first nonzero entry is positive.

    The budget counts the whole box, since that is what the search covers;
    the other half of it is these vectors negated.
    """
    H = query.height_bound
    n = len(w)
    total = (2 * H + 1) ** n
    if total > EXHAUSTIVE_CAP:
        raise BudgetExceeded(
            f"exhaustive enumeration of {total} vectors exceeds {EXHAUSTIVE_CAP}")
    return ((0,) * i + (lead,) + rest
            for i in range(n) for lead in range(1, H + 1)
            for rest in product(range(-H, H + 1), repeat=n - i - 1))


def _lattice_vectors(query, w):
    count = len(w)
    f = query.params.f
    dim = count + f
    if dim > LATTICE_DIM_CAP:
        raise BudgetExceeded(f"lattice dimension {dim} exceeds {LATTICE_DIM_CAP}")
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


def minimal_polynomial(u, deg_bound, height_bound=1, mode="exhaustive",
                       precision=None, monomial_budget=DEFAULT_MONOMIAL_BUDGET,
                       height_budget=DEFAULT_HEIGHT_BUDGET):
    """Lowest-degree, then lowest-height univariate relation for u, or None.

    Runs the search with increasing degree so the first hit is minimal among
    what the chosen mode can see; every query is held to the budgets.  For a
    Teichmuller unit the result divides x^(q-1) - 1 over the integers.
    """
    for d in range(1, deg_bound + 1):
        cert = find_relation(RelationQuery(
            values=(u,), deg_bound=d, height_bound=height_bound,
            mode=mode, precision=precision, monomial_budget=monomial_budget,
            height_budget=height_budget))
        if cert is not None:
            return cert
    return None


def verify_relation(cert, values, k, monomial_budget=DEFAULT_MONOMIAL_BUDGET):
    """Re-evaluate the certificate exactly modulo p^k; its box is held to the monomial budget."""
    minprec = min(v.prec for v in values)
    if k > minprec or k < 1:
        raise DomainError(f"verification precision {k} outside 1..{minprec}")
    if any(len(e) != len(values) for e in cert.monomials):
        raise DomainError(f"certificate exponents are not all of length {len(values)}")
    count = comb(len(values) + cert.deg_bound, cert.deg_bound)
    if count > monomial_budget:
        raise BudgetExceeded(f"{count} monomials exceed the budget of {monomial_budget}")
    result = _evaluate(list(cert.monomials), list(cert.coeffs), list(values), k)
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
