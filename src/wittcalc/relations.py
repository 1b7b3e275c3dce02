"""Bounded-degree, bounded-height integer relation search among ring values.

Given values v_1, ..., v_m in a common Z_q/p^N, the probe looks for an
integer-coefficient polynomial P, of total degree <= d and max |coefficient|
<= H, with P(v_1, ..., v_m) = 0 mod p^M.  A hit is returned as a certificate
whose status is always "proven-congruence": finite precision can certify the
congruence, never exact vanishing, and a ``None`` result means only that
nothing inside the searched box passed -- it is not a transcendence claim.

Two modes:

* exhaustive -- enumerate every coefficient vector in the box (sign
  normalized); feasible only at tiny budgets but complete within them;
* lattice   -- reduce the lattice spanned by [identity | monomial values]
  rows augmented with p^M rows, using the exact-arithmetic LLL below with
  quality parameter 0.99, and accept a reduced vector iff its integer part
  is nonzero, within the height bound, and reproduces the congruence.

Ties are broken by (degree of the relation, height, lexicographic
coefficient order), so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, log2

from .errors import BudgetExceeded, DomainError, MixedParams
from .zq import agreement_precision

DEFAULT_MONOMIAL_BUDGET = 512
DEFAULT_HEIGHT_BUDGET = 1 << 20
EXHAUSTIVE_CAP = 2_000_000
LATTICE_DIM_CAP = 64
LLL_DELTA = Fraction(99, 100)


def monomials(arity, deg_bound):
    """Exponent vectors of total degree <= deg_bound, in graded lex order."""
    out = []
    for d in range(deg_bound + 1):
        out.extend(e for e in product(range(d + 1), repeat=arity) if sum(e) == d)
    return out


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    @property
    def degree(self):
        return max(sum(e) for e in self.monomials)


def _monomial_values(values, monos, M):
    masked = [v.mask(M) for v in values]
    out = []
    for e in monos:
        w = masked[0].params.one(M)
        for v, k in zip(masked, e):
            if k:
                w = w * v ** k
        out.append(w)
    return out


def _evaluate(monos, coeffs, values, k):
    acc = values[0].params.zero(k)
    vals = [v.mask(k) for v in values]
    for e, c in zip(monos, coeffs):
        if c == 0:
            continue
        w = values[0].params.from_int(c, k)
        for v, kk in zip(vals, e):
            if kk:
                w = w * v ** kk
        acc = acc + w
    return acc


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
    """Search the query box; return the best certificate found, or None."""
    monos = monomials(len(query.values), query.deg_bound)
    M = query.precision
    w = _monomial_values(query.values, monos, M)
    if query.mode == "exhaustive":
        candidates = _exhaustive_candidates(query, monos, w)
    else:
        candidates = _lattice_candidates(query, monos, w)
    if not candidates:
        return None
    best = min(candidates, key=lambda c: _candidate_key(monos, c))
    return _certify(query, monos, best)


def _certify(query, monos, coeffs):
    minprec = min(v.prec for v in query.values)
    support = tuple((e, c) for e, c in zip(monos, coeffs) if c)
    result = _evaluate([e for e, _ in support], [c for _, c in support],
                       list(query.values), minprec)
    achieved = agreement_precision(result, query.params.zero(minprec))
    if achieved < query.precision:
        raise ArithmeticError("candidate relation failed re-verification")
    return RelationCertificate(
        monomials=tuple(e for e, _ in support),
        coeffs=tuple(c for _, c in support),
        verified_precision=achieved,
        deg_bound=query.deg_bound,
        height_bound=query.height_bound,
        precision_bound=query.precision,
        mode=query.mode)


def _exhaustive_candidates(query, monos, w):
    H = query.height_bound
    count = len(monos)
    total = (2 * H + 1) ** count
    if total > EXHAUSTIVE_CAP:
        raise BudgetExceeded(
            f"exhaustive enumeration of {total} vectors exceeds {EXHAUSTIVE_CAP}")
    mod = query.params.p ** query.precision
    coords = [x.coeffs for x in w]
    f = query.params.f
    seen = set()
    hits = []
    for c in product(range(-H, H + 1), repeat=count):
        cn = _sign_normalized(c)
        if cn is None or cn in seen:
            continue
        seen.add(cn)
        if all(sum(cc * coords[j][i] for j, cc in enumerate(cn)) % mod == 0
               for i in range(f)):
            hits.append(cn)
    return hits


def _lattice_candidates(query, monos, w):
    count = len(monos)
    f = query.params.f
    dim = count + f
    if dim > LATTICE_DIM_CAP:
        raise BudgetExceeded(f"lattice dimension {dim} exceeds {LATTICE_DIM_CAP}")
    mod = query.params.p ** query.precision
    H = query.height_bound
    # Any height-H relation vector has norm <= H*sqrt(count); scaling the
    # value columns by kappa pushes every non-relation vector well past the
    # LLL approximation factor, so relations surface as reduced rows.
    kappa = (H * count + 1) << dim
    rows = []
    for j, x in enumerate(w):
        rows.append([1 if i == j else 0 for i in range(count)]
                    + [kappa * c for c in x.coeffs])
    for i in range(f):
        rows.append([0] * count + [kappa * mod if k == i else 0 for k in range(f)])
    reduced = lll_reduce(rows, LLL_DELTA)
    coords = [x.coeffs for x in w]
    candidates = [row[:count] for row in reduced]
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            candidates.append([a + b for a, b in zip(reduced[i][:count], reduced[j][:count])])
            candidates.append([a - b for a, b in zip(reduced[i][:count], reduced[j][:count])])
    hits = []
    seen = set()
    for raw in candidates:
        c = _sign_normalized(raw)
        if c is None or c in seen or max(abs(x) for x in c) > H:
            continue
        seen.add(c)
        if all(sum(cc * coords[j][i] for j, cc in enumerate(c)) % mod == 0
               for i in range(f)):
            hits.append(c)
    return hits


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


def verify_relation(cert, values, k):
    """Re-evaluate the certificate exactly modulo p^k."""
    minprec = min(v.prec for v in values)
    if k > minprec or k < 1:
        raise DomainError(f"verification precision {k} outside 1..{minprec}")
    result = _evaluate(list(cert.monomials), list(cert.coeffs), list(values), k)
    return result.is_zero()


# ---------------------------------------------------------------------------
# exact-arithmetic LLL

def lll_reduce(basis, delta=LLL_DELTA):
    """Lenstra-Lenstra-Lovasz reduction over Q, returning integer rows.

    Textbook version with exact Fractions: size-reduce against earlier
    vectors, swap when the Lovasz condition fails.  Fine at the small
    dimensions this package searches (the caller caps the dimension).
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0:
        return b

    # Gram-Schmidt data: mu[i][j] for j < i and squared norms of b*_i
    def gram_schmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        star = [None] * n
        for i in range(n):
            star[i] = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], star[j])) / norms[j]
                star[i] = [x - mu[i][j] * y for x, y in zip(star[i], star[j])]
            norms[i] = sum(x * x for x in star[i])
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b
