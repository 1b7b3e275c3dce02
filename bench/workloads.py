"""The four workloads: set-up, seeded rounds of operations, and their checks.

A round is a generator of ``Op``s; the runner sends each op's result back
in, so later ops of a round may take earlier results as input.  Inputs are
drawn from the round's seeded RNG and made with the reference arithmetic;
wittcalc receives them as coefficient vectors.  Every run attempts whole
rounds, so each run has the same mix of operations.
"""

import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from math import gcd

from checks import (
    Missed,
    check_constants,
    check_difference,
    check_digits,
    check_exp_log,
    check_exponential_family,
    check_fermat_quotient,
    check_frobenius,
    check_frobenius_inv,
    check_from_digits,
    check_inv,
    check_jet,
    check_log,
    check_matrix,
    check_minimal_polynomial,
    check_mul,
    check_power_residue,
    check_psi,
    check_psi_additive,
    check_relation,
    check_series,
    check_trace_obstruction,
    element,
    need,
)
from reference import RefRing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Op:
    """One call into wittcalc.  ``prepare`` runs untimed just before ``call``."""

    __slots__ = ("kind", "call", "check", "prepare")

    def __init__(self, kind, call, check, prepare=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.prepare = prepare


class ChildRun:
    """A finished CLI process: its CPU seconds, peak RSS (KiB), exit code and output."""

    __slots__ = ("cpu", "maxrss_kb", "code", "out", "err")

    def __init__(self, cpu, maxrss_kb, code, out, err):
        self.cpu = cpu
        self.maxrss_kb = maxrss_kb
        self.code = code
        self.out = out
        self.err = err


def fresh_import(name="wittcalc"):
    """Import wittcalc from scratch, so module-level caches start empty."""
    for mod in [m for m in sys.modules if m == "wittcalc" or m.startswith("wittcalc.")]:
        del sys.modules[mod]
    importlib.import_module(name)
    return sys.modules["wittcalc"]


def rand_coeffs(rng, p, f, N, unit=False):
    while True:
        c = tuple(rng.randrange(p ** N) for _ in range(f))
        if not unit or any(x % p for x in c):
            return c


def rand_elem(rng, R, unit=False):
    return rand_coeffs(rng, R.p, R.f, R.N, unit)


def rand_residue(rng, R, nonzero=False):
    while True:
        c = tuple(rng.randrange(R.p) for _ in range(R.f))
        if any(c) or not nonzero:
            return c


class Context:
    def __init__(self, **kw):
        self.__dict__.update(kw)
        self.refs = {}

    def ref(self, p, poly, N):
        key = (p, tuple(poly), N)
        if key not in self.refs:
            self.refs[key] = RefRing(p, poly, N)
        return self.refs[key]


def import_and_build(tracer, build):
    """Import wittcalc from scratch and run ``build(W)``; a tracer, if any,
    is installed first and records only the build."""
    W = fresh_import()
    if tracer:
        tracer.install()
        tracer.active = True
    try:
        return W, build(W)
    finally:
        if tracer:
            tracer.active = False


def default_poly(W, p, f):
    return (0, 1) if f == 1 else tuple(W.conway_polynomial(p, f))


# ---------------------------------------------------------------------------

class Calculus:
    """Single calls on long-lived rings whose Teichmuller tables are full."""

    name = "calculus"
    RINGS = ((5, 4, 40), (3, 6, 60), (2, 8, 30))
    JET_ORDER = 3
    setup_repeats = 3
    trace_rounds = 6

    def setup(self, tracer=None):
        t0 = time.process_time()
        W, rings = import_and_build(
            tracer, lambda W: [W.new_params(p, f, N) for p, f, N in self.RINGS])
        series = {}
        for P in rings:
            for c in itertools.product(range(P.p), repeat=P.f):
                W.teichmuller(P.fq(c))
            if P.p != 2:
                series[P.p] = W.psi_series_truncation(P, P.N - 1)
        return time.process_time() - t0, Context(W=W, rings=rings, series=series)

    def round(self, ctx, rng):
        W = ctx.W
        for P in ctx.rings:
            p, N = P.p, P.N
            R = ctx.ref(p, P.poly, N)
            tag = f"{p},{P.f}"
            u, v = rand_elem(rng, R, unit=True), rand_elem(rng, R, unit=True)
            U, V = P.from_coeffs(u), P.from_coeffs(v)
            yield Op(f"mul@{tag}", lambda: U * V,
                     lambda r: check_mul(R, u, v, element(r, N), N))
            yield Op(f"inv@{tag}", U.inv,
                     lambda r: check_inv(R, u, element(r, N), N))
            yield Op(f"frobenius@{tag}", lambda: W.frobenius(U),
                     lambda r: check_frobenius(R, u, element(r, N), N))
            yield Op(f"frobenius_inv@{tag}", lambda: W.frobenius_inv(U),
                     lambda r: check_frobenius_inv(R, u, element(r, N), N))
            yield Op(f"fermat_quotient@{tag}", lambda: W.fermat_quotient(U),
                     lambda r: check_fermat_quotient(R, u, element(r, N - 1), N))
            yield Op(f"delta_jet@{tag}", lambda: W.delta_jet(U, self.JET_ORDER),
                     lambda r: _check_jet(R, u, r, N, self.JET_ORDER))
            yield Op(f"digits@{tag}", lambda: W.digits(U),
                     lambda r: _check_digits(R, u, r, N))
            ds = [rand_residue(rng, R) for _ in range(N)]
            D = W.TeichmullerDigits(P, tuple(P.fq(c) for c in ds))
            yield Op(f"from_digits@{tag}", lambda: W.from_digits(D),
                     lambda r: check_from_digits(R, ds, element(r, N), N))
            if p == 2:
                continue  # exp, log and psi are defined for odd p only
            z = R.add(R.one(), R.scale(rand_elem(rng, R), p, N), N)
            Z = P.from_coeffs(z)
            y = yield Op(f"padic_log@{tag}", lambda: W.padic_log(Z),
                         lambda r: check_log(R, z, element(r, N), N))
            yield Op(f"padic_exp@{tag}", lambda: W.padic_exp(y),
                     lambda r: check_exp_log(R, z, element(r, N), N))
            uv = R.mul(u, v, N)
            UV = P.from_coeffs(uv)
            su = yield Op(f"psi@{tag}", lambda: W.psi(U),
                          lambda r: check_psi(R, u, element(r, N - 1), N))
            sv = yield Op(f"psi@{tag}", lambda: W.psi(V),
                          lambda r: check_psi(R, v, element(r, N - 1), N))
            yield Op(f"psi@{tag}", lambda: W.psi(UV),
                     lambda r: _check_psi_product(R, uv, su, sv, r, N))
            S = ctx.series[p]
            yield Op(f"eval_delta_function@{tag}", lambda: W.eval_delta_function(S, [U]),
                     lambda r: check_series(R, element(r, N - 1), element(su, N - 1), N - 1))


def _check_jet(R, u, jet, N, order):
    entries = [(tuple(e.coeffs), e.prec) for e in jet]
    need(len(entries) == order + 1 and entries[0] == (u, N), "jet starts at u")
    check_jet(R, entries)


def _check_digits(R, u, d, N):
    check_digits(R, u, [tuple(c.coeffs) for c in d.digits], N)


def _check_psi_product(R, uv, su, sv, r, N):
    s = element(r, N - 1)
    check_psi(R, uv, s, N)
    check_psi_additive(R, element(su, N - 1), element(sv, N - 1), s, N - 1)


# ---------------------------------------------------------------------------

class Solve:
    """Each problem solved in a ring built for it, whose Teichmuller table starts empty."""

    name = "solve"
    RINGS = ((31, 1, 20), (7, 2, 20), (101, 1, 20), (5, 3, 20),
             (13, 2, 20), (17, 2, 20), (7, 3, 20))
    # Rings of the solve_exponential calls in a round: three like calls sit
    # at the 90th percentile, so it falls inside one cluster of costs.
    EXPONENTIAL = (0, 1, 2, 4, 4, 4, 5, 6)
    setup_repeats = 5
    trace_rounds = 1

    def setup(self, tracer=None):
        t0 = time.process_time()
        W, polys = import_and_build(
            tracer, lambda W: {(p, f): default_poly(W, p, f) for p, f, _ in self.RINGS})
        return time.process_time() - t0, Context(W=W, polys=polys)

    def round(self, ctx, rng):
        W = ctx.W
        for i, (p, f, N) in enumerate(self.RINGS):
            R = ctx.ref(p, ctx.polys[p, f], N)
            tag = f"{p},{f}"

            def ring():
                return W.new_params(p, f, N)

            w = rand_elem(rng, R, unit=True)
            eps = R.mul(R.frob(w, N), R.inv(w, N), N)
            if f > 1:  # at f = 1, phi(w)/w = 1 and every unit solves the equation
                yield Op(f"solve_difference@{tag}",
                         lambda: W.solve_difference(ring().from_coeffs(eps)),
                         lambda r: _check_solved(R, eps, r, N))
            if i % 2 == 0:
                bad = _non_power_residue(rng, R)
                yield Op(f"solve_difference_mod_p@{tag}",
                         lambda: W.solve_difference(ring().from_coeffs(bad)),
                         lambda r: _check_mod_p(R, bad, r))
            else:
                k = rng.randint(1, 3)
                tr_eps = _trace_obstructed(rng, R, w, k)
                yield Op(f"solve_difference_trace@{tag}",
                         lambda: W.solve_difference(ring().from_coeffs(tr_eps)),
                         lambda r: _check_trace(R, tr_eps, r, k, N))
            for n in (2, 3):
                beta_m = [[rand_elem(rng, R) for _ in range(n)] for _ in range(n)]
                yield Op(f"solve_matrix_linear_n{n}@{tag}",
                         lambda: _solve_matrix(W, ring(), beta_m),
                         lambda r: check_matrix(
                             R, beta_m, [[element(e, N) for e in row] for row in r.entries], N))
        for i in self.EXPONENTIAL:
            p, f, N = self.RINGS[i]
            R = ctx.ref(p, ctx.polys[p, f], N)
            beta = rand_elem(rng, R)
            yield Op(f"solve_exponential@{p},{f}",
                     lambda: W.solve_exponential(W.new_params(p, f, N).from_coeffs(beta)),
                     lambda r: check_exponential_family(
                         R, beta, element(r.base, N), [element(z, N) for z in r.constants], N))


def _solve_matrix(W, P, beta):
    return W.solve_matrix_linear(W.ZqMatrix([[P.from_coeffs(b) for b in row] for row in beta]))


def _non_power_residue(rng, R):
    exponent = (R.q - 1) // gcd(R.p - 1, R.q - 1)
    while True:
        e = rand_elem(rng, R, unit=True)
        if R.fq_pow(R.residue(e), exponent) != R.lift_int(1, 1):
            return e


def _trace_obstructed(rng, R, w, k):
    """phi(w)/w * (1 + p^k c) with Tr(c mod p) != 0: N(eps) - 1 has valuation k."""
    while True:
        c = rand_residue(rng, R, nonzero=True)
        if R.fq_trace(c):
            break
    N = R.N
    base = R.mul(R.frob(w, N), R.inv(w, N), N)
    return R.mul(base, R.add(R.one(), R.scale(c, R.p ** k, N), N), N)


def _check_solved(R, eps, r, N):
    need(not hasattr(r, "kind"), "a solvable equation was reported unsolvable")
    check_difference(R, eps, element(r, N), N)


def _check_mod_p(R, eps, r):
    need(getattr(r, "kind", None) == "power-residue" and r.stage == "mod-p",
         "expected a mod-p power-residue obstruction")
    check_power_residue(R, eps, r.witness.coeffs, r.exponent)


def _check_trace(R, eps, r, k, N):
    need(getattr(r, "kind", None) == "trace", "expected a trace obstruction")
    check_trace_obstruction(R, eps, r.stage, r.witness.coeffs, r.trace,
                            element(r.partial, N), k)


# ---------------------------------------------------------------------------

class Relations:
    """Lattice-mode probes of dimension 4 to 7 and exhaustive minimal polynomials."""

    name = "relations"
    RINGS = ((7, 1, 20), (11, 1, 16), (3, 2, 20), (13, 1, 20), (5, 2, 16))
    # (kind, ring index, degree bound, orders of the planted Teichmuller unit).
    # Three like queries sit at the median and two at the 90th percentile, so
    # those quantiles fall inside a cluster of one kind, not between kinds.
    SLOTS = (
        ("min_poly", 3, 4, (12,)),
        ("min_poly", 4, 4, (8,)),
        ("teichmuller", 0, 3, (3, 6)),
        ("pair", 0, 1, ()),
        ("random", 3, 3, ()),
        ("random", 3, 3, ()),
        ("random", 3, 3, ()),
        ("teichmuller", 1, 4, (5, 10)),
        ("random", 2, 3, ()),
        ("pair", 0, 2, ()),
        ("pair", 0, 2, ()),
    )
    HEIGHT = 1
    setup_repeats = 5
    trace_rounds = 2

    def setup(self, tracer=None):
        t0 = time.process_time()
        W, rings = import_and_build(
            tracer, lambda W: [W.new_params(p, f, N) for p, f, N in self.RINGS])
        return time.process_time() - t0, Context(W=W, rings=rings)

    def round(self, ctx, rng):
        W, H = ctx.W, self.HEIGHT
        for kind, ring, d, orders in self.SLOTS:
            P = ctx.rings[ring]
            R = ctx.ref(P.p, P.poly, P.N)
            M = P.N
            if kind in ("teichmuller", "min_poly"):
                order = rng.choice(orders)
                j = rng.choice([j for j in range(1, order + 1) if gcd(j, order) == 1])
                values = (R.teichmuller_of_order(order, j),)
            elif kind == "pair":
                u = rand_elem(rng, R, unit=True)
                a, b = rng.choice((-1, 0, 1)), rng.choice((-1, 1))
                if d == 1:
                    w = R.add(R.lift_int(a), R.scale(u, b, M), M)
                else:
                    w = R.add(R.add(R.mul(u, u, M), R.scale(u, a, M), M), R.lift_int(b), M)
                values = (u, w)
            else:
                values = (rand_elem(rng, R, unit=True),)
            V = tuple(P.from_coeffs(v) for v in values)
            if kind == "min_poly":
                yield Op("minimal_polynomial",
                         lambda: W.minimal_polynomial(V[0], d, H, mode="exhaustive"),
                         lambda r: _check_cert(R, values, r, M, d, H, True, order))
            else:
                yield Op(f"find_relation_{kind}_d{d}@{P.p},{P.f}",
                         lambda: W.find_relation(W.RelationQuery(
                             values=V, deg_bound=d, height_bound=H)),
                         lambda r: _check_cert(R, values, r, M, d, H, kind != "random"))


def _check_cert(R, values, cert, M, d, H, planted, order=None):
    if cert is None:
        if planted:
            raise Missed("a planted relation was not found")
        return
    need(cert.status == "proven-congruence" and cert.verified_precision >= M,
         "certificate status and verified precision")
    if order is not None:
        need(cert.deg_bound <= d, "minimal_polynomial stops at or below its degree bound")
        d = cert.deg_bound
    check_relation(R, values, cert.monomials, cert.coeffs,
                   (cert.deg_bound, cert.height_bound, cert.precision_bound), M, d, H)
    if order is not None:
        check_minimal_polynomial(cert.monomials, cert.coeffs, order)


# ---------------------------------------------------------------------------

class Cli:
    """Sequential ``python -m wittcalc.cli`` processes over a seeded command mix."""

    name = "cli"
    SETUP_ARGV = ("-c", "import wittcalc.cli")
    setup_repeats = 7
    trace_rounds = 1

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # children use cached bytecode
        self.inproc = False  # run each argv through wittcalc.cli.run instead
        self.tracer = None
        self.import_times = []
        self.polys = None

    def spawn(self, args):
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        out = proc.stdout.read()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                        proc.returncode, out.decode(), err.decode())

    def setup(self, tracer=None):
        """The CPU time of a process that only imports wittcalc.cli: what every call pays first."""
        run = self.spawn(self.SETUP_ARGV)
        if run.code != 0:
            raise RuntimeError("importing wittcalc.cli failed:\n" + run.err)
        if self.polys is None:
            # Inputs in f >= 2 rings are made in the ring's default modulus.
            W = fresh_import()
            self.polys = {(p, f): default_poly(W, p, f) for p, f in ((13, 2), (7, 2), (5, 2))}
        return run.cpu, Context(polys=self.polys)

    def _prepare(self):
        t0 = time.process_time()
        fresh_import("wittcalc.cli")
        self.import_times.append(time.process_time() - t0)
        if self.tracer:
            self.tracer.install()

    def op(self, kind, ring, args, code, check):
        p, f, N = ring
        argv = ["--p", str(p), "--f", str(f), "--prec", str(N), *args]
        if self.inproc:
            call, prepare = (lambda: _run_inproc(argv)), self._prepare
        else:
            call, prepare = (lambda: self.spawn(["-m", "wittcalc.cli", *argv])), None

        def verify(run):
            need(run.code == code, f"exit code {run.code}, expected {code}: {run.err.strip()}")
            check(json.loads(run.out))

        return Op(kind, call, verify, prepare)

    def round(self, ctx, rng):
        for _ in range(2):
            yield from self._commands(ctx, rng)
        u = rand_coeffs(rng, 7, 6, 10, unit=True)
        yield self.op("delta-cold-conway", (7, 6, 10), ["delta", _arg(u)], 0,
                      lambda doc: _cli_delta(doc, u, 10))

    def _commands(self, ctx, rng):
        beta = rand_coeffs(rng, 13, 2, 20)
        yield self.op("solve-mult", (13, 2, 20), ["solve-mult", "--beta", _arg(beta)], 0,
                      lambda doc: _cli_family(doc, beta, 20))
        beta3 = rand_coeffs(rng, 7, 3, 12)
        yield self.op("solve-mult", (7, 3, 12), ["solve-mult", "--beta", _arg(beta3)], 0,
                      lambda doc: _cli_family(doc, beta3, 12))
        for ring in ((17, 2, 12), (11, 2, 16)):
            yield self.op("constants", ring, ["constants"], 0,
                          lambda doc: _cli_constants(doc, ring[2]))
        R13 = ctx.ref(13, (0, 1), 20)
        order13 = 12
        t13 = R13.teichmuller_of_order(order13, rng.choice((1, 5, 7, 11)))
        yield self.op("relations-min-poly", (13, 1, 20),
                      ["relations", "--values", json.dumps([_strs(t13)]), "--deg", "4",
                       "--height", "1", "--min-poly", "--mode", "exhaustive"], 0,
                      lambda doc: _cli_relation(doc, R13, (t13,), 4, order13))
        R7 = ctx.ref(7, (0, 1), 20)
        order7 = rng.choice((3, 6))
        t7 = R7.teichmuller_of_order(order7, rng.choice((1, order7 - 1)))
        yield self.op("relations-min-poly", (7, 1, 20),
                      ["relations", "--values", json.dumps([_strs(t7)]), "--deg", "2",
                       "--height", "1", "--min-poly"], 0,
                      lambda doc: _cli_relation(doc, R7, (t7,), 2, None))
        u = rand_coeffs(rng, 3, 6, 60, unit=True)
        yield self.op("psi", (3, 6, 60), ["psi", _arg(u)], 0, lambda doc: _cli_psi(doc, u, 60))
        u2 = rand_coeffs(rng, 3, 6, 60, unit=True)
        yield self.op("jet", (3, 6, 60), ["jet", _arg(u2), "--order", "3"], 0,
                      lambda doc: _cli_jet(doc, u2, 60, 3))
        Rd = ctx.ref(13, ctx.polys[13, 2], 20)
        w = rand_elem(rng, Rd, unit=True)
        eps = Rd.mul(Rd.frob(w, 20), Rd.inv(w, 20), 20)
        yield self.op("solve-diff", (13, 2, 20), ["solve-diff", "--eps", _arg(eps)], 0,
                      lambda doc: _cli_difference(doc, Rd, eps, 20))
        Rm = ctx.ref(7, ctx.polys[7, 2], 12)
        bad = _non_power_residue(rng, Rm)
        yield self.op("solve-diff-obstructed", (7, 2, 12), ["solve-diff", "--eps", _arg(bad)], 3,
                      lambda doc: _cli_mod_p(doc, Rm, bad))
        Rt = ctx.ref(5, ctx.polys[5, 2], 12)
        k = rng.randint(1, 3)
        tr_eps = _trace_obstructed(rng, Rt, rand_elem(rng, Rt, unit=True), k)
        yield self.op("solve-diff-obstructed", (5, 2, 12), ["solve-diff", "--eps", _arg(tr_eps)], 3,
                      lambda doc: _cli_trace(doc, Rt, tr_eps, k, 12))
        uv = rand_elem(rng, Rd, unit=True)
        ratio = Rd.mul(Rd.frob(uv, 20), Rd.inv(Rd.pow(uv, 13, 20), 20), 20)
        s = tuple(x // 13 for x in Rd.log(ratio, 20))  # psi(u), known mod 13^19
        items = {"items": [{"kind": "exponential", "beta": _strs(s), "u": _strs(uv)}]}
        yield self.op("verify", (13, 2, 20), ["verify", json.dumps(items)], 0, _cli_verify)


def _run_inproc(argv):
    cli = sys.modules["wittcalc.cli"]
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return ChildRun(None, None, code, out.getvalue(), err.getvalue())


def _strs(coeffs):
    return [str(c) for c in coeffs]


def _arg(coeffs):
    return json.dumps(_strs(coeffs))


_OUTPUT_RINGS = {}


def _ring_of(obj, N):
    """The reference ring for a CLI element object, in the modulus it reports."""
    key = (int(obj["p"]), tuple(int(c) for c in obj["poly"]), N)
    if key not in _OUTPUT_RINGS:
        _OUTPUT_RINGS[key] = RefRing(*key)
    return _OUTPUT_RINGS[key]


def _el(obj, prec):
    need(int(obj["prec"]) == prec, f"precision {obj['prec']}, expected {prec}")
    return tuple(int(c) for c in obj["coeffs"])


def _cli_delta(doc, u, N):
    check_fermat_quotient(_ring_of(doc, N), u, _el(doc, N - 1), N)


def _cli_family(doc, beta, N):
    base = doc["base"]
    need(doc["certificate"]["ok"] is True, "certificate ok")
    check_exponential_family(_ring_of(base, N), beta, _el(base, N),
                             [_el(z, N) for z in doc["constants"]], N)


def _cli_constants(doc, N):
    consts = doc["constants"]
    check_constants(_ring_of(consts[0], N), [_el(z, N) for z in consts], N)


def _cli_relation(doc, R, values, d, order):
    cert = doc["certificate"]
    if cert is None:
        raise Missed("a planted relation was not found")
    M = R.N
    need(doc["bounds"] == {"d": d, "H": 1, "M": M, "mode": doc["bounds"]["mode"]},
         "reported search bounds")
    b = cert["bounds"]
    need(b["H"] == 1 and b["M"] == M and b["d"] <= d and cert["verified_precision"] >= M,
         "certificate bounds")
    check_relation(R, values, [tuple(e) for e in cert["monomials"]], cert["coeffs"],
                   (b["d"], b["H"], b["M"]), M, b["d"], 1)
    if order:
        check_minimal_polynomial(cert["monomials"], cert["coeffs"], order)


def _cli_psi(doc, u, N):
    check_psi(_ring_of(doc, N), u, _el(doc, N - 1), N)


def _cli_jet(doc, u, N, order):
    entries = doc["entries"]
    need(doc["order"] == order and len(entries) == order + 1, "jet order")
    need(_el(entries[0], N) == u, "jet starts at u")
    check_jet(_ring_of(entries[0], N), [(_el(e, N - i), N - i) for i, e in enumerate(entries)])


def _cli_difference(doc, R, eps, N):
    sol = doc["solution"]
    need(_ring_of(sol, N).poly == R.poly, "solution in the input's ring")
    check_difference(R, eps, _el(sol, N), N)


def _cli_mod_p(doc, R, eps):
    ob = doc["obstruction"]
    need(ob["kind"] == "power-residue" and ob["stage"] == "mod-p", "mod-p obstruction")
    check_power_residue(R, eps, ob["witness"], ob["exponent"])


def _cli_trace(doc, R, eps, k, N):
    ob = doc["obstruction"]
    need(ob["kind"] == "trace", "trace obstruction")
    need(_ring_of(ob["partial"], N).poly == R.poly, "partial in the input's ring")
    check_trace_obstruction(R, eps, ob["stage"], ob["witness"], ob["trace"],
                            _el(ob["partial"], N), k)


def _cli_verify(doc):
    (res,) = doc["results"]
    need(res["kind"] == "exponential" and res["ok"] is True, "the solution verifies")
    for form in res["certificate"]["residual_precisions"].values():
        need(form["achieved"] >= form["available"], "every form reaches its available precision")
