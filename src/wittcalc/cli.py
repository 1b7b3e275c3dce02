"""Command-line front end with bit-exact JSON input and output.

Every document is written to stdout as one JSON object (sorted keys, two
space indent, trailing newline), so identical invocations produce identical
bytes.  Diagnostics go to stderr.  Exit codes:

    0  success
    2  domain or precondition error (bad parameters, non-units, parse errors)
    3  unsolvable: an obstruction was found and written to stdout as data
    4  precision exhausted
    5  search budget exceeded

Elements are passed inline as JSON, as a path to a JSON file, or as ``-``
for stdin.  The short form is a bare array of f decimal coefficient strings
interpreted in the ring selected by --p/--f/--prec; the long form is the
canonical object {p, f, prec, poly, coeffs}.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stdout

from . import serialize as ser
from .delta import delta_jet, fermat_quotient, padic_exp, padic_log, psi
from .errors import (
    BudgetExceeded,
    DomainError,
    PrecisionExhausted,
    WittError,
)
from .relations import RelationQuery, find_relation, minimal_polynomial, verify_relation
from .solvers import (
    ExponentialProblem,
    Obstruction,
    solve_difference,
    solve_exponential,
    solve_matrix_linear,
    verify_exponential,
    verify_matrix_linear,
    enumerate_constants,
)
from .zq import PadicParams, digits, frobenius, random_element

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_UNSOLVABLE = 3
EXIT_PRECISION = 4
EXIT_BUDGET = 5


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise DomainError, which ``run`` prints as one line to its stderr."""

    def error(self, message):
        raise DomainError(message.replace("\n", "\\n"))


def build_parser():
    parser = _ArgumentParser(
        prog="wittcalc",
        description="Exact Fermat-quotient calculus on Z_q/p^N with JSON I/O.")
    parser.add_argument("--p", type=int, required=True, help="prime p")
    parser.add_argument("--f", type=int, default=1, help="residue degree f")
    parser.add_argument("--prec", type=int, required=True,
                        help="absolute working precision N")
    parser.add_argument("--poly", default=None,
                        help="defining polynomial as a JSON list of f+1 ints")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed; required by randomized subcommands")
    parser.add_argument("--format", choices=("json", "digits"), default="json",
                        help="render result elements canonically or as digits")

    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("digits", "Teichmuller digit expansion of an element"),
        ("delta", "Fermat quotient of an element"),
        ("log", "p-adic logarithm on 1 + pZ_q"),
        ("exp", "p-adic exponential on pZ_q"),
        ("psi", "log(phi(u)/u^p)/p on units"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("element", help="element (inline JSON, file path, or -)")

    sp = sub.add_parser("jet", help="iterated Fermat quotients")
    sp.add_argument("element")
    sp.add_argument("--order", type=int, required=True)

    sp = sub.add_parser("solve-mult", help="solve psi(u) = beta")
    sp.add_argument("--beta", required=True)

    sp = sub.add_parser("solve-diff", help="solve phi(u) = eps * u")
    sp.add_argument("--eps", required=True)

    sp = sub.add_parser("solve-matrix", help="solve delta(u) = beta * u^(p)")
    sp.add_argument("--beta", required=True, help="matrix JSON")
    sp.add_argument("--u0", default=None, help="mod-p seed matrix JSON")

    sub.add_parser("constants", help="the q-1 Teichmuller units")

    sp = sub.add_parser("relations", help="bounded integer-relation search")
    sp.add_argument("--values", default=None, help="JSON list of elements")
    sp.add_argument("--deg", type=int, required=True)
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--mode", choices=("lattice", "exhaustive"), default="lattice")
    sp.add_argument("--precision", type=int, default=None,
                    help="congruence precision M (default: value precision)")
    sp.add_argument("--min-poly", action="store_true",
                    help="search for the minimal univariate relation")
    sp.add_argument("--random-units", type=int, default=None, metavar="K",
                    help="probe K seeded random units instead of --values")

    sp = sub.add_parser("verify", help="batch verification of solutions/certificates")
    sp.add_argument("items", help="items document (inline JSON, file path, or -)")

    return parser


def _load_json_arg(text, stdin):
    if text == "-":
        return json.loads(stdin.read())
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _element_from_arg(obj, params):
    if isinstance(obj, list):
        return params.from_coeffs(ser.coeffs_from_obj(obj))
    if isinstance(obj, dict):
        return ser.element_from_obj(obj, params)
    raise DomainError("an element must be a JSON array or object")


def _render_element(u, fmt):
    if fmt == "digits":
        return ser.digits_to_obj(digits(u))
    return ser.element_to_obj(u)


def _emit(doc, stdout):
    stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def run(argv, stdout=None, stderr=None):
    """Execute one CLI invocation; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    stdin = sys.stdin
    parser = build_parser()
    try:
        with redirect_stdout(stdout):  # argparse prints --help to sys.stdout
            args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return EXIT_DOMAIN if exc.code else EXIT_OK
    except DomainError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_DOMAIN
    try:
        poly = ser.coeffs_from_obj(json.loads(args.poly)) if args.poly else None
        params = PadicParams(args.p, args.f, args.prec, poly)
        doc, code = _dispatch(args, params, stdin)
        _emit(doc, stdout)
        return code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_BUDGET
    except PrecisionExhausted as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_PRECISION
    except WittError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_DOMAIN
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_DOMAIN


def _dispatch(args, params, stdin):
    cmd = args.command
    fmt = args.format

    if cmd in ("digits", "delta", "jet", "log", "exp", "psi"):
        u = _element_from_arg(_load_json_arg(args.element, stdin), params)
        if cmd == "digits":
            return ser.digits_to_obj(digits(u)), EXIT_OK
        if cmd == "delta":
            return _render_element(fermat_quotient(u), fmt), EXIT_OK
        if cmd == "jet":
            jet = delta_jet(u, args.order)
            return {"order": jet.order,
                    "entries": [_render_element(e, fmt) for e in jet]}, EXIT_OK
        if cmd == "log":
            return _render_element(padic_log(u), fmt), EXIT_OK
        if cmd == "exp":
            return _render_element(padic_exp(u), fmt), EXIT_OK
        return _render_element(psi(u), fmt), EXIT_OK

    if cmd == "solve-mult":
        beta = _element_from_arg(_load_json_arg(args.beta, stdin), params)
        family = solve_exponential(beta)
        return {
            "base": _render_element(family.base, fmt),
            "constants": [ser.element_to_obj(z) for z in family.constants],
            "certificate": ser.exponential_certificate_to_obj(family.certificate),
        }, EXIT_OK

    if cmd == "solve-diff":
        eps = _element_from_arg(_load_json_arg(args.eps, stdin), params)
        result = solve_difference(eps)
        if isinstance(result, Obstruction):
            return {"obstruction": ser.obstruction_to_obj(result)}, EXIT_UNSOLVABLE
        return {"solution": _render_element(result, fmt)}, EXIT_OK

    if cmd == "solve-matrix":
        beta = ser.matrix_from_obj(_load_json_arg(args.beta, stdin), params)
        seed = None if args.u0 is None else ser.residue_matrix_from_obj(
            _load_json_arg(args.u0, stdin), params)
        u = solve_matrix_linear(beta, seed)
        achieved = verify_matrix_linear(u, beta)
        seed_obj = [[list(e.coeffs) for e in row]
                    for row in (seed if seed is not None else u.residues())]
        return {
            "solution": ser.matrix_to_obj(u),
            "certificate": {"residual_precision": achieved, "seed": seed_obj},
        }, EXIT_OK

    if cmd == "constants":
        return {"constants": [ser.element_to_obj(z)
                              for z in enumerate_constants(params)]}, EXIT_OK

    if cmd == "relations":
        return _relations(args, params, stdin)

    if cmd == "verify":
        return _verify(args, params, stdin)

    raise DomainError(f"unknown subcommand {cmd!r}")


def _relations(args, params, stdin):
    import random

    # random units carry full precision N; given values may carry less
    bounds = {"d": args.deg, "H": args.height,
              "M": args.precision or params.N, "mode": args.mode}
    if args.random_units is not None:
        if args.values is not None or args.min_poly:
            raise DomainError("--random-units probes its own units; it takes neither "
                              "--values nor --min-poly")
        if args.seed is None:
            raise DomainError("randomized subcommands require an explicit --seed")
        if args.random_units < 1:
            raise DomainError("--random-units must be >= 1")
        rng = random.Random(args.seed)
        trials = []
        none_count = 0
        for _ in range(args.random_units):
            u = random_element(params, rng, unit=True)
            cert = find_relation(RelationQuery(
                values=(u,), deg_bound=args.deg, height_bound=args.height,
                mode=args.mode, precision=args.precision))
            trials.append({
                "value": ser.element_to_obj(u),
                "certificate": None if cert is None
                else ser.relation_certificate_to_obj(cert),
            })
            none_count += cert is None
        return {"bounds": bounds, "trials": trials,
                "none_count": none_count}, EXIT_OK
    if args.values is None:
        raise DomainError("relations needs --values or --random-units")
    values = tuple(_element_from_arg(o, params)
                   for o in ser.array(_load_json_arg(args.values, stdin), "--values"))
    bounds["M"] = args.precision or min((v.prec for v in values), default=params.N)
    if args.min_poly:
        if len(values) != 1:
            raise DomainError("--min-poly takes exactly one value")
        cert = minimal_polynomial(values[0], args.deg, args.height,
                                  mode=args.mode, precision=args.precision)
    else:
        cert = find_relation(RelationQuery(
            values=values, deg_bound=args.deg, height_bound=args.height,
            mode=args.mode, precision=args.precision))
    return {
        "bounds": bounds,
        "certificate": None if cert is None else ser.relation_certificate_to_obj(cert),
    }, EXIT_OK


def _verify(args, params, stdin):
    raw = _load_json_arg(args.items, stdin)
    items = ser.array(ser.field(raw, "items") if isinstance(raw, dict) else raw, "the items")
    results = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise DomainError(f"item {i}: expected a JSON object, not {json.dumps(item)}")
        kind = item.get("kind")
        if kind not in ("exponential", "difference", "matrix", "relation"):
            # named by its JSON text, so any kind fits on one line
            raise DomainError(f"item {i}: unknown verification kind {json.dumps(kind)}")
        try:
            if kind == "exponential":
                beta = _element_from_arg(item["beta"], params)
                u = _element_from_arg(item["u"], params)
                cert = verify_exponential(u, ExponentialProblem.from_beta(beta))
                results.append({"index": i, "kind": kind, "ok": cert.ok,
                                "certificate": ser.exponential_certificate_to_obj(cert)})
            elif kind == "difference":
                eps = _element_from_arg(item["eps"], params)
                u = _element_from_arg(item["u"], params)
                res = frobenius(u) - eps * u
                achieved = res.valuation()
                results.append({"index": i, "kind": kind, "ok": achieved == res.prec,
                                "residual_precision": achieved})
            elif kind == "matrix":
                beta = ser.matrix_from_obj(item["beta"], params)
                u = ser.matrix_from_obj(item["u"], params)
                achieved = verify_matrix_linear(u, beta)
                needed = min(u.prec, beta.prec) - 1
                results.append({"index": i, "kind": kind, "ok": achieved >= needed,
                                "residual_precision": achieved})
            else:
                cert = ser.relation_certificate_from_obj(item["certificate"])
                values = [_element_from_arg(o, params)
                          for o in ser.array(item["values"], "field 'values'")]
                k = ser.read_int(item.get("precision", cert.verified_precision),
                                 "field 'precision'")
                ok = verify_relation(cert, values, k)
                results.append({"index": i, "kind": kind, "ok": ok, "precision": k})
        except KeyError as exc:
            raise DomainError(f"item {i} ({kind}): missing field {exc}") from None
        except WittError as exc:  # same class, so the same exit code
            raise type(exc)(f"item {i} ({kind}): {exc}") from None
    return {"results": results}, EXIT_OK


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
