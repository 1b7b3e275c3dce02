"""Canonical JSON object forms for every value the CLI reads or writes.

Elements travel as {p, f, prec, poly, coeffs} with coefficients as decimal
strings (the canonical representatives in [0, p^prec)), so fixtures do not
depend on any integer-width convention.  Digit expansions, matrices,
solution families, certificates and obstructions reuse that element form.
These layouts are the package's stable wire format; see the README for the
full schema.
"""

from __future__ import annotations

import json
import re

from .errors import DomainError, ParamsMismatch
from .relations import RelationCertificate
from .solvers import ZqMatrix
from .zq import PadicParams


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def read_int(value, what):
    """An integer from a JSON int or a decimal string; bool, float and anything
    else are refused, so 1.5 is not read as 1 nor true as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise DomainError(f"{what} must be an integer or a decimal string, not {json.dumps(value)}")


def field(obj, key):
    """obj[key], naming the field when it is missing or obj is no JSON object."""
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object with field {key!r}, not {json.dumps(obj)}")
    if key not in obj:
        raise DomainError(f"missing field {key!r}")
    return obj[key]


def array(obj, what):
    """obj when it is a JSON array; anything else is refused, naming ``what``."""
    if not isinstance(obj, list):
        raise DomainError(f"{what} must be a JSON array, not {json.dumps(obj)}")
    return obj


def _int_field(obj, key):
    return read_int(field(obj, key), f"field {key!r}")


def coeffs_from_obj(cs):
    """A list of coefficients, each read by ``read_int``."""
    return [read_int(c, "a coefficient") for c in array(cs, "coefficients")]


def _exponents(e):
    return tuple(read_int(x, "an exponent") for x in array(e, "an exponent vector"))


def _check_ring(obj, params, what):
    """Refuse an object whose p, f or poly, where it gives them, are not the ring's."""
    p = _int_field(obj, "p") if "p" in obj else params.p
    f = _int_field(obj, "f") if "f" in obj else params.f
    if (p, f) != (params.p, params.f):
        raise ParamsMismatch(
            f"{what} is over (p={p}, f={f}), ring is (p={params.p}, f={params.f})")
    if "poly" in obj and tuple(coeffs_from_obj(obj["poly"])) != params.poly:
        raise ParamsMismatch(f"{what} was serialized over a different modulus")


def element_to_obj(u):
    return {
        "p": u.params.p,
        "f": u.params.f,
        "prec": u.prec,
        "poly": list(u.params.poly),
        "coeffs": [str(c) for c in u.coeffs],
    }


def element_from_obj(obj, params=None):
    """Rebuild an element; with ``params`` given, the object must match it."""
    p, f, prec = _int_field(obj, "p"), _int_field(obj, "f"), _int_field(obj, "prec")
    if params is None:
        poly = coeffs_from_obj(obj["poly"]) if "poly" in obj else None
        params = PadicParams(p, f, max(prec, 2), poly)
    else:
        _check_ring(obj, params, "element")
        if prec > params.N:
            raise DomainError(f"element precision {prec} exceeds the ring's {params.N}")
    return params.from_coeffs(coeffs_from_obj(field(obj, "coeffs")), prec)


def digits_to_obj(d):
    return {
        "p": d.params.p,
        "f": d.params.f,
        "prec": d.prec,
        "digits": [list(c.coeffs) for c in d.digits],
    }


def matrix_to_obj(m):
    return {
        "p": m.params.p,
        "f": m.params.f,
        "poly": list(m.params.poly),
        "n": m.n,
        "prec": m.prec,
        "entries": [[[str(c) for c in e.coeffs] for e in row] for row in m.entries],
    }


def _rows(obj, what):
    """The rows of a grid given bare or as the ``entries`` of an object, each an array."""
    grid = array(field(obj, "entries") if isinstance(obj, dict) else obj, what)
    return [array(row, f"a row of {what}") for row in grid]


def matrix_from_obj(obj, params):
    """Rebuild a matrix from a bare grid or an object; an object's p, f and
    poly, where given, must be the ring's."""
    prec = None
    if isinstance(obj, dict):
        _check_ring(obj, params, "matrix")
        prec = _int_field(obj, "prec") if "prec" in obj else None
    return ZqMatrix(tuple(
        tuple(params.from_coeffs(coeffs_from_obj(e), prec) for e in row)
        for row in _rows(obj, "matrix entries")))


def residue_matrix_from_obj(obj, params):
    """A grid of residues mod p, such as a seed; an entry is an integer or f of them."""
    return tuple(
        tuple(params.fq(coeffs_from_obj(e) if isinstance(e, list)
                        else [read_int(e, "a residue entry")]) for e in row)
        for row in _rows(obj, "residue entries"))


def exponential_certificate_to_obj(cert):
    return {
        "ok": cert.ok,
        "constants_count": cert.constants_count,
        "residual_precisions": {
            "frobenius_form": {"achieved": cert.phi_form[0], "available": cert.phi_form[1]},
            "delta_form": {"achieved": cert.delta_form[0], "available": cert.delta_form[1]},
            "psi_form": {"achieved": cert.psi_form[0], "available": cert.psi_form[1]},
            "teichmuller_ratio": {"achieved": cert.ratio[0], "available": cert.ratio[1]},
        },
    }


def obstruction_to_obj(o):
    out = {
        "stage": o.stage,
        "kind": o.kind,
        "witness": list(o.witness.coeffs),
    }
    if o.kind == "power-residue":
        out["exponent"] = o.exponent
    if o.kind == "trace":
        out["trace"] = o.trace
        out["partial"] = element_to_obj(o.partial)
    return out


def relation_certificate_to_obj(cert):
    return {
        "monomials": [list(e) for e in cert.monomials],
        "coeffs": list(cert.coeffs),
        "verified_precision": cert.verified_precision,
        "bounds": {
            "d": cert.deg_bound,
            "H": cert.height_bound,
            "M": cert.precision_bound,
        },
        "mode": cert.mode,
        "status": cert.status,
    }


def relation_certificate_from_obj(obj):
    bounds = field(obj, "bounds")
    return RelationCertificate(
        monomials=tuple(map(_exponents, array(field(obj, "monomials"), "field 'monomials'"))),
        coeffs=tuple(coeffs_from_obj(field(obj, "coeffs"))),
        verified_precision=_int_field(obj, "verified_precision"),
        deg_bound=_int_field(bounds, "d"),
        height_bound=_int_field(bounds, "H"),
        precision_bound=_int_field(bounds, "M"),
        mode=field(obj, "mode"),
        status=obj.get("status", "proven-congruence"))
