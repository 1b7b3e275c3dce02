"""Every function cache in wittcalc is bounded.

A process that meets many primes, degrees, precisions or moduli must keep
its memory bounded, so each ``functools.lru_cache`` in ``src/wittcalc``
needs an integer ``maxsize``.  The source is read, not the imported
modules, so a cache on a nested function or a method counts too.  The only
exceptions are listed below with their reasons.
"""

import ast
from pathlib import Path

import wittcalc
from wittcalc import conway, new_params, zq

SRC = Path(wittcalc.__file__).parent

# "module.function" -> why its cache may grow without bound
UNBOUNDED = {
    "conway.conway_polynomial": "one small tuple per field (p, f), each costly to "
                                "recompute: a cold C_{7,6} takes 16,606 vec_mul calls",
}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _maxsize(call):
    """The maxsize an ``lru_cache`` decorator gives, or the reason it is not an int."""
    if call is None:
        return 128  # bare @lru_cache
    args = call.args or [k.value for k in call.keywords if k.arg == "maxsize"]
    if not args:
        return 128
    try:
        return ast.literal_eval(args[0])
    except ValueError:
        return f"maxsize is {ast.unparse(args[0])}, not a literal"


def cache_sites():
    """{"module.function": maxsize} over every cached function of the package."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        decorators = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                kind = _name(call.func if call else dec)
                if kind in ("lru_cache", "cache"):
                    decorators.add(id(call or dec))
                    sites[f"{path.stem}.{node.name}"] = (
                        None if kind == "cache" else _maxsize(call))
        # a cache made by a call, not a decorator, is caught here
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _name(node.func) in ("lru_cache", "cache")
                    and id(node) not in decorators):
                sites[f"{path.stem}:{node.lineno}"] = "not a decorator"
    return sites


def test_every_lru_cache_is_bounded():
    sites = cache_sites()
    assert sites["zq._ring_structure"] == 256 and sites["delta._log_terms"] == 256
    unbounded = {name: size for name, size in sites.items()
                 if not (type(size) is int and size > 0)}
    assert unbounded.keys() == UNBOUNDED.keys(), unbounded
    assert conway.conway_polynomial.cache_parameters()["maxsize"] is None


def test_ring_structure_entry_holds_one_table_per_power_of_phi():
    # an entry is (modulus, the tables of phi^k for 0 < k < f), so its size
    # is max(f-1, 1) tables of f columns of f ints below p^N: f = 1 keeps its
    # one identity table, phi's is the first and phi^(-1) = phi^(f-1)'s the
    # last, the same objects the ring holds, so no table is stored twice
    zq._ring_structure.cache_clear()
    for p, f, N in ((3, 1, 5), (2, 2, 9), (5, 3, 8), (3, 4, 6), (2, 8, 30), (7, 5, 4)):
        P = new_params(p, f, N)
        poly, phis = zq._ring_structure(p, f, N, P.poly, False)
        assert poly == P.poly and phis is P._phis and len(phis) == max(f - 1, 1)
        assert P._phi_cols is phis[0] and P._phi_inv_cols is phis[max(f - 2, 0)]
        assert all(len(cols) == f and all(len(col) == f and all(0 <= x < p ** N for x in col)
                                          for col in cols) for cols in phis)
    assert new_params(3, 1, 5)._phis == (((1,),),)
    assert zq._ring_structure.cache_info().currsize == 6
