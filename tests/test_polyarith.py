"""Kernel layer: the straight-line ring kernels are compiled lazily, once per shape."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

from wittcalc import new_params, padic_exp, psi, random_element, solve_matrix_linear, ZqMatrix
from wittcalc import polyarith as pa
from wittcalc.zq import teichmuller_table


def _caches():
    return {name: k for name, k in vars(pa).items() if isinstance(k, pa._Kernels)}


def test_import_compiles_no_kernel():
    # a CLI process pays for its imports before any work; they build nothing
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import wittcalc.cli; from wittcalc import polyarith as pa; print(sorted("
            "(n, len(k)) for n, k in vars(pa).items() if isinstance(k, pa._Kernels)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[('_apply', 0), ('_cols', 0), ('_dot', 0), ('_lift', 0), ('_mul', 0), "
                           "('_powers', 0)]\n")


def test_a_seen_shape_compiles_nothing(monkeypatch):
    built = []
    missing = pa._Kernels.__missing__

    def counted(self, shape):
        built.append((self.source, shape))
        return missing(self, shape)

    monkeypatch.setattr(pa._Kernels, "__missing__", counted)
    for name, kernels in _caches().items():
        monkeypatch.setattr(pa, name, pa._Kernels(kernels.source))

    def work():
        P = new_params(5, 3, 12)
        rng = random.Random(4)
        u = random_element(P, rng, unit=True)
        beta = ZqMatrix(tuple(tuple(random_element(P, rng) for _ in range(2)) for _ in range(2)))
        return (psi(u), padic_exp(u.mul_p_power(1).mask(P.N)), solve_matrix_linear(beta), u * u,
                teichmuller_table(P))

    first = work()
    assert len(built) == len(set(built)) == sum(map(len, _caches().values())) > 4
    assert (pa._lift_source, (2, 3)) in built and (pa._powers_source, (3, True)) in built
    built.clear()
    assert work() == first and built == []


def test_power_table_compiles_two_shapes_per_degree(monkeypatch):
    # the walk over the powers depends on p only through its sign rule, so
    # whole tables over every p compile one kernel per (f, p odd) and no
    # more; each step of the walk is f^2 products
    monkeypatch.setattr(pa, "_powers", pa._Kernels(pa._powers_source))
    for p in (2, 3, 5, 7, 13):
        for f in (1, 2, 3):
            if p ** f <= 400:
                teichmuller_table(new_params(p, f, 10))
    assert sorted(pa._powers) == [(f, odd) for f in (1, 2, 3) for odd in (False, True)]
    for f in (1, 4, 8):
        assert len(re.findall(r"\bx\d+ \* c\d", pa._powers_source((f, True)))) == f * f


def test_lift_block_source_has_one_pass_of_products():
    # the pass is emitted once, for one column of the grid: n f^2 products
    # for G o D and n^2 f^2 for phi^(-1)(C * .), which bounds the compile
    # time and memory per shape by the size of the coupling table
    for n, f in ((1, 1), (1, 8), (2, 3), (3, 1), (3, 3), (6, 2)):
        products = re.findall(r"\b[xh]\d+_\d+ \* [gt]\d", pa._lift_source((n, f)))
        assert len(products) == n * f * f * (n + 1)
