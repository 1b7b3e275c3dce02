"""Difference equations phi(u) = eps u and the matrix family delta(u) = beta u^(p).

Run:  python3 demos/04_difference_and_matrix.py
"""

import random

from wittcalc import (
    Obstruction,
    ZqMatrix,
    fermat_quotient,
    frobenius,
    new_params,
    phi_norm,
    random_element,
    solve_difference,
    solve_matrix_linear,
    teichmuller,
    verify_matrix_linear,
)

P = new_params(p=3, f=2, N=10)

# phi(u) = eps u is solvable over Z_q only conditionally.  eps = 1 works
# (the solutions are the units of Z_p, the fixed ring of phi):
print("eps = 1:", solve_difference(P.one()))

# eps = zeta^(p-1) for a Teichmuller zeta works too, since phi(zeta) = zeta^p:
zeta = teichmuller(P.gen().residue())
u = solve_difference(zeta ** 2)
print("eps = zeta^2 solved:", frobenius(u) == zeta ** 2 * u)

# But a residue that is not a (p-1)-st power obstructs immediately mod p.
# The obstruction is data, not an exception, and its witness re-checks.
result = solve_difference(P.gen() + 0)
print("generator eps:", result)
assert isinstance(result, Obstruction)
print("witness re-check:", P.gen().residue() ** result.exponent == result.witness)

# Deeper failures show up as a trace condition at stage k = v_p(N(eps) - 1):
rng = random.Random(1)
for _ in range(50):
    eps = random_element(P, rng, unit=True)
    result = solve_difference(eps)
    if isinstance(result, Obstruction) and result.kind == "trace":
        print(f"trace obstruction at stage {result.stage}: "
              f"Tr({result.witness}) = {result.trace}")
        break

# The exact condition (Hilbert 90): the phi-norm of eps must be 1.
v = random_element(P, rng, unit=True)
eps = frobenius(v) * v.inv()  # norm-1 by construction
print("norm-1 eps solvable:", not isinstance(solve_difference(eps), Obstruction),
      "| phi-norm:", phi_norm(eps))

# The matrix family delta(u) = beta u^(p) behaves completely differently:
# mod p the equation is vacuous, so EVERY invertible seed lifts, uniquely.
P5 = new_params(p=5, f=1, N=10)
beta = ZqMatrix(tuple(tuple(random_element(P5, rng) for _ in range(2))
                      for _ in range(2)))
u = solve_matrix_linear(beta)  # identity seed
print("matrix solution residual precision:", verify_matrix_linear(u, beta))

# beta = 0 asks for delta(u) = 0 entry-wise: the lift of any seed is its
# entry-wise Teichmuller representative.
zero = ZqMatrix(tuple(tuple(P5.zero() for _ in range(2)) for _ in range(2)))
seed = ((P5.fq_from_int(2), P5.fq_from_int(0)),
        (P5.fq_from_int(1), P5.fq_from_int(3)))
w = solve_matrix_linear(zero, seed)
print("beta=0 entries are omega(seed):",
      all(w.entries[i][j] == teichmuller(seed[i][j]) for i in range(2) for j in range(2)))
print("delta of each entry:",
      [fermat_quotient(w.entries[i][j]).is_zero() for i in range(2) for j in range(2)])
