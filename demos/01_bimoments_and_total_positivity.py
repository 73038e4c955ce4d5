"""Bimoments of a measure pair and their total positivity.

Two discrete measures with rational data go in; the Cauchy-kernel
bimoment matrix comes out exactly, along with its leading principal
minors, a consecutive-minor positivity certificate, and the rank-one
shift identity that ties the matrix to the plain moment vectors.
"""

from cauchybop import (check_total_positivity, compute_bimoments,
                       measure_from_strings, oracle_dn,
                       rank_one_shift_residual)
from cauchybop.measure import power_sums

alpha = measure_from_strings([("1", "1"), ("2", "1")])
beta = measure_from_strings([("1", "1"), ("3", "1")])

print("alpha atoms:", [(str(a.position), str(a.weight)) for a in alpha.atoms])
print("beta  atoms:", [(str(a.position), str(a.weight)) for a in beta.atoms])

I = compute_bimoments(alpha, beta, N=4)
print("\nbimoment matrix I[i][j] = <x^i | y^j> (exact):")
for row in I.entries:
    print("  ", [str(v) for v in row])

D = I.leading_minors()
print("\nleading principal minors D_1..D_4:", [str(d) for d in D])
print("independent tuple-sum oracle, n = 1..2:",
      [str(oracle_dn(alpha, beta, n)) for n in (1, 2)])
print("(orders above the atom count vanish: D_3 =", str(D[2]) + ")")

cert = check_total_positivity(I, kmax=2)
print("\nconsecutive-minor certificate (k <= 2):",
      "pass" if cert.passed else f"violation at {cert.violation}")
print("smallest minor seen:", cert.min_minor, "at (k, row, col) =",
      cert.min_index)

res = rank_one_shift_residual(I, alpha, beta)
print("\nshift identity Lam I + I Lam^T - a b^T, max residual:",
      max(abs(v) for row in res for v in row))
a, b = (power_sums(m.positions(), m.weights(), 3) for m in (alpha, beta))
print("first moments: a =", [str(v) for v in a], " b =", [str(v) for v in b])

# a measure with a single point of increase degenerates at order 2,
# and the certificate reports it instead of faking positivity
single = measure_from_strings([("1", "1")])
I1 = compute_bimoments(single, single, N=2)
cert1 = check_total_positivity(I1, 2)
print("\nsingle-atom measure: D =",
      [str(d) for d in I1.leading_minors()],
      "| certificate:", "pass" if cert1.passed else
      f"vanishing minor at k={cert1.violation[0]}")
