"""Assembly and verification of the 3x3 boundary-value matrices.

On discrete rational input the matrices are exactly rational: unit
determinant and the diagonal power laws are literal equalities, and the
normalization constants round-trip from the series expansion.  On density
input the jump conditions across the two cuts are verified by evaluating
at w0 +- i eps with a singularity-split Cauchy transform; the residual
against the local jump factor falls linearly in eps.
"""

from fractions import Fraction as F

from cauchybop import (DensityMeasure, assemble_gamma, assemble_gamma_hat,
                       asymptotic_check, build_apparatus, extract_constants,
                       jump_slope_study, measure_from_strings)
from cauchybop.rhp import boundary_matrix

alpha = measure_from_strings(
    [("1", "1"), ("2", "1"), ("3.5", "0.25"), ("4", "2"), ("1.25", "0.8"),
     ("6", "1")])
beta = measure_from_strings(
    [("0.5", "2"), ("1", "1"), ("3", "1"), ("4.5", "0.125"),
     ("2.25", "1.7"), ("7", "0.3")])
app = build_apparatus(alpha, beta, N=5)

n, w = 3, F(23, 2)
g = assemble_gamma(app, n, w)
print(f"Gamma at n={n}, w={w} (exact entries):")
for row in g.entries:
    print("  ", [str(v) for v in row])
print("det =", g.determinant)

gh = assemble_gamma_hat(app, n, w)
print("\ndet of the partner matrix:", gh.determinant)

for which in ("gamma", "gamma_hat"):
    cert = asymptotic_check(app, n, which)
    print(f"\n{which}: diagonal powers {cert.diag_powers}, "
          f"verified by exact series: {cert.passed}")

c_sq, eta_sq = extract_constants(app, n)
print("\nconstants read off the middle-row expansions:")
print("  c^2   =", c_sq, " (family h_{n-1} =", str(app.family.h[n - 1]) + ")")
print("  eta^2 =", eta_sq)

print("\n--- density input: jump verification across the cuts ---")
rho = DensityMeasure(support=(1.0, 2.0), density=lambda x: 1.0, order=120)
appd = build_apparatus(rho, rho, N=3)

for w0, label in ((1.5, "first cut (positive axis)"),
                  (-1.5, "second cut (reflected support)")):
    residuals, slope = jump_slope_study(appd, 2, w0, [1e-4, 1e-5, 1e-6])
    print(f"\n{label}, w0 = {w0}:")
    for eps, r in zip([1e-4, 1e-5, 1e-6], residuals):
        print(f"  eps = {eps:g}: relative jump residual = {r:.3e}")
    print(f"  fitted slope: {slope:.4f} (linear decay)")

print("\ncontrol: off the cuts the two-sided difference just shrinks:")
for eps in (1e-4, 1e-5):
    gp, gm = (boundary_matrix(appd, 2, complex(3.0, s * eps)) for s in (1, -1))
    diff = max(abs(gp[i][j] - gm[i][j]) for i in range(3) for j in range(3))
    print(f"  eps = {eps:g}: {diff:.3e}")
