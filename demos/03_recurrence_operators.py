"""Multiplication operators, banded factors, and the four-term recurrence.

The operators X, Y are lower Hessenberg; together they satisfy the
rank-one relation X + Y^T = pi eta^T, which forces the banded
factorizations A = L X in M[-1,2] and Ahat = X Lhat in M[-2,1] and hence
four-term recurrences for both families.  All of it is checked here as
exact rational identities, then the operator is certified oscillatory.
"""

from fractions import Fraction

from cauchybop import (build_apparatus, four_term_residual,
                       measure_from_strings, rank_one_XY_residual,
                       tn_oscillatory_certificate)

alpha = measure_from_strings(
    [("1", "1"), ("2", "1"), ("3.5", "0.25"), ("4", "2"), ("1.25", "0.8"),
     ("6", "1")])
beta = measure_from_strings(
    [("0.5", "2"), ("1", "1"), ("3", "1"), ("4.5", "0.125"),
     ("2.25", "1.7"), ("7", "0.3")])

app = build_apparatus(alpha, beta, N=5)

print("X (rescaled frame, unit supradiagonal), top 4x4 block:")
for row in app.X.entries[:4]:
    print("  ", [str(v) for v in row[:4]])

res = rank_one_XY_residual(app.X, app.Y, app.family)
print("\nrank-one residual X + Y^T - pi eta^T, max entry:",
      max(abs(v) for row in res for v in row))

print("\nband supports, checked exactly on the uncorrupted windows:")
for name, op in (("A", app.A), ("Ahat", app.Ahat), ("B", app.B),
                 ("Bhat", app.Bhat)):
    print(f"  {name}: support {op.support}, violations:",
          op.band_violations())

print("\nfour-term recurrence residuals at rational points:")
for n in (1, 2, 3, 4):
    rp, rq = four_term_residual(app.family, app.A, app.Bhat, n, Fraction(7, 3))
    print(f"  n={n}: p-side {rp}, q-side {rq}")

print("\nhatted family facts: qhat has degree n+1, zero beta-average, and")
print("pairs biorthonormally with phat (asserted exactly by the tests).")
print("qhat_1 coefficients:", [str(c) for c in app.hatted.q_hat[1]])
print("phat_1 coefficients:", [str(c) for c in app.hatted.p_hat[1]])

cert = tn_oscillatory_certificate(app.X)
print("\noscillation certificate for X, by Neville elimination:")
print(f"  totally nonnegative ({cert.kmax}x{cert.kmax}, every minor):",
      cert.tn_passed)
print("  smallest diagonal pivot:", cert.min_minor)
print("  invertible truncation:", cert.invertible)
print("  strictly positive sub/supradiagonals:",
      cert.subdiagonal_positive, cert.supradiagonal_positive)
print("  => oscillatory:", cert.oscillatory)
