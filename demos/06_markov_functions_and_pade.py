"""The two Nikishin chains, their product identity, simultaneous
approximation, extended identities and perfect duality.

The eight Markov functions of a measure pair are Stieltjes transforms of
discrete signed measures, so everything evaluates to exact rationals off
the supports.  q_n solves the simultaneous approximation problem of the
first chain; p_n(-z) solves the switched one.  The extended identities
pair auxiliary windows against the commutator block, and setting w = -z
collapses the correction matrix to the antidiagonal: perfect duality.
That the customary transcription of the hatted correction matrix fails at
exactly two entries is asserted in tests/test_nikishin.py.
"""

from fractions import Fraction as F

from cauchybop import (aux_vectors, build_apparatus, duality_check,
                       ecd_residual, measure_from_strings,
                       order_check, pade_solve, plucker_residual)

alpha = measure_from_strings(
    [("1", "1"), ("2", "1"), ("3.5", "0.25"), ("4", "2"), ("1.25", "0.8"),
     ("6", "1")])
beta = measure_from_strings(
    [("0.5", "2"), ("1", "1"), ("3", "1"), ("4.5", "0.125"),
     ("2.25", "1.7"), ("7", "0.3")])
app = build_apparatus(alpha, beta, N=5)

z = F(23, 2)
print("pointwise values at z = 23/2:")
for tag in ("W_beta", "W_alpha_star", "W_beta_alpha_star", "W_alpha_star_beta"):
    print(f"  {tag}: {app.markov[tag](z)}")
print("product identity residual:", plucker_residual(app, z))

print("\nsimultaneous approximation, degree 3:")
sol = pade_solve(app, 3, "q")
cert = order_check(sol)
for name, res in cert.checks:
    print(f"  {name}: {'ok' if res == 0 else 'FAIL'} (residual {res})")

print("\nswitched problem with the reflected partner polynomial:")
print("  orders hold:", order_check(pade_solve(app, 3, "switched")).passed)

n, w = 3, F(19, 4)
aux = aux_vectors(app, n, w, z)
print(f"\nextended identities at n={n}, (w, z) = ({w}, {z}):")
worst = max(abs(ecd_residual(app, a, b, n, w, z, aux))
            for a in range(3) for b in range(3))
print("  worst residual over the 9 windows:", worst)

print("\nperfect duality: the pairing equals the antidiagonal for every n:")
for nn in (2, 3, 4):
    row = [[duality_check(app, a, b, nn, F(17, 3)) for b in range(3)]
           for a in range(3)]
    print(f"  n={nn}: residual matrix max:",
          max(abs(v) for r in row for v in r))
