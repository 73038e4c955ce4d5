"""Christoffel-Darboux identities through the 3x3 commutator block.

The partial kernel sums of both the plain and hatted families collapse to
a window product against a four-entry block.  The same block, evaluated
at s = -y, gives the plain identity; at s = x, the hatted one.  The block
is cross-checked against a dense commutator formed on the whole stored
truncation, and both identities are verified as exact rational equalities.
"""

from fractions import Fraction as F

from cauchybop import (build_apparatus, cd_residual_hat, cd_residual_plain,
                       commutator_block, measure_from_strings,
                       verify_block_against_dense)

alpha = measure_from_strings(
    [("1", "1"), ("2", "1"), ("3.5", "0.25"), ("4", "2"), ("1.25", "0.8"),
     ("6", "1")])
beta = measure_from_strings(
    [("0.5", "2"), ("1", "1"), ("3", "1"), ("4.5", "0.125"),
     ("2.25", "1.7"), ("7", "0.3")])
app = build_apparatus(alpha, beta, N=5)

n = 3
print(f"commutator block at level n={n} "
      f"(rows {n - 1}..{n + 1}, cols {n - 2}..{n}), at s = 1/2:")
for row in commutator_block(app, n, F(1, 2)):
    print("  ", [str(v) for v in row])
print("only four entries are nonzero; the middle one is linear in s.")

print("\ndense commutator on the full truncation, worst disagreement:",
      verify_block_against_dense(app, n, F(1, 2)))

print("\nresiduals of the identities at rational (x, y):")
for (x, y) in [(F(1, 2), F(2, 3)), (F(-1, 3), F(5, 7)), (F(3), F(-4, 9))]:
    print(f"  (x, y) = ({x}, {y}):",
          "plain", cd_residual_plain(app, n, x, y),
          "| hatted", cd_residual_hat(app, n, x, y))

y = F(9, 8)
print("\nat x = -y the kernel sum vanishes, so the window product must too:")
print("  residual:", cd_residual_plain(app, n, -y, y))
