"""Zero location: positivity, simplicity, interlacing.

Zeros of p_n are eigenvalues of the n x n truncation of X.  The report
of each degree says whether they interlace with those of the degree
below; the margin printed here is the smallest gap in that chain.  The
tests certify the zero count rigorously, by exact sign changes of the
monic polynomial at rational points straddling each float zero.
"""

from random import Random

from cauchybop import (Atom, DiscreteMeasure, build_apparatus,
                       charpoly_identity_residual, zeros_of)
from fractions import Fraction

rng = Random(42)
positions = sorted(rng.sample(range(1, 80), 12))
alpha = DiscreteMeasure(tuple(
    Atom(Fraction(p, 4), Fraction(rng.randint(1, 9), 3)) for p in positions))
positions = sorted(rng.sample(range(1, 90), 12))
beta = DiscreteMeasure(tuple(
    Atom(Fraction(p, 5), Fraction(rng.randint(1, 7), 2)) for p in positions))

app = build_apparatus(alpha, beta, N=8)

print("zeros of p_n, n = 1..8 (eigenvalues of the truncated operator):")
prev = None
for n in range(1, 9):
    rep = zeros_of(app, "p", n)
    flags = []
    if rep.all_positive:
        flags.append("positive")
    if rep.inside_hull:
        flags.append("in hull")
    if prev is not None and rep.interlaced_with_previous:
        margin = min(min(p - z, z_next - p) for z, p, z_next
                     in zip(rep.zeros, prev.zeros, rep.zeros[1:]))
        flags.append(f"interlaced (margin {margin:.3g})")
    print(f"  n={n}: " + ", ".join(f"{z:.5f}" for z in rep.zeros))
    print(f"        [{'; '.join(flags)}; min gap {rep.min_gap:.3g}]")
    prev = rep

print("\ncharacteristic-polynomial identity p_n(t) = det(t - X[n-1]),")
print("exact residuals at t = 22/7:")
for n in (1, 3, 5):
    print(f"  n={n}:", charpoly_identity_residual(app, "p", n, Fraction(22, 7)))
