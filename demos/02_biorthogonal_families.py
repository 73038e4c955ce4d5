"""The two monic families attached to the kernel pairing.

The triangular factorization of the bimoment matrix produces monic
p_n(x), q_n(y) with <p_n|q_m> = h_n delta_nm.  Everything here is exact:
the Gram matrix is literally diagonal and the measure averages come out
strictly positive, as the theory demands.  That the bordered-determinant
formulas reproduce the coefficients bit for bit is asserted by the tests.
"""

from cauchybop import (build_family, compute_bimoments, evaluate,
                       measure_from_strings, pair)

alpha = measure_from_strings(
    [("0.5", "1"), ("1.5", "2"), ("3", "0.5"), ("4.25", "1"), ("6", "0.75")])
beta = measure_from_strings(
    [("1", "1"), ("2", "1.5"), ("3.5", "0.25"), ("5", "2"), ("8", "0.5")])

I = compute_bimoments(alpha, beta, N=6)
fam = build_family(I, N=4, alpha=alpha, beta=beta)

print("monic coefficient triangles (lowest power first):")
for n in range(3):
    print(f"  p_{n}:", [str(c) for c in fam.p_monic[n]])
for n in range(3):
    print(f"  q_{n}:", [str(c) for c in fam.q_monic[n]])

print("\nnorms h_n = D_(n+1)/D_n:", [str(h) for h in fam.h])
print("normalization constants c_n = sqrt(h_n):",
      [round(fam.c(n), 6) for n in range(5)])

print("\nGram matrix <p_i|q_j> (must be diag(h)):")
for i in range(4):
    print("  ", [str(pair(I, fam.p_monic[i], fam.q_monic[j]))
                 for j in range(4)])

print("\naverages (strictly positive):")
print("  pi  =", [str(v) for v in fam.pi_monic])
print("  eta =", [str(v) for v in fam.eta_monic])

print("\nevaluation: monic p_2 at x = 1:", evaluate(fam, "p", 2, 1),
      "| normalized p_0 (constant 1/sqrt(h_0)):",
      round(float(evaluate(fam, "p", 0, 1)) / fam.c(0), 6))
