"""Biorthogonal polynomial families.

Given the bimoment matrix I of a kernel pairing <a|b>, the monic families
p_n(x), q_n(y) are fixed by

    <p_n | q_m> = h_n delta_{nm},     h_n = D_{n+1} / D_n > 0,

and are read here from the one triangular (LDU) factorization of I,
:attr:`~cauchybop.bimoment.BimomentMatrix.ldu`: with I = L diag(h) U for
unit triangular L, U, the coefficient triangles are S_p = L^{-1} and
S_q = U^{-T}, so p = S_p [x] and q = S_q [y] in the monomial basis, and
the pivots are the norms.  The factorization runs once per matrix; its
L, U tables are scratch that an exact apparatus drops once its family
and X, Y are built, keeping only the pivots.  In exact mode every
statement below is literal rational equality.  The factorization is the
one construction; the tests hold the independent one (cofactor expansion
of the bordered determinants) and assert coefficient-by-coefficient
agreement.

The exact pipeline works exclusively with monic data (and the rescaled
family q_n / h_n, which pairs with monic p_n to a biorthoNORMAL system
without any square roots).  The constants c_n = sqrt(h_n) exist only in
the float layer: a normalized value is ``evaluate(...) / family.c(n)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bimoment import BimomentMatrix
from .errors import (DegenerateMatrixError, PrecisionExhaustedError,
                     TheoryViolationError)
from .measure import DiscreteMeasure, power_sums
from .polys import peval, pscale
from .scalars import scalar_sqrt


def pair(I: BimomentMatrix, a_coeffs, b_coeffs):
    """<a|b> for polynomials a(x), b(y) given by coefficient lists."""
    total = 0
    for i, ca in enumerate(a_coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b_coeffs):
            if cb == 0:
                continue
            total += ca * cb * I[i, j]
    return total


def _invert_unit_lower(L, size):
    inv = [[0] * size for _ in range(size)]
    for i in range(size):
        inv[i][i] = 1
        for j in range(i - 1, -1, -1):
            inv[i][j] = -sum(L[i][m] * inv[m][j] for m in range(j, i))
    return inv


class PolynomialFamily(NamedTuple):
    """Coefficient triangles and norm data for degrees 0..N.

    p_monic[n], q_monic[n] hold the monic coefficients (lowest power
    first); h[n] = D_{n+1}/D_n are the exact norms; pi_monic / eta_monic
    are the measure averages of the monic polynomials once attached.
    """
    N: int
    p_monic: tuple
    q_monic: tuple
    h: tuple
    exact: bool
    pi_monic: tuple | None = None
    eta_monic: tuple | None = None

    # -- rescaled / normalized views ------------------------------------------

    def q_star(self, n: int):
        """Coefficients of q_n / h_n: the partner making (p_monic, q_star)
        a biorthonormal pair with purely rational data."""
        return pscale(self.q_monic[n], 1 / self.h[n])

    def eta_star(self, n: int):
        return self.eta_monic[n] / self.h[n]

    def c(self, n: int) -> float:
        """Normalization constant c_n = sqrt(h_n) (float layer)."""
        return scalar_sqrt(self.h[n])


def build_family(I: BimomentMatrix, N: int,
                 alpha: DiscreteMeasure | None = None,
                 beta: DiscreteMeasure | None = None) -> PolynomialFamily:
    """Monic biorthogonal families of degrees 0..N from the bimoment matrix.

    Requires I of order at least N+1, whose factorization reaches pivot
    h_N; a zero pivot before it raises the degenerate-matrix error at its
    order.  If measures are supplied the average vectors are attached (see
    :func:`averages`).
    """
    size = N + 1
    if I.order < size:
        raise ValueError(f"bimoment order {I.order} too small for degree {N}")
    L, U, _, h = I.ldu
    if len(h) < size:
        raise DegenerateMatrixError(len(h) + 1)
    sp = _invert_unit_lower(L, size)
    # S_q^T = U^{-1}: invert the unit lower triangle U^T.
    sq = _invert_unit_lower(list(zip(*U)), size)
    family = PolynomialFamily(
        N=N,
        p_monic=tuple([tuple(sp[n][: n + 1]) for n in range(size)]),
        q_monic=tuple([tuple(sq[n][: n + 1]) for n in range(size)]),
        h=h[:size],
        exact=I.exact,
    )
    if alpha is not None and beta is not None:
        # not _replace: it builds the record from a map, at 10 slots first
        family = PolynomialFamily(*family[:5], *averages(family, alpha, beta))
    return family


def averages(family: PolynomialFamily, alpha: DiscreteMeasure,
             beta: DiscreteMeasure):
    """Monic averages pi_n = int p_n da, eta_n = int q_n db.

    Strict positivity is a theorem for valid input; in exact mode a
    nonpositive average is raised as a theory violation.  In float mode a
    negative average past the degree cap is rounding noise that the cap
    keeps out of every check, but a zero or non-finite one cannot be
    divided by, and is refused as exhausted precision.
    """
    a_moms = power_sums(alpha.positions(), alpha.weights(), family.N + 1)
    b_moms = power_sums(beta.positions(), beta.weights(), family.N + 1)
    pi = tuple([sum(c * a_moms[j] for j, c in enumerate(family.p_monic[n]))
                for n in range(family.N + 1)])
    eta = tuple([sum(c * b_moms[j] for j, c in enumerate(family.q_monic[n]))
                 for n in range(family.N + 1)])
    for n, (p, e) in enumerate(zip(pi, eta)):
        if family.exact and not (p > 0 and e > 0):
            raise TheoryViolationError(
                f"theory violation: nonpositive average at degree {n}: "
                f"pi={p}, eta={e}")
        if not family.exact and not all(math.isfinite(v) and v != 0
                                        for v in (p, e)):
            raise PrecisionExhaustedError(
                f"precision exhausted: float average at degree {n} is zero "
                f"or not finite: pi={p!r}, eta={e!r}")
    return pi, eta


def evaluate(family: PolynomialFamily, which: str, n: int, point):
    """Horner evaluation of the monic p_n or q_n at a point; exact for
    exact coefficients and point."""
    coeffs = {"p": family.p_monic, "q": family.q_monic}[which][n]
    return peval(coeffs, point)
