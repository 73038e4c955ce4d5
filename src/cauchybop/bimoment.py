"""Bimoment matrices, their minors, and total-positivity certificates.

For measures da, db on the positive axis the Cauchy bimoment matrix is

    I[i][j] = integral integral  x**i y**j / (x + y)  da(x) db(y).

It is totally positive whenever both measures have enough points of
increase; by Fekete's criterion strict positivity of all minors taken
from consecutive rows and consecutive columns is sufficient, which is what
the certificate checks.  The certificate is restricted to
consecutive-index minors precisely for that reason; full minor
enumeration is exponential.  Only this kernel is built here; another
kernel's matrix, as a :class:`BimomentMatrix`, still factors through
:func:`~cauchybop.bop.build_family`, without the theorems behind the checks.

Two independent routes compute the leading principal minors D_n:

* fraction-free (Bareiss) elimination on the matrix itself, and
* :func:`oracle_dn`, the symmetrized sum over n-tuples of atoms
  w_X w_Y Delta(X)**2 Delta(Y)**2 / prod (x_i + y_j), with the Cauchy
  determinant in closed form -- a combinatorial formula that never sees
  the matrix and never eliminates.

Exact inputs make the agreement test literal equality.

The Cauchy kernel also satisfies a rank-one shift identity: with Lam the
upper shift matrix and a, b the moment vectors of the two measures,

    Lam I + I Lam^T = a b^T

holds entrywise, exactly.  :func:`rank_one_shift_residual` returns the
left-hand side minus the right-hand side on the window where the shift is
defined.

numpy is imported only by the float branch of :func:`det`, so exact input
never loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import TheoryViolationError
from .measure import DiscreteMeasure, moment
from .scalars import guard_precision, is_exact


def _cauchy_sum(x, y):
    """x + y, a Fraction for exact input (int atoms included); positive,
    since atoms sit on the positive axis."""
    return Fraction(x + y) if is_exact(x) and is_exact(y) else x + y


# -- exact linear algebra helpers ---------------------------------------------


def bareiss_det(rows):
    """Determinant by fraction-free elimination.

    Rational entries are cleared to integers row by row, the integer
    Bareiss recursion runs with exact divisions, and the row scalings are
    divided back out at the end.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fr)) if fr else 1
        scale *= mult
        m.append([int(f * mult) for f in fr])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
            guard_precision(max(m[i][k + 1:], key=abs, default=0))
        prev = m[k][k]
    return Fraction(sign * m[-1][-1], 1) / scale


def det(rows, exact: bool):
    if exact:
        return bareiss_det(rows)
    import numpy as np
    return float(np.linalg.det(np.array(rows, dtype=float)))


def minor(entries, row_idx, col_idx, exact: bool):
    sub = [[entries[i][j] for j in col_idx] for i in row_idx]
    return det(sub, exact)


def vandermonde(xs):
    prod = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            prod *= xs[j] - xs[i]
    return prod


# -- the bimoment matrix -------------------------------------------------------


@dataclass(frozen=True)
class BimomentMatrix:
    order: int
    entries: tuple            # order x order grid, row-major
    exact: bool

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def leading_minors(self):
        """[D_1, ..., D_order] by fraction-free elimination (D_0 = 1 by
        convention and is not stored).  Negative values in exact mode can
        only come from corrupted input and raise."""
        minors = tuple(
            det([row[: n + 1] for row in self.entries[: n + 1]], self.exact)
            for n in range(self.order))
        for n, d in enumerate(minors):
            if self.exact and d < 0:
                raise TheoryViolationError(
                    f"theory violation: leading minor D_{n + 1} = {d} < 0")
        return minors

    def shifted(self, di: int, dj: int) -> "BimomentMatrix":
        """The matrix with entries I[di+i][dj+j]: bimoments of the measures
        multiplied by x**di and y**dj."""
        n = self.order - max(di, dj)
        sub = tuple(tuple(self.entries[di + i][dj + j] for j in range(n))
                    for i in range(n))
        return BimomentMatrix(n, sub, self.exact)


def compute_bimoments(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                      N: int) -> BimomentMatrix:
    """Cauchy bimoment matrix of order N as the factored sum
    I = V_a^T (K V_b), K[a][b] = 1 / (x_a + y_b).

    For each alpha atom x_a, in atom order, the weighted kernel row
    w_a w_b / (x_a + y_b) is contracted with the beta powers,
    inner_a[j] = sum_b w_a w_b y_b**j / (x_a + y_b); then
    I[i][j] = sum_a x_a**i inner_a[j].  Every sum runs in atom order, so
    exact input gives the same rationals as the plain double sum over atom
    pairs and float input has one fixed rounding order.  The work is
    O(N |alpha| |beta| + N**2 |alpha|) in both lanes.
    """
    xs = alpha.positions()
    ys = beta.positions()
    ws_b = beta.weights()
    exact = alpha.is_exact and beta.is_exact
    ypow = [[y ** j for j in range(N)] for y in ys]
    inner = []
    for x, wa in zip(xs, alpha.weights()):
        row = [0] * N
        for y, wb, yp in zip(ys, ws_b, ypow):
            kw = 1 / _cauchy_sum(x, y) * wa * wb
            for j in range(N):
                row[j] += kw * yp[j]
        inner.append(([x ** i for i in range(N)], row))
    entries = []
    for i in range(N):
        acc = [0] * N
        for xp, row in inner:
            for j in range(N):
                acc[j] += xp[i] * row[j]
        for v in acc:
            guard_precision(v)
        entries.append(tuple(acc))
    return BimomentMatrix(N, tuple(entries), exact)


# -- total positivity ----------------------------------------------------------


@dataclass(frozen=True)
class TotalPositivityCertificate:
    passed: bool
    kmax: int
    min_minor: object                 # smallest minor seen
    min_index: tuple                  # (k, row_start, col_start) of that minor
    violation: tuple | None           # first (k, row_start, col_start, value) <= 0


def check_total_positivity(I: BimomentMatrix, kmax: int,
                           tol: float = 0.0) -> TotalPositivityCertificate:
    """Evaluate every minor of k consecutive rows and k consecutive columns
    for k <= kmax (clipped to the order of I).  A nonpositive minor is a
    reported outcome, not an error: degenerate measures legitimately
    produce vanishing minors.

    Exact mode (tol = 0) demands strict positivity.  With tol > 0 (float
    data, where a high-order minor may vanish below the rounding floor) a
    violation is only declared below -tol; the certificate then asserts
    "no negative minor detected", which is the most doubles can promise."""
    N = I.order
    kmax = min(kmax, N)
    best = None
    best_idx = None
    for k in range(1, kmax + 1):
        for a in range(N - k + 1):
            rows = range(a, a + k)
            for b in range(N - k + 1):
                value = minor(I.entries, rows, range(b, b + k), I.exact)
                if best is None or value < best:
                    best, best_idx = value, (k, a, b)
                bad = (not value > 0) if tol == 0.0 else (value < -tol)
                if bad:
                    return TotalPositivityCertificate(
                        False, kmax, best, best_idx, (k, a, b, value))
    return TotalPositivityCertificate(True, kmax, best, best_idx, None)


# -- independent oracles and identities ----------------------------------------


def oracle_dn(alpha: DiscreteMeasure, beta: DiscreteMeasure, n: int):
    """D_n of the Cauchy kernel by the symmetrized tuple sum over
    increasing n-tuples X of alpha atoms and Y of beta atoms

        D_n = sum_{X, Y}  w_X w_Y Delta(X)**2 Delta(Y)**2 / prod (x_i + y_j),

    the product running over i in X and j in Y.  This is the sum of
    w_X w_Y Delta(X) Delta(Y) det[1/(x_i + y_j)] with the Cauchy
    determinant in closed form.  No determinant is formed, so the value is
    independent of the elimination path in
    :meth:`BimomentMatrix.leading_minors`.

    Both lanes sum the terms in tuple order; exact input gives one exact
    Fraction.  Returns 0 when n exceeds an atom count (a repeated atom
    kills the Vandermonde).
    """
    exact = alpha.is_exact and beta.is_exact
    if n == 0:
        return Fraction(1) if exact else 1.0
    if n > len(alpha) or n > len(beta):
        return Fraction(0) if exact else 0.0
    xs, ys = alpha.positions(), beta.positions()
    sums = [[_cauchy_sum(x, y) for y in ys] for x in xs]

    def tuple_factors(pts, ws):
        # (T, w_T Delta(T)**2) for every increasing n-tuple T of indices
        return [(T, vandermonde([pts[i] for i in T]) ** 2
                 * prod(ws[i] for i in T))
                for T in itertools.combinations(range(len(pts)), n)]

    ys_tuples = tuple_factors(ys, beta.weights())
    total = 0
    for rows, a in tuple_factors(xs, alpha.weights()):
        # column products prod_{i in X} (x_i + y_b) for every beta atom b
        col = [prod(sums[i][b] for i in rows) for b in range(len(ys))]
        for cols, b in ys_tuples:
            total += a * b / prod(col[j] for j in cols)
    return total


def rank_one_shift_residual(I: BimomentMatrix, alpha: DiscreteMeasure,
                            beta: DiscreteMeasure):
    """(Lam I + I Lam^T - a b^T) on the (order-1) x (order-1) window.

    Identically zero for the Cauchy kernel, exactly so in exact mode.
    """
    n = I.order - 1
    a = [moment(alpha, j) for j in range(n)]
    b = [moment(beta, j) for j in range(n)]
    return tuple(tuple(I[i + 1, j] + I[i, j + 1] - a[i] * b[j]
                       for j in range(n)) for i in range(n))

