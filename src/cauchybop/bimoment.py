"""Bimoment matrices, their minors, and total-positivity certificates.

For measures da, db on the positive axis the Cauchy bimoment matrix is

    I[i][j] = integral integral  x**i y**j / (x + y)  da(x) db(y).

It is totally positive whenever both measures have enough points of
increase; by Fekete's criterion strict positivity of all minors taken
from consecutive rows and consecutive columns is sufficient (full minor
enumeration is exponential), and those are what the certificate checks.
Only this kernel is built here; another kernel's matrix, as a
:class:`BimomentMatrix`, still factors through
:func:`~cauchybop.bop.build_family`, without the theorems behind the checks.

The matrix is eliminated once, on first use (:attr:`BimomentMatrix.ldu`),
by an unpivoted LDU (a totally positive matrix needs no pivoting; Cryer,
Linear Algebra Appl. 7, 1973).  Its pivots are the norms h_n = D_{n+1}/D_n
that the families and X, Y read, so their prefix products are the
leading minors D_n.  The L, U, W tables are construction scratch: once
the family and X, Y are built, :meth:`BimomentMatrix.release_tables`
drops them from an exact matrix, which keeps only its entries and pivots.
The independent route is :func:`oracle_dn`, the tuple sum
w_X w_Y Delta(X)**2 Delta(Y)**2 / prod (x_i + y_j) with the Cauchy
determinant in closed form: it never sees the matrix and never forms I.
Exact inputs make the agreement test literal equality.

The Cauchy kernel also satisfies a rank-one shift identity: with Lam the
upper shift matrix and a, b the moment vectors of the two measures,

    Lam I + I Lam^T = a b^T

holds entrywise, exactly.  :func:`rank_one_shift_residual` returns the
left-hand side minus the right-hand side on the window where the shift is
defined.

A determinant takes one route in both lanes, :func:`bareiss_det`: a float
converts to a Fraction exactly, so :func:`det` of float entries is their
exact determinant rounded once, and this module never loads numpy.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import NamedTuple

from .errors import TheoryViolationError
from .measure import DiscreteMeasure, power_sums
from .scalars import guard_precision, is_exact, to_float


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
        mult = lcm(*[f.denominator for f in fr]) if fr else 1
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
    """Determinant of rows by :func:`bareiss_det`, rounded once in floats;
    a non-finite float entry or result raises PrecisionExhaustedError."""
    if exact:
        return bareiss_det(rows)
    for v in itertools.chain.from_iterable(rows):
        guard_precision(v)
    return to_float(bareiss_det(rows), "a determinant")


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

    @cached_property
    def ldu(self):
        """The Doolittle LDU of the whole matrix: (L, U, W, h), L and U unit
        triangular, W = D U and h its pivots h_0, h_1, ...  It stops at the
        first zero pivot, which h leaves out.  No pivoting: valid Cauchy
        input is totally positive, so every leading minor is positive and
        unpivoted elimination is the stable choice.  Run once per matrix,
        unless :meth:`release_tables` dropped the tables and they are read
        again, when the same loop gives the same tables.
        """
        n = self.order
        L = [[Fraction(0)] * n for _ in range(n)]
        U = [[Fraction(0)] * n for _ in range(n)]
        W = [[Fraction(0)] * n for _ in range(n)]
        h = []
        for k in range(n):
            acc = self[k, k] - sum(L[k][m] * W[m][m] * U[m][k] for m in range(k))
            if acc == 0:
                break
            h.append(acc)
            W[k][k] = acc
            L[k][k] = U[k][k] = 1
            for i in range(k + 1, n):
                L[i][k] = (self[i, k] - sum(L[i][m] * W[m][m] * U[m][k] for m in range(k))) / acc
            for j in range(k + 1, n):
                W[k][j] = self[k, j] - sum(L[k][m] * W[m][m] * U[m][j] for m in range(k))
                U[k][j] = W[k][j] / acc
        return L, U, W, tuple(h)

    @cached_property
    def pivots(self) -> tuple:
        """h_0, h_1, ... of :attr:`ldu`, kept when its tables are released."""
        return self.ldu[3]

    def release_tables(self) -> None:
        """Keep the pivots of :attr:`ldu` and, if exact, drop its L, U, W
        tables (a sixth of an exact apparatus), once the family and X, Y are
        built: no other exact reader needs them.  Float matrices keep them,
        since the float ladder later builds degree N + 1 from them, and so
        needs no second elimination."""
        self.pivots         # cached before the tables can go
        if self.exact:
            self.__dict__.pop("ldu", None)

    def leading_minors(self):
        """[D_1, ..., D_order] (D_0 = 1 is not stored), the prefix products
        of the pivots and 0 past a zero pivot, as D_k > 0 exactly up to the
        smaller atom count.  Negative values in exact mode can only come
        from corrupted input and raise."""
        h = self.pivots
        zero = Fraction(0) if self.exact else 0.0
        minors = (*itertools.accumulate(h, operator.mul),
                  *(zero,) * (self.order - len(h)))
        for n, d in enumerate(minors):
            if self.exact and d < 0:
                raise TheoryViolationError(
                    f"theory violation: leading minor D_{n + 1} = {d} < 0")
        return minors


def compute_bimoments(alpha: DiscreteMeasure, beta: DiscreteMeasure,
                      N: int) -> BimomentMatrix:
    """Cauchy bimoment matrix of order N as the factored sum
    I = V_a^T (K V_b), K[a][b] = 1 / (x_a + y_b), in two passes of
    :func:`~cauchybop.measure.power_sums`: for each alpha atom x_a,
    inner_a[j] = sum_b w_a w_b y_b**j / (x_a + y_b); then column j of I is
    the power sum over the alpha atoms with weights inner_a[j].  Exact
    input gives the rationals of the plain double sum over atom pairs, and
    float input has one fixed rounding order.  The work is
    O(N |alpha| |beta| + N**2 |alpha|) in both lanes.
    """
    xs, ys = alpha.positions(), beta.positions()
    ws_b = beta.weights()
    inner = [power_sums(ys, [1 / _cauchy_sum(x, y) * wa * wb
                             for y, wb in zip(ys, ws_b)], N)
             for x, wa in zip(xs, alpha.weights())]
    columns = [power_sums(xs, [row[j] for row in inner], N) for j in range(N)]
    return BimomentMatrix(N, tuple([*zip(*columns)]),
                          alpha.is_exact and beta.is_exact)


# -- total positivity ----------------------------------------------------------


class TotalPositivityCertificate(NamedTuple):
    passed: bool
    kmax: int
    min_minor: object                 # smallest minor seen
    min_index: tuple                  # (k, row_start, col_start) of that minor
    violation: tuple | None           # first (k, row_start, col_start, value) <= 0


def check_total_positivity(I: BimomentMatrix, kmax: int,
                           tol: float = 0.0) -> TotalPositivityCertificate:
    """Every minor M_k(a, b) of k consecutive rows from a and columns from
    b, k <= kmax (clipped to the order of I), by Dodgson condensation,
    M_k(a, b) M_{k-2}(a+1, b+1) = M_{k-1}(a, b) M_{k-1}(a+1, b+1) -
    M_{k-1}(a, b+1) M_{k-1}(a+1, b) from M_0 = 1, M_1 = I.  A nonpositive
    minor is reported, not raised.  Exact I demands strict positivity and
    stops at the first failure, so every divisor is certified positive.
    Float I declares a violation only below -tol, the rounding floor, and
    a divisor that underflowed gives 0.0: "no negative minor detected"."""
    N = I.order
    kmax = min(kmax, N)
    best = best_idx = None
    inner, level = [[1] * N] * N, I.entries
    for k in range(1, kmax + 1):
        n = N - k + 1
        if k > 1:
            inner, level = level, [[_condense(level, inner, a, b)
                                    for b in range(n)] for a in range(n)]
        for a, b in itertools.product(range(n), repeat=2):
            value = level[a][b]
            guard_precision(value)
            if best is None or value < best:
                best, best_idx = value, (k, a, b)
            if (not value > 0) if I.exact else (value < -tol):
                return TotalPositivityCertificate(
                    False, kmax, best, best_idx, (k, a, b, value))
    return TotalPositivityCertificate(True, kmax, best, best_idx, None)


def _condense(m, inner, a, b):
    d = inner[a + 1][b + 1]     # 0 only for a float minor that underflowed
    return (m[a][b] * m[a+1][b+1] - m[a][b+1] * m[a+1][b]) / d if d else 0.0


# -- independent oracles and identities ----------------------------------------


def oracle_dn(alpha: DiscreteMeasure, beta: DiscreteMeasure, n: int):
    """D_n of the Cauchy kernel by the symmetrized tuple sum over
    increasing n-tuples X of alpha atoms and Y of beta atoms

        D_n = sum_{X, Y}  w_X w_Y Delta(X)**2 Delta(Y)**2 / prod (x_i + y_j),

    the product running over i in X and j in Y: the sum of
    w_X w_Y Delta(X) Delta(Y) det[1/(x_i + y_j)] with the Cauchy
    determinant in closed form.  Heine's identity (Andreief 1883) sums the
    Y tuples: for each X their sum is the n x n Hankel determinant
    det[m_{k+l}] of the power sums m_r = sum_b w_b y_b**r / prod_{i in X}
    (x_i + y_b).
    So one determinant of order n is formed per X, O(C(m, n) (m n + n**3))
    work for m atoms a side, and I is never formed: the value does not
    depend on the elimination in :meth:`BimomentMatrix.leading_minors`.

    Both lanes sum the X terms in tuple order; exact input gives one exact
    Fraction.  Returns 0 when n exceeds an atom count (a repeated atom
    kills the Vandermonde).
    """
    exact = alpha.is_exact and beta.is_exact
    if n == 0:
        return Fraction(1) if exact else 1.0
    if n > len(alpha) or n > len(beta):
        return Fraction(0) if exact else 0.0
    xs, ws = alpha.positions(), alpha.weights()
    ys, vs = beta.positions(), beta.weights()
    total = 0
    for S in itertools.combinations(range(len(xs)), n):
        m = power_sums(ys, [v / prod(_cauchy_sum(xs[i], y) for i in S)
                            for y, v in zip(ys, vs)], 2 * n - 1)
        total += (vandermonde([xs[i] for i in S]) ** 2
                  * prod(ws[i] for i in S)
                  * det([m[k:k + n] for k in range(n)], exact))
    return total


def rank_one_shift_residual(I: BimomentMatrix, alpha: DiscreteMeasure,
                            beta: DiscreteMeasure):
    """(Lam I + I Lam^T - a b^T) on the (order-1) x (order-1) window.

    Identically zero for the Cauchy kernel, exactly so in exact mode.
    """
    n = I.order - 1
    a = power_sums(alpha.positions(), alpha.weights(), n)
    b = power_sums(beta.positions(), beta.weights(), n)
    return tuple([tuple([I[i + 1, j] + I[i, j + 1] - a[i] * b[j]
                         for j in range(n)]) for i in range(n)])

