"""Multiplication operators, banded factors, and the hatted families.

Everything here lives in the rescaled biorthonormal frame: p_n monic and
q*_n = q_n / h_n, so that <p_i | q*_j> = delta_ij with purely rational
data.  That frame is a positive diagonal conjugation of the normalized
(sqrt-h) one, so band supports, minor signs, vanishing residuals and
eigenvalues are all unchanged, while every identity below can be asserted
as exact equality of rationals.

The operators:

    X[i][j] = <x p_i | q*_j>            (lower Hessenberg, unit supradiagonal)
    Y[i][j] = <p_j | y q*_i>            (so y q* = Y q* on truncations)
    X + Y^T = pi eta*^T                 (rank-one shift, exact)

expanded from the family's pairing tables <x^i | q*_k> and <p_k | y^j>
(the LDU factors of the bimoments): X from the x side, Y from the y side.

    L    = (Lam - Id) D_pi^{-1}                (support [0, 1])
    Lhat = D_eta*^{-1} (Lam^T - Id)            (support [-1, 0])
    A    = L X    in M_[-1, 2]
    Ahat = X Lhat in M_[-2, 1]
    B    = -A^T,  Bhat = -Ahat^T

Semi-infinite relations hold only on the window where no truncation
artifact enters: a product that reaches d entries past the stored block
is simply not formed there.

The builders construct and do not re-prove: shapes, band supports and
the defining properties below are theorems, asserted by the tests and
the verify suites.  The tests keep the independent routes as oracles:
the pairings for X and Y, the bordered determinants for the hatted
families, and all minors against the Neville test of total nonnegativity.

The hatted families are

    phat = Lhat^{-1} p         (phat_n = -(eta*_0 p_0 + ... + eta*_n p_n))
    qhat^T = q*^T Lhat         (qhat_n = q_{n+1}/eta_{n+1} - q_n/eta_n,
                                written with monic data; frame-invariant)

characterized by: deg qhat_n = n+1, deg phat_n = n, the beta-average of
qhat_n vanishes, the pair is biorthonormal, and the leading coefficient of
qhat_n is the reciprocal of the monic eta-average of degree n+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bimoment import BimomentMatrix
from .bop import PolynomialFamily
from .errors import OrderUnderflowError
from .polys import peval, pscale, psub
from .scalars import residual, scalar_sqrt


@dataclass(frozen=True)
class BandOperator:
    """Finite truncation of a semi-infinite matrix with declared band support.

    ``support=(a, b)`` asserts entries vanish unless a <= j - i <= b;
    ``valid_rows`` / ``valid_cols`` bound the window on which the entries
    are those of the semi-infinite operator (products with the shift eat
    one row or column off the stored block).
    """
    entries: tuple
    support: tuple[int, int]
    valid_rows: int
    valid_cols: int

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def band_violations(self):
        """Nonzero entries off the declared support on the valid window."""
        a, b = self.support
        return [(i, j, self.entries[i][j]) for i in range(self.valid_rows)
                for j in range(self.valid_cols)
                if not a <= j - i <= b and self.entries[i][j] != 0]

    def normalized_float(self, h):
        """Entries conjugated back to the normalized (sqrt-h) basis."""
        s = [scalar_sqrt(x) for x in h]
        return tuple(
            tuple(float(self.entries[i][j]) * s[j] / s[i]
                  for j in range(self.valid_cols))
            for i in range(self.valid_rows))


def build_XY(family: PolynomialFamily, I: BimomentMatrix):
    """Truncations X[N], Y[N] of the multiplication operators from the
    family's tables: X[n][k] = sum_{i >= k-1} p_n[i] <x^{i+1} | q*_k>, and
    Y[j][k] the same with q*_j and <p_k | y^{i+1}>.

    The shift bumps an index, so I and the tables must reach order N+2; I
    is read for that only.  Hessenberg shape and the unit supradiagonal of
    X are theorems, asserted by the tests against the pairing route.
    """
    N = family.N
    order = min(I.order, len(family.x_table))
    if order < N + 2:
        raise OrderUnderflowError(
            f"bimoment order {order} < {N + 2} needed for the shift")
    size = N + 1
    zero = Fraction(0) if family.exact else 0.0

    def expand(coeffs, table):
        return tuple(tuple(sum((c[i] * table[i + 1][k]
                                for i in range(max(k - 1, 0), len(c))), zero)
                           for k in range(size)) for c in coeffs)
    X = expand(family.p_monic, family.x_table)
    Y = expand([family.q_star(j) for j in range(size)], family.y_table)
    return (BandOperator(X, (-(size - 1), 1), size, size),
            BandOperator(Y, (-(size - 1), 1), size, size))


def rank_one_XY_residual(X: BandOperator, Y: BandOperator,
                         family: PolynomialFamily):
    """X + Y^T - pi eta*^T on the full stored window (the identity survives
    every principal truncation, so no rows need discarding)."""
    size = X.valid_rows
    pi = family.pi_monic
    return tuple(tuple(X[i, j] + Y[j, i] - pi[i] * family.eta_star(j)
                       for j in range(size)) for i in range(size))


def build_L_Lhat(family: PolynomialFamily):
    """The bidiagonal factors, transcribed literally from their definitions.

    L row i carries -1/pi_i at (i, i) and +1/pi_{i+1} at (i, i+1); Lhat row
    i carries +1/eta*_i at (i, i-1) and -1/eta*_i at (i, i).  This placement
    is the one under which L pi = 0 and eta*^T Lhat = 0, hence with the
    rank-one identity L X + L Y^T = 0 and X Lhat + Y^T Lhat = 0 (asserted
    by the tests), which pins the convention.
    """
    size = family.N + 1
    zero = Fraction(0) if family.exact else 0.0
    L = [[zero] * size for _ in range(size)]
    Lh = [[zero] * size for _ in range(size)]
    for i in range(size):
        L[i][i] = -1 / family.pi_monic[i]
        if i + 1 < size:
            L[i][i + 1] = 1 / family.pi_monic[i + 1]
        Lh[i][i] = -1 / family.eta_star(i)
        if i - 1 >= 0:
            Lh[i][i - 1] = 1 / family.eta_star(i)
    return (BandOperator(tuple(map(tuple, L)), (0, 1), size - 1, size),
            BandOperator(tuple(map(tuple, Lh)), (-1, 0), size, size))


def build_A_Ahat(X: BandOperator, L: BandOperator, Lhat: BandOperator):
    """A = L X, Ahat = X Lhat, B = -A^T, Bhat = -Ahat^T on the window the
    truncation leaves uncorrupted; L and Lhat are bidiagonal, so each entry
    sums two terms.  Band supports are checked by the recurrence suite and
    the tests.
    """
    size = X.valid_rows
    cut = size - 1     # L X needs row i+1 of X, X Lhat its column j+1
    Lb, Xe, Lh = L.entries, X.entries, Lhat.entries
    A = tuple(tuple(sum(Lb[i][k] * Xe[k][j] for k in (i, i + 1))
                    for j in range(size)) for i in range(cut))
    Ahat = tuple(tuple(sum(Xe[i][k] * Lh[k][j] for k in (j, j + 1))
                       for j in range(cut)) for i in range(size))
    B = tuple(tuple(-A[j][i] for j in range(cut)) for i in range(size))
    Bhat = tuple(tuple(-Ahat[j][i] for j in range(size)) for i in range(cut))
    return (BandOperator(A, (-1, 2), cut, size),
            BandOperator(Ahat, (-2, 1), size, cut),
            BandOperator(B, (-2, 1), size, cut),
            BandOperator(Bhat, (-1, 2), cut, size))


def four_term_residual(family: PolynomialFamily, A: BandOperator,
                       Bhat: BandOperator, n: int, point):
    """Relative residuals of the four-term recurrences at a point, 1 <= n.

    p-side:  x (p_n/pi_n - p_{n-1}/pi_{n-1})
               = A[n-1][n-2..n+1] . (p_{n-2}, ..., p_{n+1})
    q-side:  the same with Bhat and q*/eta* (equal to monic q/eta ratios).
    p_{-1} = q_{-1} = 0 by convention.
    """
    if not 1 <= n <= family.N - 1:
        raise OrderUnderflowError(f"four-term window needs 1 <= n <= {family.N - 1}")
    pv = [peval(family.p_monic[k], point) for k in range(family.N + 1)]
    qv = [peval(family.q_star(k), point) for k in range(family.N + 1)]
    lhs_p = point * (pv[n] / family.pi_monic[n]
                     - pv[n - 1] / family.pi_monic[n - 1])
    rhs_p = sum(A[n - 1, k] * pv[k] for k in range(max(0, n - 2), n + 2))
    lhs_q = point * (qv[n] / family.eta_star(n)
                     - qv[n - 1] / family.eta_star(n - 1))
    rhs_q = sum(Bhat[n - 1, k] * qv[k] for k in range(max(0, n - 2), n + 2))
    return residual(lhs_p, rhs_p), residual(lhs_q, rhs_q)


# -- hatted families -----------------------------------------------------------


@dataclass(frozen=True)
class HattedFamily:
    """Coefficient triangles for phat_n (degree n) and qhat_n (degree n+1)."""
    N: int                      # phat degrees 0..N, qhat degrees 0..N-1
    p_hat: tuple
    q_hat: tuple
    exact: bool


def build_hatted(family: PolynomialFamily) -> HattedFamily:
    """phat = Lhat^{-1} p by forward substitution, qhat^T = q*^T Lhat.

    The defining properties (degrees, leading coefficient, zero
    beta-average of qhat, biorthonormality <phat_n | qhat_m> = delta) are
    theorems, asserted by the tests, where the bordered determinants of
    the bimoments with the beta-moment row are the independent route.
    """
    N = family.N
    p_hat = []
    acc = ()
    for n in range(N + 1):
        acc = psub(acc, pscale(family.p_monic[n], family.eta_star(n)))
        p_hat.append(acc)
    q_hat = tuple(
        psub(pscale(family.q_monic[n + 1], 1 / family.eta_monic[n + 1]),
             pscale(family.q_monic[n], 1 / family.eta_monic[n]))
        for n in range(N))
    return HattedFamily(N, tuple(p_hat), q_hat, family.exact)


# -- total nonnegativity / oscillation ------------------------------------------


@dataclass(frozen=True)
class OscillationCertificate:
    """``kmax`` is the order certified, ``min_minor`` the smallest diagonal
    pivot, ``violation`` the first failed Neville step as (row, col,
    multiplier), with None for a needed row exchange."""
    tn_passed: bool
    kmax: int
    min_minor: object
    invertible: bool
    subdiagonal_positive: bool
    supradiagonal_positive: bool
    violation: tuple | None

    @property
    def oscillatory(self) -> bool:
        return (self.tn_passed and self.invertible
                and self.subdiagonal_positive and self.supradiagonal_positive)


def _neville(rows, tol):
    """Neville elimination, each column zeroed bottom up by the row above,
    |entries| <= tol counting as zero.  Exchanges are made, so the pivots
    carry |det|; returns them and the first exchange or negative multiplier.
    """
    a = [list(row) for row in rows]
    violation = None
    for k in range(len(a) - 1):
        for i in range(len(a) - 1, k, -1):
            if abs(a[i][k]) <= tol:
                continue
            if abs(a[i - 1][k]) <= tol:
                a[i - 1], a[i] = a[i], a[i - 1]
                violation = violation or (i, k, None)
                continue
            m = a[i][k] / a[i - 1][k]
            if m < 0:
                violation = violation or (i, k, m)
            a[i] = [x - m * y for x, y in zip(a[i], a[i - 1])]
    return [a[k][k] for k in range(len(a))], violation


def tn_oscillatory_certificate(M: BandOperator,
                               tol: float = 0.0) -> OscillationCertificate:
    """Total nonnegativity of the valid window of M, plus the classical
    oscillation criterion: TN, invertible, and strictly positive first sub-
    and supra-diagonals.  A nonsingular M is TN iff Neville elimination of
    M and of M^T needs no row exchange and no negative multiplier, and the
    pivots of M are > 0 (Gasca & Pena, Linear Algebra Appl. 165, 1992); the
    row operations keep |det|, so a vanishing pivot means singular and not
    certified.  tol makes float rounding dust count as zero.  Minor signs
    are invariant under the positive diagonal conjugation between the
    rational and normalized frames, so certifying the rational entries
    certifies the normalized operator too.
    """
    size = M.valid_rows
    rows = [row[:size] for row in M.entries[:size]]
    pivots, violation = _neville(rows, tol)
    if violation is None:
        _, v = _neville(zip(*rows), tol)
        violation = v and (v[1], v[0], v[2])       # as indices of M
    sub = all(rows[i + 1][i] > 0 for i in range(size - 1))
    supra = all(rows[i][i + 1] > 0 for i in range(size - 1))
    return OscillationCertificate(
        violation is None and min(pivots) > tol, size, min(pivots),
        all(abs(p) > tol for p in pivots), sub, supra, violation)
