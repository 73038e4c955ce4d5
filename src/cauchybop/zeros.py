"""Zeros of the biorthogonal polynomials via Hessenberg truncations.

The monic polynomials are characteristic polynomials of the truncated
multiplication operators:

    p_n(x) = det(x - X[n-1]),    q_n(y) = det(y - Y[n-1])

(monic normalization; the rational frame used throughout the library is a
positive diagonal conjugation of the normalized one, so eigenvalues and
characteristic polynomials agree between frames).  Zeros are therefore
computed as eigenvalues of the balanced float truncation, and certified
-- when a rigorous count is requested on exact data -- by exact sign
changes at rational points straddling each float zero.  The tests hold
the second routes (companion-matrix roots of the coefficient vector, and
p_n at its own eigenvalues) as oracles.

Theory guarantees the zeros are simple, strictly positive, inside the
convex hull of the relevant support, and interlaced between consecutive
degrees.  Those are *checked* properties here, reported per degree.

Eigenvalues are float work: numpy is imported when :func:`zeros_of` runs,
not with the module, so the exact lane never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bimoment import det
from .bundle import Apparatus
from .errors import OrderUnderflowError, PrecisionExhaustedError
from .polys import peval

#: Zeros closer than this fraction of the span are flagged as numerically
#: coincident: the theory forbids true coincidence, so this marks a
#: conditioning problem rather than a mathematical one.
COINCIDENCE_RTOL = 1e-12


@dataclass(frozen=True)
class ZeroReport:
    degree: int
    zeros: tuple[float, ...]
    min_gap: float
    all_positive: bool
    inside_hull: bool
    interlaced_with_previous: bool | None
    numerically_coincident: bool


def _eigs_real_sorted(block):
    import numpy as np
    m = np.array(block, dtype=float)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:   # pragma: no cover - defensive
        raise PrecisionExhaustedError(
            f"eigenvalue iteration failed on the {len(m)}x{len(m)} "
            "truncation") from exc
    if m.size and np.max(np.abs(vals.imag)) > 1e-8 * max(1.0, np.max(np.abs(vals))):
        raise PrecisionExhaustedError(
            f"non-real eigenvalues of the {len(m)}x{len(m)} truncation in "
            "float arithmetic (it is oscillatory for valid input): too few "
            "digits survive at this degree")
    return np.sort(vals.real)


def zeros_of(app: Apparatus, which: str, n: int) -> ZeroReport:
    """Zero report for p_n (which="p") or q_n (which="q"), 0 <= n <= N."""
    if not 0 <= n <= app.N:
        raise OrderUnderflowError(f"degree {n} outside built range 0..{app.N}")
    if n == 0:
        return ZeroReport(0, (), float("inf"), True, True, None, False)
    import numpy as np
    op = app.X if which == "p" else app.Y
    block = [row[:n] for row in op.entries[:n]]
    eigs = _eigs_real_sorted(block)

    measure = app.alpha if which == "p" else app.beta
    lo, hi = measure.support_hull()
    span = float(hi) - float(lo) or 1.0
    gaps = np.diff(eigs)
    min_gap = float(np.min(gaps)) if len(gaps) else float("inf")

    prev_interlaced = True   # vacuous at n = 1
    if n >= 2:
        prev = _eigs_real_sorted([row[: n - 1] for row in op.entries[: n - 1]])
        prev_interlaced = bool(_interlacing_margin(eigs, prev) > 0)

    return ZeroReport(
        degree=n,
        zeros=tuple(float(z) for z in eigs),
        min_gap=min_gap,
        all_positive=bool(np.all(eigs > 0)),
        inside_hull=bool(np.all((eigs > float(lo) - 1e-12 * span)
                                & (eigs < float(hi) + 1e-12 * span))),
        interlaced_with_previous=prev_interlaced,
        numerically_coincident=bool(min_gap < COINCIDENCE_RTOL * span),
    )


def _interlacing_margin(zn, zp):
    """Smallest signed slack in z1(n) < z1(n-1) < z2(n) < ... < zn(n), for
    the sorted zeros zn of degree n >= 2 and zp of degree n - 1."""
    return min(min(zp[k] - zn[k], zn[k + 1] - zp[k]) for k in range(len(zp)))


def interlacing_check(report_n: ZeroReport, report_prev: ZeroReport):
    """Strict interlacing of two consecutive reports, with the margin.

    Returns (flag, margin) where margin is the smallest signed slack in the
    chain of inequalities (positive = strict interlacing with room).
    """
    if report_prev.degree != report_n.degree - 1:
        raise ValueError("reports must be for consecutive degrees")
    if report_n.degree <= 1:
        return True, float("inf")
    margin = _interlacing_margin(report_n.zeros, report_prev.zeros)
    return margin > 0, margin


def charpoly_identity_residual(app: Apparatus, which: str, n: int, point):
    """p_n(point) - det(point - X[n-1]) in the monic frame (the sqrt
    prefactor of the normalized statement cancels against monic scaling).
    Exact zero on exact data."""
    if not 1 <= n <= app.N:
        raise OrderUnderflowError(f"degree {n} outside 1..{app.N}")
    op = app.X if which == "p" else app.Y
    coeffs = (app.family.p_monic if which == "p" else app.family.q_monic)[n]
    exact = app.exact and isinstance(point, (int, Fraction))
    if not exact:
        point = float(point)
    rows = [[(point if i == j else 0) - op[i, j] for j in range(n)]
            for i in range(n)]
    return peval(coeffs, point) - det(rows, exact)


def certify_sign_changes(app: Apparatus, which: str, n: int) -> bool:
    """Rigorous count of n positive simple zeros by exact sign evaluation.

    Rational test points are placed between consecutive float zeros (and
    at 0 and past the hull); the monic polynomial must alternate in sign
    across the n+1 points, which certifies n distinct positive roots.
    Exact data only.
    """
    if not app.exact:
        raise ValueError("rigorous certification requires exact data")
    report = zeros_of(app, which, n)
    coeffs = (app.family.p_monic if which == "p" else app.family.q_monic)[n]
    zs = report.zeros
    hi = max(float(max((app.alpha if which == "p" else app.beta)
                       .positions())), zs[-1] if zs else 1.0)
    points = [Fraction(0)]
    for k in range(len(zs) - 1):
        points.append(Fraction((zs[k] + zs[k + 1]) / 2).limit_denominator(10 ** 9))
    points.append(Fraction(int(hi) + 1))
    signs = []
    for t in points:
        v = peval(coeffs, t)
        if v == 0:
            return False   # landed on a root: refuse rather than guess
        signs.append(1 if v > 0 else -1)
    return all(signs[k] != signs[k + 1] for k in range(len(signs) - 1))
