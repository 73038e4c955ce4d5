"""Zeros of the biorthogonal polynomials via Hessenberg truncations.

The monic polynomials are characteristic polynomials of the truncated
multiplication operators:

    p_n(x) = det(x - X[n-1]),    q_n(y) = det(y - Y[n-1])

(monic normalization; the rational frame used throughout the library is a
positive diagonal conjugation of the normalized one, so eigenvalues and
characteristic polynomials agree between frames).  Zeros are therefore
computed as eigenvalues of the balanced float truncation.  The tests hold
the second routes as oracles: companion-matrix roots of the coefficient
vector, p_n at its own eigenvalues, and on exact data a rigorous count by
exact sign changes at rational points straddling each float zero.

Theory guarantees the zeros are simple, strictly positive, inside the
convex hull of the relevant support, and interlaced between consecutive
degrees.  Those are *checked* properties here, reported per degree by
:func:`zeros_of` (interlacing against degree n - 1 included).

Eigenvalues are float work: numpy is imported when :func:`zeros_of` runs,
not with the module, so the exact lane never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bimoment import det
from .bundle import Apparatus
from .errors import PrecisionExhaustedError
from .polys import peval
from .scalars import is_exact, to_float

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
    m = np.array([[to_float(v, "an operator entry") for v in row]
                  for row in block], dtype=float)
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
    """Zero report for p_n (which="p") or q_n (which="q"); the degree range
    0 <= n <= N is judged by ``Apparatus.require_window``."""
    app.require_window(n, 0, app.N)
    if n == 0:
        return ZeroReport(0, (), float("inf"), True, True, None, False)
    import numpy as np
    op = app.X if which == "p" else app.Y
    block = [row[:n] for row in op.entries[:n]]
    eigs = _eigs_real_sorted(block)

    measure = app.alpha if which == "p" else app.beta
    lo, hi = [to_float(v, "a support end") for v in measure.support_hull()]
    span = hi - lo or 1.0
    gaps = np.diff(eigs)
    min_gap = float(np.min(gaps)) if len(gaps) else float("inf")

    prev_interlaced = True   # vacuous at n = 1
    if n >= 2:
        prev = _eigs_real_sorted([row[: n - 1] for row in op.entries[: n - 1]])
        prev_interlaced = bool(_interlacing_margin(eigs, prev) > 0)

    return ZeroReport(
        degree=n,
        zeros=tuple([float(z) for z in eigs]),
        min_gap=min_gap,
        all_positive=bool(np.all(eigs > 0)),
        inside_hull=bool(np.all((eigs > lo - 1e-12 * span)
                                & (eigs < hi + 1e-12 * span))),
        interlaced_with_previous=prev_interlaced,
        numerically_coincident=bool(min_gap < COINCIDENCE_RTOL * span),
    )


def _interlacing_margin(zn, zp):
    """Smallest signed slack in z1(n) < z1(n-1) < z2(n) < ... < zn(n), for
    the sorted zeros zn of degree n >= 2 and zp of degree n - 1."""
    return min(min(zp[k] - zn[k], zn[k + 1] - zp[k]) for k in range(len(zp)))


def charpoly_identity_residual(app: Apparatus, which: str, n: int, point):
    """p_n(point) - det(point - X[n-1]) in the monic frame (the sqrt
    prefactor of the normalized statement cancels against monic scaling).
    Exact zero on exact data; needs 1 <= n <= N."""
    app.require_window(n, 1, app.N)
    op = app.X if which == "p" else app.Y
    coeffs = (app.family.p_monic if which == "p" else app.family.q_monic)[n]
    exact = app.exact and is_exact(point)
    if not exact:
        point = float(point)
    rows = [[(point if i == j else 0) - op[i, j] for j in range(n)]
            for i in range(n)]
    return peval(coeffs, point) - det(rows, exact)

