"""One-stop construction of the whole apparatus for a measure pair.

The :class:`Apparatus` bundles everything the verification modules need:
bimoments (two orders past the family degree, for the shift), the monic
family with its averages, the multiplication operators, the banded
factors, and the hatted families.  It is immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bimoment import CAUCHY, BimomentMatrix, Kernel, compute_bimoments
from .bop import PolynomialFamily, build_family
from .errors import OrderUnderflowError
from .measure import DensityMeasure, DiscreteMeasure, discretize, moment
from .recurrence import (BandOperator, HattedFamily, build_A_Ahat, build_hatted,
                         build_L_Lhat, build_XY)


@dataclass(frozen=True)
class Apparatus:
    alpha: DiscreteMeasure
    beta: DiscreteMeasure
    N: int
    I: BimomentMatrix
    family: PolynomialFamily
    X: BandOperator
    Y: BandOperator
    L: BandOperator
    Lhat: BandOperator
    A: BandOperator
    Ahat: BandOperator
    B: BandOperator
    Bhat: BandOperator
    hatted: HattedFamily
    alpha_density: DensityMeasure | None = None
    beta_density: DensityMeasure | None = None

    @property
    def exact(self) -> bool:
        return self.family.exact

    def beta_moment(self, j: int):
        return moment(self.beta, j)

    def require_window(self, n: int, lo: int = 2):
        if not lo <= n <= self.N - 1:
            raise OrderUnderflowError(
                f"order underflow: need {lo} <= n <= {self.N - 1}, got {n}")


def biorthonormality_defects(app: Apparatus):
    """Worst deviation of <p_n | q*_m> from the identity over the leading
    (k+1)-block, for k = 0..N.

    Zero in exact mode by construction.  In float mode this ladder measures
    how many digits the factorization actually retained per degree, which
    is the honest way to pick a working window: the conditioning of
    bimoment matrices grows so fast that fixed degree limits would either
    waste well-conditioned input or trust garbage.
    """
    from .bop import pair
    ladder = []
    worst = 0
    for k in range(app.N + 1):
        for m in range(k + 1):
            v = pair(app.I, app.family.p_monic[k], app.family.q_star(m))
            worst = max(worst, abs(v - (1 if k == m else 0)))
            v = pair(app.I, app.family.p_monic[m], app.family.q_star(k))
            worst = max(worst, abs(v - (1 if k == m else 0)))
        ladder.append(worst)
    return tuple(ladder)


def reliable_degree_cap(app: Apparatus) -> int:
    """Largest window n whose checks only touch degrees with
    biorthonormality defect at most 1e-8 (degree n+1 included, since every
    identity at window n reaches one degree past it)."""
    if app.exact:
        return app.N - 1
    ladder = biorthonormality_defects(app)
    cap = 0
    for k in range(1, app.N + 1):
        if float(ladder[k]) > 1e-8:
            break
        cap = k - 1
    return max(cap, 1)


def build_apparatus(alpha: DiscreteMeasure | DensityMeasure,
                    beta: DiscreteMeasure | DensityMeasure,
                    N: int, kernel: Kernel = CAUCHY) -> Apparatus:
    """Build the full apparatus with family degrees 0..N.

    Requires both measures to have at least N+1 points of increase
    (otherwise a degenerate-matrix error propagates from the
    factorization).  Density measures are discretized first and kept
    alongside for the boundary-value machinery.
    """
    alpha_density = alpha if isinstance(alpha, DensityMeasure) else None
    beta_density = beta if isinstance(beta, DensityMeasure) else None
    alpha_d = discretize(alpha) if alpha_density else alpha
    beta_d = discretize(beta) if beta_density else beta
    I = compute_bimoments(alpha_d, beta_d, kernel, N + 2)
    family = build_family(I, N, alpha_d, beta_d)
    X, Y = build_XY(family, I)
    L, Lhat = build_L_Lhat(family)
    A, Ahat, B, Bhat = build_A_Ahat(X, L, Lhat)
    hatted = build_hatted(family)
    return Apparatus(alpha_d, beta_d, N, I, family, X, Y, L, Lhat,
                     A, Ahat, B, Bhat, hatted,
                     alpha_density=alpha_density, beta_density=beta_density)
