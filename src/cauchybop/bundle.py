"""One-stop construction of the whole apparatus for a measure pair.

The :class:`Apparatus` bundles everything the verification modules need:
bimoments (two orders past the family degree, for the shift), the monic
family with its averages, the multiplication operators, the banded
factors, and the hatted families.  It is immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bimoment import CAUCHY, BimomentMatrix, Kernel, compute_bimoments
from .bop import PolynomialFamily, build_family
from .errors import DegenerateMatrixError, OrderUnderflowError
from .measure import DensityMeasure, DiscreteMeasure, discretize, moment
from .recurrence import (BandOperator, HattedFamily, build_A_Ahat, build_hatted,
                         build_L_Lhat, build_XY)


@dataclass(frozen=True)
class Apparatus:
    """The apparatus of one pair at degree N.  Three derived facts are
    computed on first use and kept: ``ladder``, ``cap`` and ``markov``."""
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

    @cached_property
    def ladder(self):       # biorthonormality_defects once; None when exact
        return None if self.exact else biorthonormality_defects(self)

    @cached_property
    def cap(self) -> int:   # reliable_degree_cap once; N - 1 when exact
        return reliable_degree_cap(self)

    @cached_property
    def markov(self) -> dict:   # tag -> nikishin.markov(alpha, beta, tag)
        from .nikishin import MARKOV_TAGS, markov
        return {tag: markov(self.alpha, self.beta, tag) for tag in MARKOV_TAGS}

    def beta_moment(self, j: int):
        return moment(self.beta, j)

    def require_window(self, n: int, lo: int = 2):
        if not lo <= n <= self.N - 1:
            raise OrderUnderflowError(
                f"order underflow: need {lo} <= n <= {self.N - 1}, got {n}")


def biorthonormality_defects(app: Apparatus):
    """Worst deviation of <p_n | q*_m> from the identity over the leading
    (k+1)-block, for k = 0..N+1.

    Zero in exact mode by construction.  In float mode this ladder measures
    how many digits the factorization actually retained per degree, which
    is the honest way to pick a working window: the conditioning of
    bimoment matrices grows so fast that fixed degree limits would either
    waste well-conditioned input or trust garbage.  Degree N+1 takes one
    more LDU step on the bimoments (order N+2): the last rows of X, A and
    Ahat read it, and so does every check at window N-1.
    """
    from .bop import pair
    try:
        fam = build_family(app.I, app.N + 1)
    except DegenerateMatrixError:       # D_{N+2} came out 0.0: stop at N
        fam = app.family
    ladder = [0]
    for k in range(fam.N + 1):
        ladder.append(max(ladder[-1], *(
            abs(pair(app.I, fam.p_monic[i], fam.q_star(j)) - (i == j))
            for m in range(k + 1) for i, j in ((k, m), (m, k)))))
    return tuple(ladder[1:])


def reliable_degree_cap(app: Apparatus) -> int:
    """Largest window n whose checks only touch degrees with
    biorthonormality defect at most 1e-8 (degree n+1 included, since every
    identity at window n reaches one degree past it); read as ``app.cap``."""
    if app.exact:
        return app.N - 1
    # the ladder never decreases: its clean degrees k >= 1 are 1..clean
    clean = sum(float(app.ladder[k]) <= 1e-8 for k in range(1, app.N + 1))
    return max(clean - 1, 1)


#: tol(d) = SAFETY * max(ladder[d], FLOOR).  On the float-verify benchmark
#: inputs the tightest check used 0.17 of it, so 10 would fail valid input.
SAFETY = 100
FLOOR = 1e-14


def tolerance(ladder, d: int):
    """Tolerance of a residual reading family degrees up to d: 0 if exact
    (ladder None), else SAFETY * max(ladder[d], FLOOR), d clipped to it."""
    return 0 if ladder is None else SAFETY * max(
        float(ladder[min(d, len(ladder) - 1)]), FLOOR)


def build_apparatus(alpha: DiscreteMeasure | DensityMeasure,
                    beta: DiscreteMeasure | DensityMeasure,
                    N: int, kernel: Kernel = CAUCHY) -> Apparatus:
    """Build the full apparatus with family degrees 0..N.

    With m atoms on the smaller side, D_k > 0 exactly when k <= m, so
    N + 1 > m raises the factorization's degenerate-matrix error at order
    m + 1 before anything is built.  Density measures are discretized
    first and kept alongside for the boundary-value machinery.
    """
    alpha_density = alpha if isinstance(alpha, DensityMeasure) else None
    beta_density = beta if isinstance(beta, DensityMeasure) else None
    alpha_d = discretize(alpha) if alpha_density else alpha
    beta_d = discretize(beta) if beta_density else beta
    m = min(len(alpha_d), len(beta_d))
    if N + 1 > m:
        raise DegenerateMatrixError(m + 1)
    I = compute_bimoments(alpha_d, beta_d, kernel, N + 2)
    family = build_family(I, N, alpha_d, beta_d)
    X, Y = build_XY(family, I)
    L, Lhat = build_L_Lhat(family)
    A, Ahat, B, Bhat = build_A_Ahat(X, L, Lhat)
    hatted = build_hatted(family)
    return Apparatus(alpha_d, beta_d, N, I, family, X, Y, L, Lhat,
                     A, Ahat, B, Bhat, hatted,
                     alpha_density=alpha_density, beta_density=beta_density)
