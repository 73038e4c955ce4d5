"""One-stop construction of the whole apparatus for a measure pair.

The :class:`Apparatus` bundles everything the verification modules need.
:func:`build_apparatus` builds the bimoments (two orders past the family
degree, for the shift) and the pivots of their one LDU, the monic family
with its averages, the multiplication operators X, Y, the banded factors
L, Lhat and A, Ahat; nothing else.  It keeps results, not construction
scratch: the elimination runs once, after which the exact matrix drops
its L, U, W tables.  Data only some readers need is built on first read
and kept: the hatted families (read only by the benchmark and the
tests), the float ladder and cap, the Markov transforms and their moment
streams, the auxiliary transforms per degree and the family values per
point.  B = -A^T, Bhat = -Ahat^T are formed on each read.  An apparatus
is safe to share across threads: a race only builds an equal entry twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bimoment import BimomentMatrix, compute_bimoments
from .bop import PolynomialFamily, build_family
from .errors import DegenerateMatrixError, OrderUnderflowError
from .measure import DensityMeasure, DiscreteMeasure, discretize
from .recurrence import (BandOperator, HattedFamily, build_A_Ahat, build_hatted,
                         build_L_Lhat, build_XY)


@dataclass(frozen=True)
class Apparatus:
    """The apparatus of one pair at degree N.  Its fields are what
    :func:`build_apparatus` builds.  Its derived data is computed on first
    read and kept: the hatted families (``hatted``), the float ``ladder``
    and ``cap``, the eight Markov transforms (``markov``) with their moment
    streams (``markov_moments``), the auxiliary transforms by side and
    degree (``aux``) and the family values by point (``point_values``).
    ``B`` and ``Bhat`` are not kept: each read forms them from ``A`` and
    ``Ahat``, so a reader that needs one several times binds it once."""
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
    alpha_density: DensityMeasure | None = None
    beta_density: DensityMeasure | None = None

    @property
    def exact(self) -> bool:
        return self.family.exact

    @property
    def B(self) -> BandOperator:        # -A^T, formed on each read
        return self.A.negated_transpose()

    @property
    def Bhat(self) -> BandOperator:     # -Ahat^T, formed on each read
        return self.Ahat.negated_transpose()

    @cached_property
    def hatted(self) -> HattedFamily:   # build_hatted(family) once
        # read only by perfbench/ and the tests, like cli.float_degree_cap
        return build_hatted(self.family)

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

    @cached_property
    def markov_moments(self) -> dict:
        """tag -> moment stream of markov[tag] to depth 2N + 2, the
        deepest any order check at degree n <= N reads (2n + 2)."""
        return {tag: tuple(W.moments(2 * self.N + 2))
                for tag, W in self.markov.items()}

    @cached_property
    def aux(self) -> dict:      # (side, j) -> transforms.aux_transforms(...)
        return {}

    @cached_property
    def point_values(self) -> dict:     # cdkernel._family_values, by point
        return {}

    def require_window(self, n: int, lo: int = 2, hi: int | None = None):
        """The one judge of whether this apparatus answers for degree n:
        lo <= n <= hi, hi defaulting to N - 1, the identities' top window."""
        hi = self.N - 1 if hi is None else hi
        if not lo <= n <= hi:
            raise OrderUnderflowError(
                f"order underflow: need {lo} <= n <= {hi}, got {n}")


def biorthonormality_defects(app: Apparatus):
    """Worst deviation of <p_n | q*_m> from the identity over the leading
    (k+1)-block, for k = 0..N+1.

    Zero in exact mode by construction.  In float mode this ladder measures
    how many digits the factorization actually retained per degree, which
    is the honest way to pick a working window: the conditioning of
    bimoment matrices grows so fast that fixed degree limits would either
    waste well-conditioned input or trust garbage.  Degree N+1 is the last
    pivot of the one LDU of the bimoments (order N+2): the last rows of X,
    A and Ahat read it, and so does every check at window N-1.
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
    """Largest window n <= N - 1 whose checks only touch degrees with
    biorthonormality defect at most 1e-8 (degree n+1 included, since every
    identity at window n reaches one degree past it); N - 1 when exact."""
    if app.exact:
        return app.N - 1
    # the ladder never decreases: its clean degrees k >= 1 are 1..clean
    clean = sum(float(app.ladder[k]) <= 1e-8 for k in range(1, app.N + 1))
    return min(max(clean - 1, 1), app.N - 1)


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
                    N: int) -> Apparatus:
    """Build the apparatus with family degrees 0..N, through A and Ahat,
    eliminating the bimoments once
    (:meth:`~cauchybop.bimoment.BimomentMatrix.release_tables` says what the
    matrix keeps); the rest of :class:`Apparatus` is built on first read.

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
    I = compute_bimoments(alpha_d, beta_d, N + 2)
    family = build_family(I, N, alpha_d, beta_d)
    X, Y = build_XY(family, I)
    I.release_tables()
    L, Lhat = build_L_Lhat(family)
    A, Ahat = build_A_Ahat(X, L, Lhat)
    return Apparatus(alpha_d, beta_d, N, I, family, X, Y, L, Lhat, A, Ahat,
                     alpha_density=alpha_density, beta_density=beta_density)
