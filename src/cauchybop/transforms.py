"""Markov functions, the records of the Nikishin layer, and the auxiliary
columns with their evaluation backends.

Every Markov function used here is the Stieltjes transform of a discrete
signed measure once the input measures are discrete:

    W(z) = sum_k  m_k / (z - t_k),

so pointwise values are exact rationals at rational z and the expansion at
infinity is the moment stream m_j = sum_k m_k t_k**j
(:meth:`MarkovFunction.moments`, by ``measure.power_sums``).  The eight
canonical transforms attached to a pair (da, db) on the positive axis are
the plain and reflected Stieltjes transforms of each measure and the four
"folded" functions of the two associated Nikishin chains: one measure's
transform reweighted (:meth:`MarkovFunction.weighted`) by the other
measure's at its placed atoms.  :data:`_RECIPES` says how each is built;
``nikishin.markov`` builds it.

What does not depend on the point is built once per apparatus: the eight
transforms (``app.markov``), their moment streams (``app.markov_moments``)
and, per side and degree on its first read, the auxiliary transforms
(``app.aux``, see :func:`aux_transforms`).  The auxiliary vectors have one
evaluator, :func:`aux_columns`, which evaluates the latter and forms the
hatted combinations.  A backend with ``poly(coeffs)`` and ``transform(fn,
which, g, reflected)`` says what evaluating means; fn is the kept
transform of the measure ``which``, its atoms at -t if reflected, each
weight times g at the placed atom.  :class:`PointBackend` evaluates fn
at one point (exact at rational points), :class:`SeriesBackend` expands
it at infinity, and ``rhp.DensityBackend`` ignores fn and takes the split
Cauchy transform of the density of ``which`` times g near its cut.  The
extended identities, the duality pairing and both boundary-value
matrices read windows of these columns.

The constant matrices of the two extended identities, :func:`f_matrix`
and its rank-one update :func:`f_hat_matrix`, are read off the eight
transforms; ``nikishin`` states the identities and judges them.

This module never imports ``nikishin``: it is the layer ``nikishin`` and
``rhp`` both stand on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .bundle import Apparatus
from .errors import PoleEvaluationError
from .measure import DiscreteMeasure, power_sums
from .polys import peval
from .series import PowerTail

#: tag -> (measure, reflected?, folding tag): the Stieltjes transform of
#: that measure of the pair, its atoms placed at -t if reflected, each
#: weight multiplied by the folding transform at the placed atom.
_RECIPES = {
    "W_beta": ("beta", False, None),
    "W_alpha_star": ("alpha", True, None),
    "W_beta_alpha_star": ("beta", False, "W_alpha_star"),
    "W_alpha_star_beta": ("alpha", True, "W_beta"),
    "W_alpha": ("alpha", False, None),
    "W_beta_star": ("beta", True, None),
    "W_alpha_beta_star": ("alpha", False, "W_beta_star"),
    "W_beta_star_alpha": ("beta", True, "W_alpha"),
}
MARKOV_TAGS = tuple(_RECIPES)


class MarkovFunction(NamedTuple):
    """Stieltjes transform of a discrete signed measure."""
    tag: str
    points: tuple
    masses: tuple

    def __call__(self, z):
        out = 0
        for t, m in zip(self.points, self.masses):
            d = z - t
            if d == 0:
                raise PoleEvaluationError(
                    f"pole/cut evaluation: {self.tag} at z = {z}")
            out += m / d
        return out

    def moments(self, depth: int) -> list:
        """The first depth moments sum_k m_k t_k**j, by
        :func:`~cauchybop.measure.power_sums`."""
        return power_sums(self.points, self.masses, depth)

    def series(self, depth: int) -> PowerTail:
        """Expansion at infinity through z**(-depth)."""
        return PowerTail.from_moment_stream(self.moments(depth))

    def weighted(self, fn, tag: str) -> "MarkovFunction":
        """Transform of the same measure reweighted by fn(t) -- the
        folded, remainder and auxiliary-column construction."""
        return MarkovFunction(tag, self.points,
                              tuple([m * fn(t) for t, m in zip(self.points,
                                                               self.masses)]))


def _placed(m: DiscreteMeasure, reflected: bool, tag: str) -> MarkovFunction:
    """Transform of m, its atoms placed at -t if reflected."""
    return MarkovFunction(tag, tuple([-t if reflected else t
                                      for t in m.positions()]), m.weights())


# -- records ---------------------------------------------------------------------


class PadeSolution(NamedTuple):
    """Solution data of one simultaneous approximation problem.

    problem is "q" (Q = q_n against the (beta, alpha*) chain), "p" (Q = p_n,
    measures switched) or "switched" (Q = p_n(-z) against the original
    chain).  moments holds the moment streams of the chain's F1, F2, G1,
    G2 (prefixes of ``app.markov_moments``); P1, P2 are the polynomial
    parts and R1, R2, R3 the remainder transforms.
    """
    n: int
    problem: str
    Q: tuple
    P1: tuple
    P2: tuple
    moments: tuple
    R1: MarkovFunction
    R2: MarkovFunction
    R3: MarkovFunction


class OrderCertificate(NamedTuple):
    n: int
    problem: str
    checks: tuple                # (name, scaled residual)

    @property
    def residual(self):
        return max(res for _, res in self.checks)

    @property
    def passed(self) -> bool:
        return self.residual == 0


class AuxVectors(NamedTuple):
    """Values of the main and auxiliary vectors on the degrees needed by the
    extended identities at level n: q-side entries 0..n+1 at w, p-side
    entries 0..n+1 at z, hatted q-side entries 0..n."""
    q: tuple        # q[a][j]
    p: tuple        # p[b][j]
    phat: tuple     # phat[b][j]
    qhat: tuple     # qhat[a][j]


# -- auxiliary columns -----------------------------------------------------------


#: side -> (the measure P_j weights, the reflected measure weighted next)
_SIDES = {"q": ("beta", "alpha"), "p": ("alpha", "beta")}


def aux_transforms(app: Apparatus, side: str, j: int):
    """The point-independent data of one side's auxiliary columns at
    degree j: (P_j, inner, outer).  Side "q": q*_j, db weighted by q*_j,
    da* weighted by that at its placed atoms; side "p": p_j, da and db*.
    Both transforms reweight the plain ones of ``app.markov``.  Read as
    ``app.aux[side, j]``, which :func:`aux_columns` fills."""
    first, second = _SIDES[side]
    P = app.family.q_star(j) if side == "q" else app.family.p_monic[j]
    inner = app.markov[f"W_{first}"].weighted(partial(peval, P),
                                              f"{first}[weighted]")
    outer = app.markov[f"W_{second}_star"].weighted(inner,
                                                    f"{second}*[weighted]")
    return P, inner, outer


@dataclass(frozen=True)
class PointBackend:
    """Values at one point s: finite Stieltjes sums over the atoms, exact
    at rational s; a pole raises PoleEvaluationError."""
    s: object

    def poly(self, coeffs):
        return peval(coeffs, self.s)

    def transform(self, fn: MarkovFunction, which: str, g, reflected: bool):
        return fn(self.s)


class SeriesBackend(NamedTuple):
    """Expansions at infinity as PowerTails, known through z**(-depth)."""
    depth: int

    def poly(self, coeffs):
        return PowerTail.from_poly(coeffs)

    def transform(self, fn: MarkovFunction, which: str, g, reflected: bool):
        return fn.series(self.depth)


def aux_columns(app: Apparatus, side: str, top: int, backend):
    """The three auxiliary columns of one side for degrees 0..top, and
    their hatted form, as values of ``backend``.

    Columns: P_j and the two transforms of ``app.aux[side, j]``, built
    here on first read.  Hatted, side "q": qhat_j = -q_j/eta*_j +
    q_{j+1}/eta*_{j+1} for j < top; side "p": phat_j = -sum_{i<=j} eta*_i
    p_i - (0, 1, W_beta_star) for j <= top.  Returns (cols, hatted), each
    indexed [component][degree].
    """
    fam = app.family
    first, second = _SIDES[side]
    cols = ([], [], [])
    for j in range(top + 1):
        if (side, j) not in app.aux:
            app.aux[side, j] = aux_transforms(app, side, j)
        P, inner, outer = app.aux[side, j]
        cols[0].append(backend.poly(P))
        cols[1].append(backend.transform(inner, first, partial(peval, P),
                                         False))
        cols[2].append(backend.transform(outer, second, inner, True))
    es = [fam.eta_star(j) for j in range(top + 1)]
    if side == "q":
        hatted = tuple([tuple([-c[j] / es[j] + c[j + 1] / es[j + 1]
                               for j in range(top)]) for c in cols])
    else:
        shifts = (backend.poly(()), backend.poly((1,)),
                  backend.transform(app.markov["W_beta_star"], "beta",
                                    lambda t: 1, True))
        hatted = tuple([tuple([-acc - k for acc in
                               accumulate(e * v for e, v in zip(es, c))])
                        for c, k in zip(cols, shifts)])
    return tuple([*map(tuple, cols)]), hatted


# -- constant matrices of the extended identities --------------------------------


def f_matrix(app: Apparatus, w, z):
    """The constant matrix of the plain extended identity."""
    W = app.markov
    one = Fraction(1) if app.exact else 1.0
    W_bs = W["W_beta_star"](z)
    W_b = W["W_beta"](w)
    W_a = W["W_alpha"](z)
    W_as = W["W_alpha_star"](w)
    W_asb = W["W_alpha_star_beta"](w)
    W_bsa = W["W_beta_star_alpha"](z)
    return ((0 * one, 0 * one, one),
            (0 * one, one, W_bs + W_b),
            (one, W_a + W_as, W_as * W_bs + W_asb + W_bsa))


def f_hat_matrix(app: Apparatus, w, z):
    """The constant matrix of the hatted extended identity: the rank-one
    update FF - (w+z)/beta_0 u v^T of :func:`f_matrix`."""
    F = f_matrix(app, w, z)
    W = app.markov
    u = (1, W["W_beta"](w), W["W_alpha_star_beta"](w))
    v = (0, 1, W["W_beta_star"](z))
    scale = (w + z) / app.markov_moments["W_beta"][0]
    return tuple([tuple([F[i][j] - scale * (u[i] * v[j]) for j in range(3)])
                  for i in range(3)])
