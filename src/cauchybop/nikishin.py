"""Markov functions, Hermite-Pade approximation, extended CD identities,
and perfect duality.

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
measure's at its placed atoms.  They satisfy the product identity

    W_beta(z) W_alpha_star(z) = W_beta_alpha_star(z) + W_alpha_star_beta(z)

exactly, off the supports.

The simultaneous approximation problem asks, for a degree-n polynomial Q
and the chain (F1, F2, G1, G2) with F1 G1 = F2 + G2, for polynomials
P1, P2 of degree n-1 with

    Q F1 - P1 = O(1/z),   Q F2 - P2 = O(1/z),
    Q G2 - P1 G1 + P2 = O(1/z**(n+1)),

the last condition being equivalent to R1 G1 - R2 = R3 = O(1/z**(n+1))
for the remainders.  Q = q_n solves it for the (beta, alpha*) chain; by
symmetry p_n solves the (alpha, beta*) chain, and p_n(-z) solves the
switched problem on the original chain.  Remainders are computed by their
integral representations (never as Q W - P, which cancels catastrophically
in floats): weighting the measure of F by Q gives R = "F weighted by Q",
and R3 is G1's measure weighted by the inner remainder R1.

Asymptotic claims are checked as coefficient streams with explicit order
tracking: O(1/z**k) means "coefficients through z**(-k+1) vanish", which
is a finite exact statement.

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

The extended identities pair the auxiliary vector windows of both families
against the 3x3 commutator block B_n(s), a function of (n, s)
(``cdkernel.commutator_block(app, n, s)``), judged by the plain and hatted
CD identities' evaluator, ``cdkernel._cd_residual``.  The constant matrix in

    (w+z) q_a^T(w) Pi p_b(z) = q_a^T(w) B_n(-w) phat_b(z) - FF(w,z)[a][b]

is transcribed literally and verified exactly.  Its hatted analogue

    (w+z) qhat_a^T(w) Pi phat_b(z) = q_a^T(w) B_n(z) phat_b(z) - FFhat[a][b]

has the constant matrix derived here from the definitions and verified
exactly,

    FFhat = FF - (w+z)/beta_0 * u v^T,  u = (1, W_b(w), W_asb(w)),
                                        v = (0, 1, W_bs(z))

(W_b = W_beta, W_bs = W_beta_star, W_asb = W_alpha_star_beta).  The
duality suite judges both extended identities.  The customary transcription reads W_beta(z) at (1,1), 1 at (2,0), and a symbol
the definitions never introduce (read as W_asb(w)); it fails exactly at
those two entries, as ``tests/test_nikishin.py`` pins.

Setting w = -z kills the left-hand side of the plain extended identity and
the constant matrix collapses to the antidiagonal: the perfect-duality
pairing q_a^T(-z) B_n(z) phat_b(z) = J[a][b], independent of n and z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .bundle import Apparatus
from .cdkernel import _cd_residual, _window_terms
from .errors import OrderUnderflowError, PoleEvaluationError
from .measure import DiscreteMeasure, power_sums
from .polys import peval, preflect
from .scalars import residual
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


def markov(alpha: DiscreteMeasure, beta: DiscreteMeasure, tag: str
           ) -> MarkovFunction:
    """One of the eight canonical transforms of the pair (da, db), built
    from its recipe; the folding transforms are plain ones.  Nothing is
    kept: ``Apparatus.markov`` holds the eight of an apparatus."""
    if tag not in _RECIPES:
        raise ValueError(
            f"unknown Markov tag {tag!r}; expected one of {MARKOV_TAGS}")
    measures = {"alpha": alpha, "beta": beta}
    which, reflected, fold = _RECIPES[tag]
    W = _placed(measures[which], reflected, tag)
    if fold is None:
        return W
    fold_which, fold_reflected, _ = _RECIPES[fold]
    return W.weighted(_placed(measures[fold_which], fold_reflected, fold), tag)


def plucker_residual(app: Apparatus, z):
    """Relative residual of W_beta W_alpha_star = W_beta_alpha_star +
    W_alpha_star_beta at z, from the transforms ``app.markov`` holds; zero
    off the supports, exactly so for rational z."""
    W = app.markov
    return residual(W["W_beta"](z) * W["W_alpha_star"](z),
                    W["W_beta_alpha_star"](z) + W["W_alpha_star_beta"](z))


# -- simultaneous approximation --------------------------------------------------


def polynomial_part(Q, moms):
    """Coefficients of the polynomial part of Q(z) W(z), W's moment stream
    being moms (at least deg(Q) moments): degree deg(Q) - 1, with P_i =
    sum_{k>i} Q_k mom_{k-1-i}."""
    n = len(Q) - 1
    return tuple([sum(Q[k] * moms[k - 1 - i] for k in range(i + 1, n + 1))
                  for i in range(n)])


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


#: problem -> tags of its chain (F1, F2, G1, G2), with F1 G1 = F2 + G2
_CHAINS = {
    "q": ("W_beta", "W_beta_alpha_star", "W_alpha_star", "W_alpha_star_beta"),
    "p": ("W_alpha", "W_alpha_beta_star", "W_beta_star", "W_beta_star_alpha"),
    "switched": ("W_alpha_star", "W_alpha_star_beta", "W_beta",
                 "W_beta_alpha_star"),
}


def pade_solve(app: Apparatus, n: int, problem: str = "q") -> PadeSolution:
    """Assemble Q, the polynomial parts and the remainder transforms.

    Q is monic: q_n for the "q" problem, p_n for "p", p_n(-z) for
    "switched" (the solution is unique up to scale, so monic is a
    convention, not a restriction).
    """
    if not 0 <= n <= app.N:
        raise OrderUnderflowError(f"degree {n} outside built range 0..{app.N}")
    if problem == "q":
        Q = app.family.q_monic[n]
    elif problem == "p":
        Q = app.family.p_monic[n]
    elif problem == "switched":
        Q = preflect(app.family.p_monic[n])
    else:
        raise ValueError(f"unknown problem {problem!r}")
    tags = _CHAINS[problem]
    F1, F2, G1 = (app.markov[t] for t in tags[:3])
    moments = tuple([app.markov_moments[t] for t in tags])
    qval = partial(peval, Q)
    R1 = F1.weighted(qval, "R1")
    return PadeSolution(
        n=n, problem=problem, Q=Q,
        P1=polynomial_part(Q, moments[0]), P2=polynomial_part(Q, moments[1]),
        moments=moments,
        R1=R1, R2=F2.weighted(qval, "R2"), R3=G1.weighted(R1, "R3"))


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


def order_check(sol: PadeSolution) -> OrderCertificate:
    """Coefficient-by-coefficient verification of the three approximation
    conditions plus the equivalent form R1 G1 - R2 = R3.  R1, R2 = O(1/z)
    hold by construction (a remainder expands its moment stream), so those
    two conditions are judged as Q F - P = R alone.

    Series run to depth 2n + 2, the order needed to see the O(1/z**(n+1))
    condition through the series products.  Each condition's residual is
    its worst offending coefficient over the scale (at least 1) of the
    series it came from.
    """
    n = sol.n
    depth = 2 * n + 2
    sQ, sP1, sP2 = (PowerTail.from_poly(c) for c in (sol.Q, sol.P1, sol.P2))
    checks = []

    def judge(name, diff: PowerTail, lo_power: int, scale):
        checks.append((name, diff.max_abs_through(lo_power) / max(1, scale)))

    f1, f2, g1, g2 = (PowerTail.from_moment_stream(m[:depth])
                      for m in sol.moments)
    # one moment stream per remainder; every expansion of it is a prefix
    m3 = sol.R3.moments(depth)
    r1, r2 = (R.series(depth) for R in (sol.R1, sol.R2))
    r3 = PowerTail.from_moment_stream(m3)
    r3_lead = PowerTail.from_moment_stream(m3[:n + 1])

    qf1 = sQ * f1
    judge("Q F1 - P1 = R1 (series)", qf1 - sP1 - r1, -depth + n + 1,
          qf1.max_abs_all())

    qf2 = sQ * f2
    judge("Q F2 - P2 = R2 (series)", qf2 - sP2 - r2, -depth + n + 1,
          qf2.max_abs_all())

    qg2 = sQ * g2
    judge(f"Q G2 - P1 G1 + P2 = O(1/z^{n + 1})", qg2 - sP1 * g1 + sP2, -n,
          qg2.max_abs_all())

    r1g1 = r1 * g1
    judge("R1 G1 - R2 = R3 (series)", r1g1 - r2 - r3, -depth + n + 2,
          r1g1.max_abs_all())
    judge(f"R3 = O(1/z^{n + 1})", r3_lead, -n, r3_lead.max_abs_all())
    return OrderCertificate(n, sol.problem, tuple(checks))


# -- auxiliary vectors -----------------------------------------------------------


class AuxVectors(NamedTuple):
    """Values of the main and auxiliary vectors on the degrees needed by the
    extended identities at level n: q-side entries 0..n+1 at w, p-side
    entries 0..n+1 at z, hatted q-side entries 0..n."""
    q: tuple        # q[a][j]
    p: tuple        # p[b][j]
    phat: tuple     # phat[b][j]
    qhat: tuple     # qhat[a][j]


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


def aux_vectors(app: Apparatus, n: int, w, z) -> AuxVectors:
    if not 0 <= n <= app.N - 1:
        raise OrderUnderflowError(f"aux window needs 0 <= n <= {app.N - 1}")
    q_all, qhat = aux_columns(app, "q", n + 1, PointBackend(w))
    p_all, phat = aux_columns(app, "p", n + 1, PointBackend(z))
    return AuxVectors(q_all, p_all, phat, qhat)


# -- extended identities and duality --------------------------------------------


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


def ecd_residual(app: Apparatus, a: int, b: int, n: int, w, z,
                 aux: AuxVectors | None = None, F=None):
    """Residual of the plain extended identity for the (a, b) pair; F, if
    given, must be ``f_matrix(app, w, z)``."""
    app.require_window(n)
    aux = aux or aux_vectors(app, n, w, z)
    F = F or f_matrix(app, w, z)
    return _cd_residual(app, n, w + z, aux.q[a], aux.p[b], aux.q[a],
                        aux.phat[b], -w, F[a][b])


def ecd_hat_residual(app: Apparatus, a: int, b: int, n: int, w, z,
                     aux: AuxVectors | None = None, Fhat=None):
    """Residual of the hatted extended identity for the (a, b) pair; Fhat,
    if given, must be ``f_hat_matrix(app, w, z)``."""
    app.require_window(n)
    aux = aux or aux_vectors(app, n, w, z)
    Fhat = Fhat or f_hat_matrix(app, w, z)
    return _cd_residual(app, n, w + z, aux.qhat[a], aux.phat[b], aux.q[a],
                        aux.phat[b], z, Fhat[a][b])


def duality_check(app: Apparatus, a: int, b: int, n: int, z,
                  aux: AuxVectors | None = None):
    """Residual of q_a^T(-z) B_n(z) phat_b(z) = J[a][b], the antidiagonal
    pairing, over the magnitudes of the terms it sums (at least 1).

    The value is independent of both z and n; the (2,2) corner exercises
    the product identity of the two Nikishin chains.  aux, if given, must
    be ``aux_vectors(app, n, -z, z)``.
    """
    app.require_window(n)
    aux = aux or aux_vectors(app, n, -z, z)
    J = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    terms = _window_terms(app, n, z, aux.q[a], aux.phat[b])
    return abs(sum(terms) - J[a][b]) / max(1, sum(abs(t) for t in terms))
