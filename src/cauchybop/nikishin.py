"""Markov functions of the two Nikishin chains, Hermite-Pade
approximation, extended CD identities, and perfect duality.

The eight canonical transforms of a pair (da, db), their records and the
auxiliary columns are ``transforms``; :func:`markov` builds one of the
eight from its recipe there.  They satisfy the product identity

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
and R3 is G1's measure weighted by the inner remainder R1.  R1 and R3 are
thus the degree-n auxiliary transforms of ``transforms``, read off
``app.aux``: side "p" as they are for problem "p", times h_n for problem
"q" (side "q" weights by q*_n = q_n/h_n), and reflected for "switched"
(points negated, and the masses of R3 too: exact negations, so no bit
moves in floats).  R2 is F2 weighted by Q.

Asymptotic claims are checked as coefficient streams with explicit order
tracking: O(1/z**k) means "coefficients through z**(-k+1) vanish", which
is a finite exact statement.

The extended identities pair the auxiliary vector windows of both families
(``transforms.aux_columns`` at one point each, by :func:`aux_vectors`)
against the 3x3 commutator block B_n(s), a function of (n, s)
(``cdkernel.commutator_block(app, n, s)``), judged by the plain and hatted
CD identities' evaluator, ``cdkernel._cd_residual``.  The constant matrix in

    (w+z) q_a^T(w) Pi p_b(z) = q_a^T(w) B_n(-w) phat_b(z) - FF(w,z)[a][b]

is transcribed literally (``transforms.f_matrix``) and verified exactly.
Its hatted analogue

    (w+z) qhat_a^T(w) Pi phat_b(z) = q_a^T(w) B_n(z) phat_b(z) - FFhat[a][b]

has the constant matrix derived from the definitions
(``transforms.f_hat_matrix``) and verified exactly,

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

from functools import partial

from .bundle import Apparatus
from .cdkernel import _cd_residual, _window_terms
from .errors import OrderUnderflowError
from .measure import DiscreteMeasure
from .polys import peval, preflect
from .scalars import residual
from .series import PowerTail
from .transforms import (_RECIPES, MARKOV_TAGS, AuxVectors, MarkovFunction,
                         OrderCertificate, PadeSolution, PointBackend,
                         _placed, aux_columns, aux_entry, f_hat_matrix,
                         f_matrix)


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
    convention, not a restriction).  R1 and R3 come off the degree-n
    auxiliary transforms (``transforms.aux_entry``); R2 is F2 weighted by
    Q.
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
    moments = tuple([app.markov_moments[t] for t in tags])
    # side "q" weights by q*_n = q_n / h_n; "switched" reflects side "p"
    h = app.family.h[n] if problem == "q" else 1
    s = -1 if problem == "switched" else 1
    _, inner, outer = aux_entry(app, "q" if problem == "q" else "p", n)
    R1 = MarkovFunction("R1", tuple([s * t for t in inner.points]),
                        tuple([h * m for m in inner.masses]))
    R3 = MarkovFunction("R3", tuple([s * t for t in outer.points]),
                        tuple([s * h * m for m in outer.masses]))
    return PadeSolution(
        n=n, problem=problem, Q=Q,
        P1=polynomial_part(Q, moments[0]), P2=polynomial_part(Q, moments[1]),
        moments=moments, R1=R1,
        R2=app.markov[tags[1]].weighted(partial(peval, Q), "R2"), R3=R3)


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


def aux_vectors(app: Apparatus, n: int, w, z) -> AuxVectors:
    if not 0 <= n <= app.N - 1:
        raise OrderUnderflowError(f"aux window needs 0 <= n <= {app.N - 1}")
    q_all, qhat = aux_columns(app, "q", n + 1, PointBackend(w))
    p_all, phat = aux_columns(app, "p", n + 1, PointBackend(z))
    return AuxVectors(q_all, p_all, phat, qhat)


# -- extended identities and duality --------------------------------------------


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
