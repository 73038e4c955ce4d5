"""Markov functions, Hermite-Pade approximation, extended CD identities,
and perfect duality.

Every Markov function used here is the Stieltjes transform of a discrete
signed measure once the input measures are discrete:

    W(z) = sum_k  m_k / (z - t_k),

so pointwise values are exact rationals at rational z and the expansion at
infinity is the moment stream m_j = sum_k m_k t_k**j.  The eight canonical
transforms attached to a pair (da, db) on the positive axis are the plain
and reflected Stieltjes transforms of each measure and the four "folded"
functions of the two associated Nikishin chains; they satisfy the product
identity

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

The auxiliary vectors have one evaluator, :func:`aux_columns`: for each
degree the polynomial (q*_j or p_j), its transform against the first
measure (db, resp. da), the transform of that against the reflected
second measure (da*, resp. db*), and the hatted combinations.  A backend
with ``poly(coeffs)`` and ``transform(app, which, g, reflected)`` (the
measure's weights times g at the placed atom, -t when reflected) says
what evaluating means: :class:`PointBackend` sums over the atoms at one
point (exact at rational points), :class:`SeriesBackend` turns the sums
into moment streams at infinity, and ``rhp.DensityBackend`` takes the
split Cauchy transform of a density near its cut.  The extended
identities, the duality pairing and both boundary-value matrices read
windows of these columns.

The extended identities pair the auxiliary vector windows of both families
against the 3x3 commutator block, judged by the plain and hatted CD
identities' evaluator, ``cdkernel._cd_residual``.  The constant matrix in

    (w+z) q_a^T(w) Pi p_b(z) = q_a^T(w) B_n(-w) phat_b(z) - FF(w,z)[a][b]

is transcribed literally and verified exactly.  Its hatted analogue

    (w+z) qhat_a^T(w) Pi phat_b(z) = q_a^T(w) B_n(z) phat_b(z) - FFhat[a][b]

has the constant matrix derived here from the definitions and verified
exactly,

    FFhat = FF - (w+z)/beta_0 * [[0, 1,        W_bs(z)        ],
                                 [0, W_b(w),   W_b(w) W_bs(z) ],
                                 [0, W_asb(w), W_asb(w) W_bs(z)]]

(W_b = W_beta, W_bs = W_beta_star, W_asb = W_alpha_star_beta).  The
customary transcription reads W_beta(z) at (1,1), 1 at (2,0), and a symbol
the definitions never introduce (read as W_asb(w)); it fails exactly at
those two entries, as ``tests/test_nikishin.py`` pins.

Setting w = -z kills the left-hand side of the plain extended identity and
the constant matrix collapses to the antidiagonal: the perfect-duality
pairing q_a^T(-z) B_n(z) phat_b(z) = J[a][b], independent of n and z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .bundle import Apparatus
from .cdkernel import _cd_residual, _window_terms
from .errors import OrderUnderflowError, PoleEvaluationError
from .measure import DiscreteMeasure
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


@dataclass(frozen=True)
class MarkovFunction:
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

    def moment(self, j: int):
        return sum(m * t ** j for t, m in zip(self.points, self.masses))

    def moments(self, depth: int) -> list:
        """[moment(0), ..., moment(depth - 1)], one pass per atom with
        running powers."""
        out = [0] * depth
        for t, m in zip(self.points, self.masses):
            for j in range(depth):
                out[j] += m
                m *= t
        return out

    def series(self, depth: int) -> PowerTail:
        """Expansion at infinity through z**(-depth)."""
        return PowerTail.from_moment_stream(self.moments(depth))

    def weighted(self, fn, tag: str | None = None) -> "MarkovFunction":
        """Transform of the same measure reweighted by fn(t) -- the
        remainder construction."""
        return MarkovFunction(tag or f"{self.tag}[weighted]", self.points,
                              tuple(m * fn(t) for t, m in zip(self.points,
                                                              self.masses)))

    def radius(self) -> float:
        return max(abs(float(t)) for t in self.points)


def _weighted(m: DiscreteMeasure, g=None, reflected: bool = False,
              tag: str = "weighted") -> MarkovFunction:
    """Transform of m, its atoms placed at -t if reflected, each weight
    multiplied by g at the placed atom (as ``MarkovFunction.weighted``);
    g None keeps the weights."""
    ts = tuple(-t if reflected else t for t in m.positions())
    ws = tuple(w if g is None else w * g(t) for t, w in zip(ts, m.weights()))
    return MarkovFunction(tag, ts, ws)


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
    g = None
    if fold is not None:
        fold_which, fold_reflected, _ = _RECIPES[fold]
        g = _weighted(measures[fold_which], None, fold_reflected, fold)
    return _weighted(measures[which], g, reflected, tag)


def plucker_residual(app: Apparatus, z):
    """Relative residual of W_beta W_alpha_star = W_beta_alpha_star +
    W_alpha_star_beta at z, from the transforms ``app.markov`` holds; zero
    off the supports, exactly so for rational z."""
    W = app.markov
    return residual(W["W_beta"](z) * W["W_alpha_star"](z),
                    W["W_beta_alpha_star"](z) + W["W_alpha_star_beta"](z))


# -- simultaneous approximation --------------------------------------------------


def polynomial_part(Q, W: MarkovFunction):
    """Coefficients of the polynomial part of Q(z) W(z): degree deg(Q) - 1,
    with P_i = sum_{k>i} Q_k mom_{k-1-i}."""
    n = len(Q) - 1
    moms = W.moments(n)
    return tuple(sum(Q[k] * moms[k - 1 - i] for k in range(i + 1, n + 1))
                 for i in range(n))


@dataclass(frozen=True)
class PadeSolution:
    """Solution data of one simultaneous approximation problem.

    problem is "q" (Q = q_n against the (beta, alpha*) chain), "p" (Q = p_n,
    measures switched) or "switched" (Q = p_n(-z) against the original
    chain).  R1, R2, R3 are the remainder transforms; P1, P2 the polynomial
    parts.
    """
    n: int
    problem: str
    Q: tuple
    P1: tuple
    P2: tuple
    F1: MarkovFunction
    F2: MarkovFunction
    G1: MarkovFunction
    G2: MarkovFunction
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
    F1, F2, G1, G2 = (app.markov[t] for t in _CHAINS[problem])

    def qval(t):
        return peval(Q, t)

    R1 = F1.weighted(qval, "R1")
    return PadeSolution(
        n=n, problem=problem, Q=Q,
        P1=polynomial_part(Q, F1), P2=polynomial_part(Q, F2),
        F1=F1, F2=F2, G1=G1, G2=G2,
        R1=R1, R2=F2.weighted(qval, "R2"), R3=G1.weighted(R1, "R3"))


@dataclass(frozen=True)
class OrderCertificate:
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
    conditions plus the equivalent form R1 G1 - R2 = R3.

    Series run to depth 2n + 2, the order needed to see the O(1/z**(n+1))
    condition through the series products.  Each condition's residual is
    its worst offending coefficient over the scale (at least 1) of the
    series it came from.
    """
    n = sol.n
    depth = 2 * n + 2
    sQ = PowerTail.from_poly(sol.Q)
    sP1 = PowerTail.from_poly(sol.P1)
    sP2 = PowerTail.from_poly(sol.P2)
    checks = []

    def judge(name, diff: PowerTail, lo_power: int, scale):
        checks.append((name, diff.max_abs_through(lo_power) / max(1, scale)))

    # one moment stream per remainder; every expansion of it is a prefix
    m1, m2, m3 = (R.moments(max(depth, n + 1))
                  for R in (sol.R1, sol.R2, sol.R3))
    r1, r2, r3 = (PowerTail.from_moment_stream(m[:depth])
                  for m in (m1, m2, m3))
    r3_lead = PowerTail.from_moment_stream(m3[:n + 1])

    f1 = sol.F1.series(depth)
    d1 = sQ * f1 - sP1 - r1
    judge("Q F1 - P1 = R1 (series)", d1, -depth + n + 1,
          (sQ * f1).max_abs_all())
    judge("R1 = O(1/z)", r1, 0, r1.max_abs_all())

    f2 = sol.F2.series(depth)
    d2 = sQ * f2 - sP2 - r2
    judge("Q F2 - P2 = R2 (series)", d2, -depth + n + 1,
          (sQ * f2).max_abs_all())
    judge("R2 = O(1/z)", r2, 0, r2.max_abs_all())

    g1 = sol.G1.series(depth)
    g2 = sol.G2.series(depth)
    third = sQ * g2 - sP1 * g1 + sP2
    judge(f"Q G2 - P1 G1 + P2 = O(1/z^{n + 1})", third, -n,
          (sQ * g2).max_abs_all())

    r1g1 = r1 * g1
    judge("R1 G1 - R2 = R3 (series)", r1g1 - r2 - r3, -depth + n + 2,
          r1g1.max_abs_all())
    judge(f"R3 = O(1/z^{n + 1})", r3_lead, -n, r3_lead.max_abs_all())
    return OrderCertificate(n, sol.problem, tuple(checks))


# -- auxiliary vectors -----------------------------------------------------------


@dataclass(frozen=True)
class AuxVectors:
    """Values of the main and auxiliary vectors on the degrees needed by the
    extended identities at level n: q-side entries 0..n+1 at w, p-side
    entries 0..n+1 at z, hatted q-side entries 0..n."""
    n: int
    w: object
    z: object
    q: tuple        # q[a][j]
    p: tuple        # p[b][j]
    phat: tuple     # phat[b][j]
    qhat: tuple     # qhat[a][j]


@dataclass(frozen=True)
class PointBackend:
    """Values at one point s: finite Stieltjes sums over the atoms, exact
    at rational s; a pole raises PoleEvaluationError."""
    s: object

    def poly(self, coeffs):
        return peval(coeffs, self.s)

    def transform(self, app: Apparatus, which: str, g, reflected: bool):
        tag = f"{which}{'*' if reflected else ''}[weighted]"
        return _weighted(getattr(app, which), g, reflected, tag)(self.s)


@dataclass(frozen=True)
class SeriesBackend:
    """Expansions at infinity as PowerTails, known through z**(-depth)."""
    depth: int

    def poly(self, coeffs):
        return PowerTail.from_poly(coeffs)

    def transform(self, app: Apparatus, which: str, g, reflected: bool):
        return _weighted(getattr(app, which), g, reflected).series(self.depth)


def aux_columns(app: Apparatus, side: str, top: int, backend):
    """The three auxiliary columns of one side for degrees 0..top, and
    their hatted form, as values of ``backend``.

    side "q": q*_j, its transform against db, and the transform against
    da* of that first transform; hatted qhat_j = -q_j/eta*_j +
    q_{j+1}/eta*_{j+1} for j < top.  side "p": the same with p_j, da and
    db*; hatted phat_j = -sum_{i<=j} eta*_i p_i - (0, 1, W_beta_star) for
    j <= top.  The second transform weights each reflected atom -t by the
    first transform at -t.  Returns (cols, hatted), each indexed
    [component][degree].
    """
    fam = app.family
    if side == "q":
        first, second = "beta", "alpha"
        polys = [fam.q_star(j) for j in range(top + 1)]
    else:
        first, second = "alpha", "beta"
        polys = fam.p_monic[: top + 1]
    cols = ([], [], [])
    for P in polys:
        def poly(t, P=P):
            return peval(P, t)
        inner = _weighted(getattr(app, first), poly, tag=f"{first}[weighted]")
        cols[0].append(backend.poly(P))
        cols[1].append(backend.transform(app, first, poly, False))
        cols[2].append(backend.transform(app, second, inner, True))
    es = [fam.eta_star(j) for j in range(top + 1)]
    if side == "q":
        hatted = tuple(tuple(-c[j] / es[j] + c[j + 1] / es[j + 1]
                             for j in range(top)) for c in cols)
    else:
        shifts = (backend.poly(()), backend.poly((1,)),
                  backend.transform(app, "beta", lambda t: 1, True))
        hatted = tuple(tuple(-acc - k for acc in
                             accumulate(e * v for e, v in zip(es, c)))
                       for c, k in zip(cols, shifts))
    return tuple(map(tuple, cols)), hatted


def aux_vectors(app: Apparatus, n: int, w, z) -> AuxVectors:
    if not 0 <= n <= app.N - 1:
        raise OrderUnderflowError(f"aux window needs 0 <= n <= {app.N - 1}")
    q_all, qhat = aux_columns(app, "q", n + 1, PointBackend(w))
    p_all, phat = aux_columns(app, "p", n + 1, PointBackend(z))
    return AuxVectors(n, w, z, q_all, p_all, phat, qhat)


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
    """The constant matrix of the hatted extended identity."""
    F = f_matrix(app, w, z)
    W = app.markov
    zero = Fraction(0) if app.exact else 0.0
    W_bs_z = W["W_beta_star"](z)
    W_b_w = W["W_beta"](w)
    W_asb_w = W["W_alpha_star_beta"](w)
    C = ((zero, 1, W_bs_z),
         (zero, W_b_w, W_b_w * W_bs_z),
         (zero, W_asb_w, W_asb_w * W_bs_z))
    scale = (w + z) / app.beta_moment(0)
    return tuple(tuple(F[i][j] - scale * C[i][j] for j in range(3))
                 for i in range(3))


def ecd_residual(app: Apparatus, a: int, b: int, n: int, w, z,
                 aux: AuxVectors | None = None):
    """Residual of the plain extended identity for the (a, b) pair."""
    app.require_window(n)
    aux = aux or aux_vectors(app, n, w, z)
    return _cd_residual(app, n, w + z, aux.q[a], aux.p[b], aux.q[a],
                        aux.phat[b], -w, f_matrix(app, w, z)[a][b])


def ecd_hat_residual(app: Apparatus, a: int, b: int, n: int, w, z,
                     aux: AuxVectors | None = None):
    """Residual of the hatted extended identity for the (a, b) pair."""
    app.require_window(n)
    aux = aux or aux_vectors(app, n, w, z)
    return _cd_residual(app, n, w + z, aux.qhat[a], aux.phat[b], aux.q[a],
                        aux.phat[b], z, f_hat_matrix(app, w, z)[a][b])


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
