"""Assembly and verification of the 3x3 boundary-value matrices.

Two matrices are assembled from windows of the auxiliary vectors:

* Gamma(w), built from the q-chain: rows are (scaled) windows of
  (qhat_{n-1}, q_{n-1}, qhat_{n-2}) across the three auxiliary columns.
  It is analytic off supp(db) and the reflected supp(da*), has unit
  determinant, jumps by an upper-triangular factor with entry
  -2 pi i db/dw across supp(db) (and the analogous (2,3) factor across
  supp(da*)), and behaves like (1 + O(1/w)) diag(w^n, w^-1, w^(-n+1)) at
  infinity.

* Gammahat(z), built from the p-chain windows (p_n, phat_{n-1}, p_{n-1}),
  with diag(z^n, 1, z^-n) asymptotics.

Each matrix has one row combiner, fed by ``transforms.aux_columns`` with
point values, series at infinity or :class:`DensityBackend` values.  The
expansion at infinity of either matrix, keyed by ``which``, comes from
:func:`series_at_infinity`; :func:`asymptotic_check` and
:func:`extract_constants` read it, and the rhp suite builds Gamma's once
for both.
Every entry is a square-root-free combination of monic data, so at
rational points of discrete-rational input the matrices are exactly
rational and det = 1 is asserted as literal equality.

A normalization note, pinned by exact computation (see the tests): with
the customary third-row prefactor sign (-1)**(n-1), det Gamma = -1
identically; the sign used here is (-1)**n, which restores det = +1 and
the stated diagonal asymptotics.  Assembly takes one route, the recovery
form; the second route (normalization prefactor times raw windows)
lives in the tests, as the oracle of an exact route-agreement test.

Jump verification on density-backed measures evaluates Gamma(w0 + i eps)
and Gamma(w0 - i eps) by a singularity-aware Cauchy transform on the
density's one rule (``measure.cauchy_transform_density`` on
``DensityMeasure.rule``, which ``discretize`` reads too): the integrand
is split at x0 = Re w into a subtracted part (smooth, handled by the
rule) plus the exactly integrated log term F(x0)
(log(w-a) - log(w-b)), whose complex branch carries the principal value
and the +-i pi density term on the two sides of the cut; the reflected cut
uses -T(g(-y), -w), so one log branch serves both cuts.
The residual Gamma_+ - Gamma_- J(w0) is then O(eps) up to quadrature
error, and is expected to fall linearly as eps shrinks.  Its control
experiment off the cuts, where Gamma_+ - Gamma_- itself shrinks with eps,
is read from :func:`boundary_matrix` in the tests.

numpy and cmath are imported only by the density-backed float code (the
split Cauchy transform and the slope fit); assembly at a point, in either
lane, never loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bimoment import det
from .bundle import Apparatus
from .measure import DensityMeasure, cauchy_transform_density
from .scalars import guard_precision, is_exact
from .transforms import PointBackend, SeriesBackend, aux_columns


class RHMatrix(NamedTuple):
    entries: tuple          # 3x3
    determinant: object


# -- assembly from exact window values ------------------------------------------


def _combine_gamma_rows(app: Apparatus, n: int, q, qhat):
    """Rows of Gamma from the q-side columns at j = n-2, n-1 (scalars or
    series alike).

    row 1 = eta~_n qhat_{a,n-1}; row 2 = q_{a,n-1}/eta*_{n-1};
    row 3 = (-1)^n eta*_{n-2} qhat_{a,n-2}.
    """
    fam = app.family
    return (
        tuple([fam.eta_monic[n] * qhat[a][n - 1] for a in range(3)]),
        tuple([q[a][n - 1] / fam.eta_star(n - 1) for a in range(3)]),
        tuple([(-1) ** n * fam.eta_star(n - 2) * qhat[a][n - 2]
               for a in range(3)]),
    )


def _combine_gamma_hat_rows(app: Apparatus, n: int, p, phat):
    """Rows of Gammahat from p[b][j], phat[b][j] at j = n-1, n."""
    fam = app.family
    return (
        tuple([p[b][n] for b in range(3)]),
        tuple([-phat[b][n - 1] for b in range(3)]),
        tuple([(-1) ** n * p[b][n - 1] / fam.h[n - 1] for b in range(3)]),
    )


#: which -> (aux side, row combiner, lowest n); the highest n is N - 1
_MATRICES = {"gamma": ("q", _combine_gamma_rows, 2),
             "gamma_hat": ("p", _combine_gamma_hat_rows, 1)}


def _rows(app: Apparatus, which: str, n: int, backend):
    """Rows of Gamma or Gammahat at level n, as values of ``backend``."""
    side, combine, lo = _MATRICES[which]
    app.require_window(n, lo)
    return combine(app, n, *aux_columns(app, side, n, backend))


def _assemble(app: Apparatus, which: str, n: int, point) -> RHMatrix:
    """Gamma or Gammahat at point, with its determinant, which refuses a
    float entry that overflowed (p_n at a point far out)."""
    rows = _rows(app, which, n, PointBackend(point))
    return RHMatrix(rows, det(rows, app.exact and is_exact(point)))


def assemble_gamma(app: Apparatus, n: int, w) -> RHMatrix:
    """Gamma(w) for discrete measures; w off supp(db) and supp(da*)."""
    return _assemble(app, "gamma", n, w)


def assemble_gamma_hat(app: Apparatus, n: int, z) -> RHMatrix:
    """Gammahat(z) for discrete measures; z off supp(da) and supp(db*)."""
    return _assemble(app, "gamma_hat", n, z)


# -- exact expansions at infinity -------------------------------------------------


def series_at_infinity(app: Apparatus, n: int, which: str = "gamma"):
    """3x3 grid of PowerTails for the expansion of Gamma or Gammahat at
    infinity, known through w**(-2n-4)."""
    return _rows(app, which, n, SeriesBackend(2 * n + 4))


class AsymptoticCertificate(NamedTuple):
    diag_powers: tuple
    residual: object           # worst offending coefficient / column scale
    failures: tuple            # (i, j, description)

    @property
    def passed(self) -> bool:
        return not self.failures


def asymptotic_check(app: Apparatus, n: int, which: str = "gamma",
                     grid=None) -> AsymptoticCertificate:
    """Entrywise power-law verification by series: the matrix equals
    (identity + O(1/w)) times diag(w**d_j), coefficient by coefficient.

    Every coefficient off its expected value is a failure; the residual is
    the worst such difference over its column scale (at least 1), which
    float data (a discretized density) leaves as dust.  grid, if given,
    must be ``series_at_infinity(app, n, which)``.
    """
    if grid is None:
        grid = series_at_infinity(app, n, which)
    d = (n, -1, -n + 1) if which == "gamma" else (n, 0, -n)
    failures = []
    worst = 0
    for j in range(3):
        col_scale = max(1, *(abs(grid[i][j].coeff(d[j])) for i in range(3)))
        for i in range(3):
            s = grid[i][j]
            junk = [(p, c) for p, c in s.coeffs if p > d[j]]
            lead = s.coeff(d[j])
            expect = 1 if i == j else 0
            worst = max(worst, abs(lead - expect) / col_scale,
                        *(abs(c) / col_scale for _, c in junk))
            if junk:
                failures.append((i, j, f"grows like power {junk[0][0]} > {d[j]}"))
            elif lead != expect:
                failures.append((i, j,
                                 f"coefficient at power {d[j]} is {lead}, "
                                 f"expected {expect}"))
    return AsymptoticCertificate(d, worst, tuple(failures))


def extract_constants(app: Apparatus, n: int, grid=None):
    """(c_{n-1}**2, eta_{n-1}**2) recovered from the leading coefficients
    of the middle row of Gamma at infinity (1-based (2,1) and (2,3) entries,
    in assembly order); they must reproduce the family data exactly:
    c**2 = h_{n-1} and eta**2 = eta~_{n-1}**2 / h_{n-1}.  Growth above
    those powers is not judged here: :func:`asymptotic_check` judges it on
    the same grid.  grid, if given, must be
    ``series_at_infinity(app, n, "gamma")``.
    """
    if grid is None:
        grid = series_at_infinity(app, n)
    g21, g23 = grid[1][0], grid[1][2]
    a21 = g21.coeff(n - 1)
    a23 = g23.coeff(-n)
    if a21 == 0 or a23 == 0:
        raise ValueError("middle-row entries lack their leading powers "
                         f"{n - 1} and {-n}")
    sign = (-1) ** n
    c_sq = sign * a23 / a21
    eta_sq = 1 / (sign * a21 * a23)
    return c_sq, eta_sq


# -- boundary values and jumps ----------------------------------------------------


@dataclass(frozen=True)
class DensityBackend(PointBackend):
    """Values at a (possibly complex) point near either cut of
    density-backed measures, by the split Cauchy transform of the density
    of ``which`` times g; the discrete transform fn is not read.  g is
    read at the placed atom, so the reflected transform, with atoms at -y,
    is -T(g(-y), -s)."""
    alpha: DensityMeasure
    beta: DensityMeasure

    def transform(self, fn, which: str, g, reflected: bool):
        dm = getattr(self, which)
        if reflected:
            return -cauchy_transform_density(dm, lambda y: g(-y), -self.s)
        return cauchy_transform_density(dm, g, self.s)


def boundary_matrix(app: Apparatus, n: int, point, which: str = "gamma"):
    """Gamma or Gammahat at a complex point for density-backed input, with
    singularity-aware column evaluation."""
    if app.alpha_density is None or app.beta_density is None:
        raise ValueError("jump check requires density measure")
    return _rows(app, which, n, DensityBackend(point, app.alpha_density,
                                                app.beta_density))


def jump_matrix(app: Apparatus, w0: float, which: str = "gamma"):
    """The local jump factor at an interior point of one of the two cuts:
    the plain cut of db (Gamma) or da (Gammahat), and the reflected cut of
    the other measure."""
    if app.alpha_density is None or app.beta_density is None:
        raise ValueError("jump check requires density measure")
    plain, reflected = ((app.beta_density, app.alpha_density) if which == "gamma"
                        else (app.alpha_density, app.beta_density))
    J = [[1.0 + 0j, 0j, 0j], [0j, 1.0 + 0j, 0j], [0j, 0j, 1.0 + 0j]]
    if plain.support[0] < w0 < plain.support[1]:
        J[0][1] = -2j * math.pi * plain.density_at(w0)
    elif reflected.support[0] < -w0 < reflected.support[1]:
        J[1][2] = -2j * math.pi * reflected.density_at(-w0)
    else:
        raise ValueError(f"{w0} is not interior to either cut of {which}")
    return J


def jump_residual(app: Apparatus, n: int, w0: float, eps: float,
                  which: str = "gamma") -> float:
    """max |Gamma_+ - Gamma_- J(w0)| over entries, relative to the largest
    entry of Gamma_-, with Gamma(w0 +- i eps) evaluated by the split
    transform.  Expected O(eps) + quadrature error.

    Relative, because the absolute entry scale carries arbitrary row
    normalizations (1/h factors) that say nothing about the jump."""
    J = jump_matrix(app, w0, which)
    gp = boundary_matrix(app, n, complex(w0, eps), which)
    gm = boundary_matrix(app, n, complex(w0, -eps), which)
    scale = max(abs(gm[i][j]) for i in range(3) for j in range(3))
    worst = 0.0
    for i in range(3):
        for j in range(3):
            pred = sum(gm[i][k] * J[k][j] for k in range(3))
            diff = abs(gp[i][j] - pred)
            guard_precision(diff)       # max would read a nan as no residual
            worst = max(worst, diff)
    return worst / max(scale, 1.0)


def jump_slope_study(app: Apparatus, n: int, w0: float, eps_list,
                     which: str = "gamma"):
    """Residuals across an eps ladder plus the fitted log-log slope."""
    import numpy as np
    residuals = [jump_residual(app, n, w0, e, which) for e in eps_list]
    logs_e = np.log(np.array(eps_list, dtype=float))
    logs_r = np.log(np.maximum(np.array(residuals, dtype=float), 1e-300))
    slope = float(np.polyfit(logs_e, logs_r, 1)[0])
    return residuals, slope

