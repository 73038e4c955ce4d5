"""The runner of the verify engine and the checks the subcommands share
with the suites.

:class:`Runner` times each computation a suite or a subcommand hands it
and judges what it returns: a bool verdict, or a residual within
``bundle.tolerance`` at the highest family degree it reads
(:meth:`Runner.run`).  Float degree windows come from the apparatus's one
degree cap (``app.cap``, by :func:`_windows`).  The subcommands of ``cli``
(``commands``) judge the identities they share with a suite of
``suites`` through the same check functions here: :func:`tp_certificate`,
:func:`check_shift`, :func:`check_unit_dets` and :func:`check_jump_slope`.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .bimoment import check_total_positivity, rank_one_shift_residual
from .bundle import Apparatus, tolerance
from .errors import PrecisionExhaustedError
from .rhp import assemble_gamma, assemble_gamma_hat, jump_slope_study
from .scalars import format_scalar


def _sample_points(measures, count: int):
    """Deterministic rational evaluation points off every pole set."""
    poles = {q for m in measures for p in m.positions() for q in (p, -p)}
    base = Fraction(int(max(poles)) + 2)
    pts = []
    k = 1
    while len(pts) < count:
        for cand in (base + Fraction(k, 7), -base - Fraction(k, 7),
                     Fraction(k, 11)):
            if cand not in poles and cand != 0 and len(pts) < count:
                pts.append(cand)
        k += 1
    return pts


class Runner:
    def __init__(self, ladder):     # the defect ladder; None when exact
        self.ladder = ladder
        self.mode = "exact" if ladder is None else "float"
        self.checks = []

    def _push(self, name, status, mag, elapsed):
        self.checks.append({
            "name": name,
            "status": status,
            "residual": format_scalar(mag),
            "mode": self.mode,
            "elapsed": round(elapsed, 6),
        })

    def run(self, name, fn, degree: int = 0):
        """Time fn() and judge what it returns: a bool verdict, or a
        residual within ``tolerance(ladder, degree)``, degree being the
        highest family degree it reads: 0 (shift, product identity), n (D_n,
        Pade orders and rhp checks at n), n + 2 (recurrence, commutator, CD
        and duality at window n) or the window (rank-one, band supports).
        A callable name is called once fn has run."""
        t0 = time.perf_counter()
        residual = fn()
        elapsed = time.perf_counter() - t0
        if callable(name):
            name = name()
        if isinstance(residual, bool):
            ok, mag = residual, 0 if residual else 1
        else:
            mag = abs(residual)
            ok = mag <= tolerance(self.ladder, degree)
        self._push(name, "pass" if ok else "fail", mag, elapsed)
        return ok

    def skip(self, name: str, why: str):
        self._push(f"{name} [skipped: {why}]", "skip", 0, 0.0)

    @property
    def passed(self):
        return all(c["status"] != "fail" for c in self.checks)

    def report(self, suite: str, order: int):
        return {"suite": suite, "order": order, "mode": self.mode,
                "status": "pass" if self.passed else "fail",
                "checks": self.checks}


def _windows(r: Runner, app: Apparatus, degrees, name: str):
    """The degrees n a check can run at; past N - 1 or past the float
    degree cap it is listed as a skip of name.format(n), with the reason."""
    for n in degrees:
        if n > app.N - 1:
            r.skip(name.format(n), f"needs N >= {n + 1}")
        elif n > app.cap:
            r.skip(name.format(n), "float conditioning")
        else:
            yield n


# -- checks the subcommands share ---------------------------------------------------


def tp_certificate(I, kmax: int | None):
    """The consecutive-minor certificate through kmax x kmax (default 6,
    clipped to the order of I) and a float minor floor (not a residual)."""
    kmax = min(kmax or 6, I.order)
    if I.exact:
        return check_total_positivity(I, kmax)
    scale = max(abs(v) for row in I.entries for v in row)
    try:
        tol = 1e-12 * (kmax * float(scale)) ** kmax
    except OverflowError:
        raise PrecisionExhaustedError(
            f"precision exhausted: {kmax}x{kmax} minors of float "
            f"bimoments as large as {float(scale):.3e} overflow") from None
    return check_total_positivity(I, kmax, tol=tol)


def check_shift(r: Runner, I, alpha, beta) -> bool:
    """Judge the rank-one shift identity, relative to the largest bimoment."""
    def shift():
        res = rank_one_shift_residual(I, alpha, beta)
        scale = max(1, *(abs(v) for row in I.entries for v in row))
        return max((abs(v) for row in res for v in row), default=0) / scale
    return r.run("rank-one shift identity on bimoments", shift)


def check_unit_dets(r: Runner, app: Apparatus, n: int, point):
    """Judge det = 1 of Gamma and Gammahat at point; returns both."""
    matrices = []
    for assemble, name in ((assemble_gamma, "det Gamma(w={}) = 1"),
                           (assemble_gamma_hat, "det Gammahat(z={}) = 1")):
        def unit_det():
            matrices.append(assemble(app, n, point))
            return matrices[-1].determinant - 1
        r.run(name.format(point), unit_det, n)
    return matrices


def check_jump_slope(r: Runner, app: Apparatus, n: int, eps_list):
    """Judge that the jump residual at w0, the middle of supp(db), falls
    linearly in eps (a slope, no residual); returns (w0, residuals, slope)."""
    w0 = sum(app.beta_density.support) / 2.0
    study = None

    def jump():
        nonlocal study
        study = jump_slope_study(app, n, w0, eps_list)
        return 0.5 <= study[1] <= 2.0
    r.run(lambda: f"jump residual slope {study[1]:.3f} within factor 2 of "
          "linear", jump)
    return (w0, *study)
