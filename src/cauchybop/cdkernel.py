"""Christoffel-Darboux identities through the 3x3 commutator block.

With Pi_n the projector onto indices 0..n-1 the plain and hatted kernels
satisfy

    (x + y) sum_{j<n} q_j(y) p_j(x)         = q^T(y) B_n(-y) phat(x)
    (x + y) sum_{j<n} qhat_j(y) phat_j(x)   = q^T(y) B_n(x)  phat(x)

where B_n(s) = [Pi, (-s - Y^T) Lhat] has exactly four nonzero entries,
sitting in rows n-1..n+1 and columns n-2..n:

    row n-1:  (0,              0,                         Ahat[n-1][n])
    row n:    (-Ahat[n][n-2],  s/eta_n - Ahat[n][n-1],    0)
    row n+1:  (0,              -Ahat[n+1][n-1],           0)

The block is a function of (n, s), returned by :func:`commutator_block`.
The identities are evaluated through it acting on 3-windows, so the
semi-infinite projector is never materialized and truncation error is
exactly zero.  These two and the extended pair in ``nikishin`` all read
(w+z) sum_{j<n} u_j(w) v_j(z) = q^T(w) B_n(s) phat(z) - C and share one
evaluator, :func:`_cd_residual`, which returns |lhs - rhs| / max(1, |lhs|,
|rhs|): zero exactly when the identity holds.  The block is cross-checked
against the commutator, formed only where [Pi_n, .] can be nonzero.  All
arithmetic happens in the rescaled biorthonormal frame, where both sides
are rational.  The plain and hatted identities read q*_k(y) and p_k(x),
kept once per point (``app.point_values``), and form qhat_k(y) and
phat_k(x) from them by ``transforms.hatted_combination``, as the auxiliary
columns do; the hatted triangles (``recurrence.build_hatted``) go unread.
"""

from __future__ import annotations

from .bundle import Apparatus
from .polys import peval
from .scalars import residual
from .transforms import hatted_combination


def commutator_block(app: Apparatus, n: int, s):
    """The 3x3 block of [Pi_n, (-s - Y^T) Lhat] at s, from the four Ahat
    entries: rows n-1..n+1 and columns n-2..n of the ambient operator.
    Needs 2 <= n <= N-1."""
    app.require_window(n)
    Ah = app.Ahat
    zero = 0 * Ah[0, 0]
    return ((zero, zero, Ah[n - 1, n]),
            # s * (1/eta), not s/eta: float residuals read these bits
            (-Ah[n, n - 2], -Ah[n, n - 1] + s * (1 / app.family.eta_star(n)),
             zero),
            (zero, -Ah[n + 1, n - 1], zero))


def verify_block_against_dense(app: Apparatus, n: int, s):
    """Worst disagreement of the 4-entry block with [Pi_n, (-s - Y^T)
    Lhat] over the block scale, on the rows and columns below
    ``app.cap + 2`` <= N + 1, the window the defect ladder trusts: the
    whole stored truncation when exact.  Both vanish unless exactly one of
    i, j is below n, so only those crossing entries are formed."""
    block = commutator_block(app, n, s)
    Y, Lh = app.Y.entries, app.Lhat.entries
    size = app.cap + 2
    cols = min(size, app.N)     # the shift in Lhat eats column N
    worst = 0
    for i in range(size):
        for j in range(n, cols) if i < n else range(min(n, cols)):
            v = sum((-s * (i == k) - Y[k][i]) * Lh[k][j]
                    for k in (j, j + 1)) * ((i < n) - (j < n))
            bi, bj = i - (n - 1), j - (n - 2)
            expected = block[bi][bj] if 0 <= bi < 3 and 0 <= bj < 3 else 0
            worst = max(worst, abs(v - expected))
    return worst / max(abs(v) for row in block for v in row)


def _window_terms(app: Apparatus, n: int, s, q_values, phat_values):
    """The nonzero terms of q-window . block(s) . phat-window."""
    block = commutator_block(app, n, s)
    return [q_values[n - 1 + i] * block[i][j] * phat_values[n - 2 + j]
            for i in range(3) if q_values[n - 1 + i] != 0
            for j in range(3) if block[i][j] != 0]


def _cd_residual(app: Apparatus, n: int, w_plus_z, u, v, q_values,
                 phat_values, s, constant):
    """Relative residual of (w+z) sum_{j<n} u_j v_j = q-window . B_n(s) .
    phat-window - constant."""
    lhs = w_plus_z * sum(u[j] * v[j] for j in range(n))
    rhs = sum(_window_terms(app, n, s, q_values, phat_values)) - constant
    return residual(lhs, rhs)


def _family_values(app: Apparatus, side: str, point):
    """p_k (side "p") or q*_k (side "q") at point for k <= N, kept whole."""
    fam, key = app.family, (side, type(point), point)   # 0.5 == 1/2 as keys
    if key not in app.point_values:
        app.point_values[key] = tuple([peval(fam.q_star(k) if side == "q"
                                             else fam.p_monic[k], point)
                                       for k in range(app.N + 1)])
    return app.point_values[key]


def _point_windows(app: Apparatus, n: int, x, y):
    """q*_k(y) for k <= n+1, p_k(x) for k <= n, eta*_k for k <= n+1, and
    phat_k(x) for k <= n, which ``transforms.hatted_combination`` forms
    from p and eta*."""
    app.require_window(n)
    p_values = _family_values(app, "p", x)[:n + 1]
    es = [app.family.eta_star(k) for k in range(n + 2)]
    return (_family_values(app, "q", y)[:n + 2], p_values, es,
            hatted_combination("p", es, p_values))


def cd_residual_plain(app: Apparatus, n: int, x, y):
    """Residual of the plain identity at (x, y); exactly zero in exact
    mode."""
    q_values, p_values, _, phat_values = _point_windows(app, n, x, y)
    return _cd_residual(app, n, x + y, q_values, p_values, q_values,
                        phat_values, -y, 0)


def cd_residual_hat(app: Apparatus, n: int, x, y):
    """Residual of the hatted identity at (x, y); same block, evaluated at
    s = x instead of s = -y."""
    q_values, _, es, phat_values = _point_windows(app, n, x, y)
    return _cd_residual(app, n, x + y, hatted_combination("q", es, q_values),
                        phat_values, q_values, phat_values, x, 0)
