"""Dense polynomial helpers over generic scalars.

Coefficients are stored lowest power first (``coeffs[k]`` multiplies
``x**k``) in plain tuples, so the same routines serve Fractions, floats and
complex values.  Nothing here knows about measures or pairings.
"""

from __future__ import annotations


def peval(coeffs, x):
    """Horner evaluation."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def psub(a, b):
    n = max(len(a), len(b))
    return tuple([(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
                  for k in range(n)])


def pscale(a, s):
    return tuple([c * s for c in a])


def preflect(a):
    """p(x) -> p(-x)."""
    return tuple([c if k % 2 == 0 else -c for k, c in enumerate(a)])
