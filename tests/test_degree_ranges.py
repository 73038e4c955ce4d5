"""One judge per degree range: every degree-indexed reader of an apparatus
refuses a degree outside its range through ``Apparatus.require_window``,
with its one message, and answers for every degree inside it."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybop import OrderUnderflowError
from cauchybop.cdkernel import commutator_block
from cauchybop.nikishin import aux_vectors, pade_solve
from cauchybop.rhp import assemble_gamma
from cauchybop.zeros import charpoly_identity_residual, zeros_of

N = 5       # the degree of the app6 fixture

#: reader -> (lowest n, highest n, call at n)
RANGES = {
    "pade_solve": (0, N, lambda app, n: pade_solve(app, n, "q")),
    "aux_vectors": (0, N - 1,
                    lambda app, n: aux_vectors(app, n, F(30), F(-30))),
    "zeros_of": (0, N, lambda app, n: zeros_of(app, "p", n)),
    "charpoly_identity_residual": (
        1, N, lambda app, n: charpoly_identity_residual(app, "q", n, F(1, 3))),
    "commutator_block": (2, N - 1,
                         lambda app, n: commutator_block(app, n, F(1, 2))),
    "assemble_gamma": (2, N - 1, lambda app, n: assemble_gamma(app, n, F(30))),
}


@settings(max_examples=60, deadline=None)
@given(reader=st.sampled_from(sorted(RANGES)), n=st.integers(-2, N + 2))
def test_each_reader_refuses_exactly_outside_its_range(app6, reader, n):
    assert app6.N == N
    lo, hi, call = RANGES[reader]
    if lo <= n <= hi:
        call(app6, n)
        return
    message = f"order underflow: need {lo} <= n <= {hi}, got {n}"
    with pytest.raises(OrderUnderflowError, match=f"^{re.escape(message)}$"):
        call(app6, n)
