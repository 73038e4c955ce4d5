from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchybop import PowerTail
from cauchybop.series import EXACT


def test_from_poly_is_exact():
    s = PowerTail.from_poly((F(1), F(0), F(3)))
    assert s.valid_lo == EXACT
    assert s.coeff(2) == 3 and s.coeff(1) == 0 and s.coeff(-100) == 0


def test_from_moment_stream_horizon():
    s = PowerTail.from_moment_stream([F(2), F(5)])
    assert s.coeff(-1) == 2 and s.coeff(-2) == 5
    with pytest.raises(ValueError):
        s.coeff(-3)                       # below the validity horizon
    assert s.valid_lo == -2


def test_addition_takes_worst_horizon():
    a = PowerTail.from_moment_stream([F(1)] * 5)     # known to z^-5
    b = PowerTail.from_moment_stream([F(1)] * 3)     # known to z^-3
    c = a + b
    assert c.coeff(-3) == 2
    with pytest.raises(ValueError):
        c.coeff(-4)


def test_multiplication_contamination_by_poly_degree():
    # (polynomial of degree d) * (tail known to z^-K) is known to z^(d-K)
    poly = PowerTail.from_poly((F(0), F(0), F(1)))   # z^2, exact
    tail = PowerTail.from_moment_stream([F(1), F(2), F(3), F(4)])  # to z^-4
    prod = poly * tail
    assert prod.coeff(1) == 1
    assert prod.coeff(-2) == 4
    with pytest.raises(ValueError):
        prod.coeff(-3)                    # contaminated by the cutoff
    assert prod.valid_lo == -2


def test_multiplication_of_two_tails():
    a = PowerTail.from_moment_stream([F(1), F(1)])   # 1/z + 1/z^2, lo -2
    b = PowerTail.from_moment_stream([F(1)])         # 1/z, lo -1
    c = a * b
    assert c.coeff(-2) == 1
    # error term of b sits at z^-2 and meets a's top power z^-1
    assert c.valid_lo == -2
    with pytest.raises(ValueError):
        c.coeff(-3)


def test_exact_times_exact_stays_exact():
    a = PowerTail.from_poly((F(1), F(1)))
    assert (a * a).valid_lo == EXACT
    assert (a * a).coeff(1) == 2


def test_pure_error_term_contaminates():
    # a tail with no known nonzero coefficients still carries its O() term
    silent = PowerTail.make({}, -3)                  # = O(z^-4)
    poly = PowerTail.from_poly((F(0), F(1)))         # z
    prod = silent * poly
    assert prod.valid_lo == -2                       # O(z^-3)


def test_is_big_o_certification():
    # O(z**-k) is max_abs_through(-k + 1) == 0
    r = PowerTail.from_moment_stream([F(0), F(0), F(7)])
    assert r.max_abs_through(-2) == 0
    assert r.max_abs_through(-3) == 7
    with pytest.raises(ValueError):
        # cannot certify deeper than the horizon
        PowerTail.from_moment_stream([F(0)]).max_abs_through(-2)


def test_scale_shift_neg():
    s = PowerTail.from_moment_stream([F(1), F(2)])
    assert (-s).coeff(-1) == -1
    assert s.scale(F(3)).coeff(-2) == 6
    # multiplying by z**2 is the product with an exact monomial
    z2 = s * PowerTail.from_poly((F(0), F(0), F(1)))
    assert z2.coeff(1) == 1 and z2.valid_lo == 0
    assert s.scale(0).coeffs == ()


def test_leading_and_zero_through():
    s = PowerTail.make({3: F(0), 1: F(5), -1: F(2)}, valid_lo=-2)
    assert s.coeffs[0] == (1, 5)
    assert s._eff_top() == 1              # above the error term at z**-3
    assert PowerTail.make({}, -2)._eff_top() == -3
    assert PowerTail.make({})._eff_top() == EXACT
    assert s.max_abs_through(-1) == 5
    assert PowerTail.make({-3: F(1)}).max_abs_through(-2) == 0
    with pytest.raises(ValueError):
        s.max_abs_through(-3)             # below the validity horizon
    assert s.max_abs_all() == 5


def full_product(a: PowerTail, b: PowerTail) -> dict:
    """Every coefficient of a * b, the ones below its horizon included."""
    out = {}
    for p, c in a.coeffs:
        for q, d in b.coeffs:
            out[p + q] = out.get(p + q, 0) + c * d
    return out


def tiny_to_large(min_exponent, max_exponent):
    """Floats m * 10**e, whose products and quotients can underflow to 0."""
    return st.builds(lambda m, e: m * 10.0 ** e,
                     st.floats(min_value=-1e3, max_value=1e3),
                     st.integers(min_exponent, max_exponent))


@st.composite
def tails(draw):
    """A PowerTail with powers -8..4, rational or float coefficients (floats
    down to 1e-200 in magnitude), exact or known down to a horizon."""
    coeff = draw(st.sampled_from((
        st.fractions(min_value=-50, max_value=50, max_denominator=9),
        st.floats(min_value=-1e3, max_value=1e3),
        tiny_to_large(-200, 0))))
    coeffs = draw(st.dictionaries(st.integers(-8, 4), coeff, max_size=8))
    return PowerTail.make(coeffs, draw(st.just(EXACT) | st.integers(-9, 0)))


@settings(max_examples=200, deadline=None)
@given(tails(), tails())
def test_product_stops_at_horizon_like_full_product_truncated(a, b):
    prod = a * b
    assert prod == PowerTail.make(full_product(a, b), prod.valid_lo)


def assert_shape(t: PowerTail):
    powers = [p for p, _ in t.coeffs]
    assert all(p > q for p, q in zip(powers, powers[1:])), t
    assert all(c != 0 for _, c in t.coeffs), t
    assert all(p >= t.valid_lo for p in powers), t


@settings(max_examples=200, deadline=None)
@given(tails(), tails(),
       st.fractions(min_value=-50, max_value=50, max_denominator=9)
       .filter(bool) | tiny_to_large(-200, 200).filter(bool))
@example(PowerTail.from_moment_stream([1e-200, 2.0]), PowerTail.make({}),
         1e-200)                          # the scale underflows to 0.0
def test_every_result_has_descending_nonzero_known_coefficients(a, b, s):
    for t in (a + b, a - b, -a, a.scale(s), s * a, a / s, a * b):
        assert_shape(t)
