from fractions import Fraction as F

import pytest

from cauchybop import PowerTail


def test_from_poly_is_exact():
    s = PowerTail.from_poly((F(1), F(0), F(3)))
    assert s.valid_lo is None
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
    assert (a * a).valid_lo is None
    assert (a * a).coeff(1) == 2


def test_pure_error_term_contaminates():
    # a tail with no known nonzero coefficients still carries its O() term
    silent = PowerTail.zero(valid_lo=-3)             # = O(z^-4)
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
    assert s.leading() == (1, 5)
    assert s.top_power() == 1
    assert s.max_abs_through(-1) == 5
    assert PowerTail.make({-3: F(1)}, None).max_abs_through(-2) == 0
    with pytest.raises(ValueError):
        s.max_abs_through(-3)             # below the validity horizon
    assert s.max_abs_all() == 5
