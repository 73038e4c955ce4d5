import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybop import (Atom, DensityMeasure, DiscreteMeasure,
                       InvalidDensityError, PrecisionExhaustedError,
                       discretize, markov, measure_from_strings, moment)
from cauchybop import scalars


def test_moment_single_atom_powers_of_one():
    m = measure_from_strings([("1", "1")])
    assert moment(m, 7) == 1


def test_moment_two_atoms():
    m = measure_from_strings([("1", "1"), ("2", "1")])
    assert moment(m, 2) == 5
    assert moment(m, 0) == 2


def test_moment_is_exact_rational():
    m = measure_from_strings([("0.1", "0.3"), ("2.5", "1")])
    # decimal strings parse exactly: 0.3*0.1 + 1*2.5
    assert moment(m, 1) == Fraction(3, 100) + Fraction(5, 2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 8),
                          st.integers(1, 9), st.integers(1, 7)),
                min_size=1, max_size=5),
       st.integers(0, 6))
def test_reflect_negates_exactly_odd_moments(raw, j):
    atoms = {}
    for pn, pd, wn, wd in raw:
        atoms[Fraction(pn, pd)] = Fraction(wn, wd)
    m = DiscreteMeasure(tuple(Atom(p, w) for p, w in atoms.items()))
    # the reflected measure m* exists only inside the Markov transforms
    assert markov(m, m, "W_alpha_star").moment(j) == (-1) ** j * moment(m, j)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        Atom(Fraction(0), Fraction(1))        # 0 is never an atom
    with pytest.raises(ValueError):
        DiscreteMeasure(())
    with pytest.raises(ValueError):
        DiscreteMeasure((Atom(1, 1), Atom(1, 2)))


def test_discretize_two_node_rule_on_unit_interval():
    m = DensityMeasure(support=(0.0, 1.0), density=lambda x: 1.0, order=2)
    d = discretize(m)
    lo, hi = sorted(a.position for a in d.atoms)
    assert math.isclose(lo, 0.5 - 0.5 / math.sqrt(3), rel_tol=1e-14)
    assert math.isclose(hi, 0.5 + 0.5 / math.sqrt(3), rel_tol=1e-14)
    assert all(math.isclose(a.weight, 0.5, rel_tol=1e-14) for a in d.atoms)


@pytest.mark.parametrize("order", [1, 3, 8])
def test_discretize_total_mass_exact_for_constant_density(order):
    m = DensityMeasure(support=(0.0, 1.0), density=lambda x: 1.0, order=order)
    assert math.isclose(discretize(m).total_mass(), 1.0, rel_tol=1e-14)


def test_discretize_exponential_density_mass():
    m = DensityMeasure(support=(0.0, 4.0), potential=[0.0, 1.0], order=64)
    mass = discretize(m).total_mass()
    exact = 1.0 - math.exp(-4.0)
    assert abs(mass - exact) / exact < 1e-12


def test_discretize_preserves_positivity_and_rejects_bad_density():
    m = DensityMeasure(support=(1.0, 2.0), density=lambda x: x - 1.5, order=8)
    with pytest.raises(InvalidDensityError):
        discretize(m)
    ok = DensityMeasure(support=(1.0, 2.0), density=lambda x: x, order=8)
    assert all(a.weight > 0 for a in discretize(ok).atoms)


def test_density_measure_validation():
    with pytest.raises(ValueError):
        DensityMeasure(support=(-1.0, 1.0), density=lambda x: 1.0)
    with pytest.raises(ValueError):
        DensityMeasure(support=(0.0, 1.0))           # neither density nor potential
    with pytest.raises(ValueError):
        DensityMeasure(support=(0.0, 1.0), density=lambda x: 1.0, order=0)


def test_precision_guard_trips_and_restores(monkeypatch):
    m = measure_from_strings([("1.234567890123456789", "1")])
    with monkeypatch.context() as patch:
        patch.setattr(scalars, "_MAX_BITS", 64)
        with pytest.raises(PrecisionExhaustedError):
            moment(m, 40)
    assert moment(m, 40) > 0
