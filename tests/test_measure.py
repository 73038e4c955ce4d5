import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybop import (Atom, DensityMeasure, DiscreteMeasure,
                       InvalidDensityError, PrecisionExhaustedError,
                       discretize, markov, measure_from_strings)
from cauchybop import scalars
from cauchybop.measure import power_sums

from .conftest import term_by_term_power_sums


def test_moment_single_atom_powers_of_one():
    m = measure_from_strings([("1", "1")])
    assert power_sums(m.positions(), m.weights(), 8)[7] == 1


def test_moment_two_atoms():
    m = measure_from_strings([("1", "1"), ("2", "1")])
    assert power_sums(m.positions(), m.weights(), 3) == [2, 3, 5]


def test_moment_is_exact_rational():
    m = measure_from_strings([("0.1", "0.3"), ("2.5", "1")])
    # decimal strings parse exactly: 0.3*0.1 + 1*2.5
    assert power_sums(m.positions(), m.weights(), 2)[1] == \
        Fraction(3, 100) + Fraction(5, 2)


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
    assert markov(m, m, "W_alpha_star").moments(j + 1)[j] == \
        (-1) ** j * power_sums(m.positions(), m.weights(), j + 1)[j]


#: signed points and signed (or zero) weights, as ints or as Fractions
_EXACT_SCALARS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=40))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_EXACT_SCALARS, _EXACT_SCALARS), min_size=1,
                max_size=7), st.integers(0, 12))
def test_power_sums_match_plain_loops(atoms, depth):
    points, weights = (tuple(v) for v in zip(*atoms))
    # exact data: the plain Fraction double loop, one Fraction per sum
    sums = power_sums(points, weights, depth)
    assert sums == [sum((Fraction(w) * Fraction(t) ** j
                         for t, w in zip(points, weights)), Fraction(0))
                    for j in range(depth)]
    assert all(type(v) is Fraction for v in sums)
    # float data: the term-by-term w * t**j sum, bit for bit
    fp, fw = tuple(map(float, points)), tuple(map(float, weights))
    floats = power_sums(fp, fw, depth)
    assert [v.hex() for v in map(float, floats)] == \
        [v.hex() for v in map(float, term_by_term_power_sums(fp, fw, depth))]


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
    assert math.isclose(sum(discretize(m).weights()), 1.0, rel_tol=1e-14)


def test_discretize_exponential_density_mass():
    m = DensityMeasure(support=(0.0, 4.0), potential=[0.0, 1.0], order=64)
    mass = sum(discretize(m).weights())
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
            power_sums(m.positions(), m.weights(), 41)
    assert power_sums(m.positions(), m.weights(), 41)[40] > 0


def test_discretize_forms_the_rule_once(leggauss_calls):
    m = DensityMeasure(support=(0.5, 2.0), potential=[0.0, 1.0], order=16)
    assert discretize(m) == discretize(m)
    assert leggauss_calls == [16]


def test_discretize_refuses_a_bad_density_on_every_call(leggauss_calls):
    m = DensityMeasure(support=(1.0, 2.0), density=lambda x: x - 1.5, order=8)
    for _ in range(2):
        with pytest.raises(InvalidDensityError):
            discretize(m)
    assert leggauss_calls == [8, 8]      # a refused rule is not kept
