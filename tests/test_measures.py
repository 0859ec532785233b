import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import measures
from freeconv.errors import MassNotOne, NonPositiveWeight, OrderTooLarge
from freeconv.measures import (Measure, bernoulli_measure, from_density,
                               from_json_dict, make_atomic, moment_vector,
                               semicircle_measure)


def delta(x):
    return make_atomic([(x, 1.0)])


def random_atomic(rng, k_max=5):
    k = rng.integers(2, k_max + 1)
    pos = np.sort(rng.uniform(-5, 5, k))
    w = rng.dirichlet(np.ones(k))
    return make_atomic(list(zip(pos, w)))


# -- construction ------------------------------------------------------------

class TestMakeAtomic:
    def test_single_dirac(self):
        m = delta(0.0)
        assert m.mass() == pytest.approx(1.0)
        assert m.atom_positions.tolist() == [0.0]

    def test_bernoulli(self):
        m = make_atomic([(-1, 0.5), (1, 0.5)])
        assert m.atom_positions.tolist() == [-1.0, 1.0]
        assert m.atom_weights.tolist() == [0.5, 0.5]

    def test_unsorted_input_is_canonicalized(self):
        a = make_atomic([(1, 0.5), (-1, 0.5)])
        b = make_atomic([(-1, 0.5), (1, 0.5)])
        assert np.array_equal(a.atom_positions, b.atom_positions)
        assert np.array_equal(a.atom_weights, b.atom_weights)

    def test_coincident_atoms_merge(self):
        m = make_atomic([(0.5, 0.25), (0.5, 0.75)])
        assert m.atom_positions.size == 1
        assert m.atom_weights[0] == pytest.approx(1.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            make_atomic([(0, 1.5), (1, -0.5)])

    def test_mass_not_one_rejected(self):
        with pytest.raises(MassNotOne):
            make_atomic([(0, 0.4), (1, 0.4)])


class TestFromDensity:
    def test_normalize(self):
        xs = np.linspace(-1, 1, 101)
        m = from_density(xs, np.ones_like(xs), normalize=True)
        assert m.mass() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        xs = np.linspace(-1, 1, 101)
        with pytest.raises(MassNotOne):
            from_density(xs, np.ones_like(xs))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            Measure(grid=np.array([0.0, 1.0]), density=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("grid, dens", [([0.0, 0.5, 1.0], [1.0, np.nan, 1.0]),
                                            ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0]),
                                            ([0.0, 0.5, np.inf], [1.0, 1.0, 1.0])],
                             ids=["nan_density", "nan_grid", "inf_grid"])
    def test_non_finite_rejected(self, grid, dens):
        with pytest.raises(ValueError):
            Measure(grid=np.array(grid), density=np.array(dens))
        with pytest.raises(ValueError):
            from_density(grid, dens)


# -- functionals -------------------------------------------------------------

class TestMoment:
    def test_bernoulli_second(self):
        assert bernoulli_measure().moment(2) == pytest.approx(1.0)

    def test_dirac_zero(self):
        for k in (1, 3, 8):
            assert delta(0.0).moment(k) == 0.0

    def test_zeroth_is_mass(self):
        assert semicircle_measure(501).moment(0) == pytest.approx(1.0, abs=1e-9)

    def test_semicircle_fourth(self):
        m = semicircle_measure(2001)
        assert m.moment(4) == pytest.approx(2.0, abs=1e-4)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            bernoulli_measure().moment(65)


class TestAbsoluteMoment:
    def test_bernoulli_fractional(self):
        assert bernoulli_measure().absolute_moment(7.5) == pytest.approx(1.0)

    def test_dirac(self):
        assert delta(0.0).absolute_moment(3) == 0.0

    def test_semicircle_second_matches_moment(self):
        m = semicircle_measure(2001)
        assert m.absolute_moment(2) == pytest.approx(m.moment(2), abs=1e-12)
        # cross-check against doubled grid resolution
        fine = semicircle_measure(4001)
        assert m.absolute_moment(2) == pytest.approx(fine.absolute_moment(2),
                                                     abs=1e-4)


class TestTruncate:
    def test_inside_support_is_identity(self):
        m = bernoulli_measure()
        t = m.truncate(2.0)
        assert np.array_equal(t.atom_positions, m.atom_positions)
        assert np.array_equal(t.atom_weights, m.atom_weights)

    def test_all_mass_outside_goes_to_origin(self):
        t = bernoulli_measure().truncate(0.5)
        assert t.atom_positions.tolist() == [0.0]
        assert t.atom_weights[0] == pytest.approx(1.0)

    def test_partial(self):
        m = make_atomic([(-2, 0.5), (1, 0.5)])
        t = m.truncate(1.5)
        assert t.atom_positions.tolist() == [0.0, 1.0]
        assert t.atom_weights.tolist() == [0.5, 0.5]

    def test_density_clipped(self):
        m = semicircle_measure(2001)
        t = m.truncate(1.0)
        assert t.tail_mass(1.0) == pytest.approx(0.0, abs=1e-12)
        assert t.mass() == pytest.approx(1.0, abs=1e-9)


class TestCharacteristicFunction:
    def test_dirac_is_one(self):
        for t in (-3.0, 0.0, 7.2):
            assert delta(0.0).characteristic_function(t) == pytest.approx(1.0)

    def test_bernoulli_is_cosine(self):
        m = bernoulli_measure()
        for t in (0.3, 1.0, 4.5):
            assert m.characteristic_function(t) == pytest.approx(np.cos(t),
                                                                 abs=1e-12)

    def test_symmetric_measure_is_real(self):
        m = semicircle_measure(1001)
        assert abs(m.characteristic_function(2.7).imag) < 1e-12

    @given(st.floats(-20, 20))
    def test_modulus_bounded(self, t):
        m = make_atomic([(-2, 0.3), (0.5, 0.7)])
        assert abs(m.characteristic_function(t)) <= 1 + 1e-12


class TestDilate:
    def test_identity(self):
        m = bernoulli_measure()
        assert m.dilate(1.0) is m

    def test_bernoulli_halved(self):
        m = bernoulli_measure().dilate(2.0)
        assert m.atom_positions.tolist() == [-0.5, 0.5]

    def test_dirac(self):
        m = delta(3.0).dilate(3.0)
        assert m.atom_positions.tolist() == [1.0]

    def test_moment_scaling(self):
        m = semicircle_measure(1001)
        d = m.dilate(1.7)
        for k in range(1, 6):
            assert d.moment(k) == pytest.approx(m.moment(k) / 1.7**k,
                                                rel=1e-9, abs=1e-12)

    def test_round_trip_moments(self):
        m = make_atomic([(-1.5, 0.25), (0.2, 0.5), (2.0, 0.25)])
        back = m.dilate(2.3).dilate(1 / 2.3)
        for k in range(1, 9):
            assert back.moment(k) == pytest.approx(m.moment(k), rel=1e-8)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_measure().dilate(0.0)


class TestTailMass:
    def test_dirac(self):
        assert delta(0.0).tail_mass(1.0) == 0.0

    def test_bernoulli_inside(self):
        assert bernoulli_measure().tail_mass(0.5) == 1.0

    def test_bernoulli_outside(self):
        assert bernoulli_measure().tail_mass(2.0) == 0.0

    def test_chebyshev(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_atomic(rng)
            m = m.shift(-m.moment(1))
            for N in (0.5, 1.0, 3.0):
                assert m.tail_mass(N) <= m.moment(2) / N**2 + 1e-9

    def test_truncation_kills_tail(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_atomic(rng)
            for N in (0.5, 2.0):
                assert m.truncate(N).tail_mass(N) == pytest.approx(0.0,
                                                                   abs=1e-12)


class TestMassConservation:
    def test_transformers_conserve_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_atomic(rng)
            for t in (m.dilate(2.0), m.shift(0.7), m.truncate(1.3)):
                assert t.mass() == pytest.approx(1.0, abs=1e-9)
        sc = semicircle_measure(1001)
        for t in (sc.dilate(0.5), sc.shift(-1.0), sc.truncate(1.0)):
            assert t.mass() == pytest.approx(1.0, abs=1e-9)


def test_tail_vs_characteristic_inequality():
    # tail mass outside [-2/u, 2/u] bounded by (2/u) * int_0^u (1 - Re cf)
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_atomic(rng)
        for u in (0.1, 0.5, 1.0, 2.0):
            lhs = m.tail_mass(2.0 / u)
            ts = np.linspace(0.0, u, 1000)
            vals = 1.0 - np.array([m.characteristic_function(t).real
                                   for t in ts])
            rhs = (2.0 / u) * np.trapezoid(vals, ts)
            assert lhs <= rhs + 1e-9


# -- moment vectors and serialization ---------------------------------------

class TestMomentVector:
    def test_values(self):
        ms = moment_vector(bernoulli_measure(), 4)
        assert ms == pytest.approx([0.0, 1.0, 0.0, 1.0])

    def test_hankel_guard(self):
        # a hand-built "measure" with an impossible moment sequence cannot be
        # made through public constructors, so only the happy path is checked
        moment_vector(semicircle_measure(2001), 8)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            moment_vector(bernoulli_measure(), 100)


class TestJson:
    def test_round_trip_atomic(self):
        m = make_atomic([(-1, 0.5), (1, 0.5)])
        back = from_json_dict(m.to_json_dict())
        assert np.array_equal(back.atom_positions, m.atom_positions)

    def test_round_trip_density(self):
        m = semicircle_measure(101)
        back = from_json_dict(m.to_json_dict())
        assert np.allclose(back.grid, m.grid)
        assert np.allclose(back.density, m.density)

    def test_family_entry_resolves(self):
        m = from_json_dict({"family": {"name": "semicircle"}})
        assert m.moment(2) == pytest.approx(1.0, abs=1e-6)

    def test_load(self, tmp_path):
        path = tmp_path / "m.json"
        bernoulli_measure().dump(path)
        m = measures.load(path)
        assert m.atom_positions.tolist() == [-1.0, 1.0]


@settings(max_examples=30)
@given(st.floats(0.1, 10), st.floats(-3, 3))
def test_dilate_shift_mass(s, c):
    m = bernoulli_measure().dilate(s).shift(c)
    assert m.mass() == pytest.approx(1.0, abs=1e-9)
