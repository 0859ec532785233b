"""Inversion-free oracles: exact moments from free cumulants.

Free cumulants add under free convolution, kappa_k(mu boxplus nu) =
kappa_k(mu) + kappa_k(nu), so kappa_k(mu^{boxplus n}) = n kappa_k(mu), and the
dilation x -> x/s scales kappa_k by s^-k (Nica & Speicher, Lectures on the
Combinatorics of Free Probability, 2006, Lectures 11-12).  With
moments_to_cumulants and cumulants_to_moments this gives the exact moments of
every power and pair of atomic laws, against which

* the CDF tables of power_cdf and pair_cdf are checked up to order 4, at
  bounds today's Stieltjes inversion meets (the tables overshoot mass 1
  before their clip, which moves their moments by up to several percent);
* the solvers are checked without any inversion, through the Laurent series
  G(z) = sum_k m_k z^(-k-1) at |z| = 30.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv.bench import pair_cdf, power_cdf
from freeconv.inversion import measure_to_cdf
from freeconv.measures import bernoulli_measure, make_atomic
from freeconv.ncpart import cumulants_to_moments, moments_to_cumulants
from freeconv.subordination import pair_cauchy, power_cauchy

# bounds on |table moment - exact moment| / sd^k, k = 1..4 (sd of the
# convolved law), that today's tables meet on 300 random draws of the laws
# below.  A pair with an atom (two atoms weighing more than 1 together) has
# it off the grid's nodes, where inversion smears it, hence its own bound.
POWER_MOMENT_BOUND = np.array([3e-2, 4e-2, 0.15, 0.3])
PAIR_MOMENT_BOUND = np.array([8e-2, 0.1, 0.25, 0.5])
PAIR_ATOM_MOMENT_BOUND = np.array([0.4, 0.45, 1.2, 2.5])


def table_moments(table, K=4):
    """Moments m_1..m_K of the law a CdfTable describes exactly: a jump of
    F(x+) - F(x-) at each node and a uniform density between neighbouring
    nodes, where the table's F is linear."""
    xs, right, left = table.xs, table.values, table.left_limits
    jumps = right - left
    cells = left[1:] - right[:-1]
    x0, x1 = xs[:-1], xs[1:]
    return np.array([np.sum(jumps * xs**k)
                     + np.sum(cells * (x1**(k + 1) - x0**(k + 1)) / ((k + 1) * (x1 - x0)))
                     for k in range(1, K + 1)])


def cumulants(m, K):
    return np.array(moments_to_cumulants([m.moment(k) for k in range(1, K + 1)]))


def power_moments(m, n, K=4, s=1.0):
    """Exact m_1..m_K of mu^{boxplus n} dilated by x -> x/s."""
    k = np.arange(1, K + 1)
    return np.array(cumulants_to_moments(n * cumulants(m, K) * s ** -k))


def pair_moments(a, b, K=4):
    return np.array(cumulants_to_moments(cumulants(a, K) + cumulants(b, K)))


def _standardized(atoms):
    x = np.array([p for p, _ in atoms], dtype=float)
    w = np.array([v for _, v in atoms])
    w = w / w.sum()
    x = x - w @ x
    return make_atomic(list(zip(x / np.sqrt(w @ x**2), w)))


def standard_laws(min_atoms, max_atoms):
    """Atomic laws of mean 0 and variance 1: distinct atoms drawn from the
    integers in [-6, 6], weights drawn from [1, 4], then standardized.  No
    atom lies farther than 1/sqrt(min weight) < 4.2 from the mean."""
    return st.lists(st.tuples(st.integers(-6, 6), st.floats(1.0, 4.0)),
                    min_size=min_atoms, max_size=max_atoms,
                    unique_by=lambda atom: atom[0]).map(_standardized)


class TestTableMoments:
    def test_helper_is_exact_on_atoms(self):
        m = make_atomic([(-1.0, 0.25), (0.5, 0.5), (2.0, 0.25)])
        want = [m.moment(k) for k in range(1, 5)]
        assert table_moments(measure_to_cdf(m)) == pytest.approx(want, rel=1e-14)

    # With at least three atoms and weights in [1, 4], no atom weighs more
    # than 2/3, so no power with n >= 4 has an atom (Belinschi-Bercovici).
    # The powers of mu dilated by sqrt(n) are supported in |x| < 3 on these
    # laws (measured through boundary_curve), well inside the grid.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(standard_laws(3, 5))
    def test_power_cdf(self, mu):
        xs = np.linspace(-6.0, 6.0, 2001)
        for n in (4, 16, 64):
            table = power_cdf(mu.dilate(np.sqrt(n)), n, xs)
            err = np.abs(table_moments(table) - power_moments(mu, n, s=np.sqrt(n)))
            assert np.all(err < POWER_MOMENT_BOUND), (n, err)

    # the support of a boxplus b lies in [min a + min b, max a + max b]
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(standard_laws(2, 4), standard_laws(2, 4))
    def test_pair_cdf(self, a, b):
        lo = a.atom_positions[0] + b.atom_positions[0]
        hi = a.atom_positions[-1] + b.atom_positions[-1]
        table = pair_cdf(a, b, np.linspace(lo - 1.0, hi + 1.0, 2001))
        want = pair_moments(a, b)
        err = np.abs(table_moments(table) - want) / np.sqrt(want[1]) ** np.arange(1, 5)
        atom = a.atom_weights.max() + b.atom_weights.max() > 1.0
        assert np.all(err < (PAIR_ATOM_MOMENT_BOUND if atom else PAIR_MOMENT_BOUND)), err

    def test_two_point_pair(self):
        # the pair_mixed benchmark's part (b): atoms at 0 and 2 by the atom theorem
        b1 = make_atomic([(0.0, 0.7), (1.0, 0.3)])
        b2 = make_atomic([(0.0, 0.6), (2.0, 0.4)])
        got = table_moments(pair_cdf(b1, b2, np.linspace(-2.0, 5.0, 701)))
        want = pair_moments(b1, b2)
        assert want[0] == pytest.approx(1.1, rel=1e-15)
        assert abs(got[0] - want[0]) < 1.5e-2       # 1.0857 today
        assert np.all(np.abs(got / want - 1.0) < 4e-2)


LAURENT_K = 30
FIVE_ATOMS = _standardized([(-6, 1.5), (-2, 2.5), (1, 3.0), (4, 2.0), (8, 1.0)])
ZS = 30.0 * np.exp(1j * np.array([0.05, 0.7, 1.5707963, 2.4, 3.1]))


def laurent(moments, z):
    """sum_{k <= LAURENT_K} m_k z^(-k-1), with m_0 = 1."""
    m = np.concatenate(([1.0], moments))
    return np.sum(m[:, None] / z ** np.arange(1, m.size + 1)[:, None], axis=0)


class TestLaurentSeries:
    """At |z| = 30 the series truncated after m_30 is exact to rounding: the
    supports below lie within |x| < 8.2 (the power n = 16), and
    (8.2/30)^31 < 1e-17."""

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_power_cauchy(self, n):
        want = laurent(power_moments(FIVE_ATOMS, n, LAURENT_K), ZS)
        got = power_cauchy(FIVE_ATOMS, n, ZS)
        assert np.max(np.abs(got / want - 1.0)) < 1e-13

    @pytest.mark.parametrize("pair", ["two_point", "five_atoms_bernoulli"])
    def test_pair_cauchy(self, pair):
        a, b = {"two_point": (make_atomic([(0.0, 0.7), (1.0, 0.3)]),
                              make_atomic([(0.0, 0.6), (2.0, 0.4)])),
                "five_atoms_bernoulli": (FIVE_ATOMS, bernoulli_measure())}[pair]
        want = laurent(pair_moments(a, b, LAURENT_K), ZS)
        got = pair_cauchy(a, b, ZS)
        assert np.max(np.abs(got / want - 1.0)) < 1e-13
