import numpy as np
import pytest

from freeconv import idlaws, subordination, transforms
from freeconv.errors import FixedPointDiverged, NotCentered, NotUpperHalfPlane
from freeconv.measures import bernoulli_measure, make_atomic, semicircle_measure
from freeconv.subordination import (boundary_curve, inverse_Zn, pair_transform,
                                    power_transform, solve_pair_grid,
                                    solve_Zn_grid)
from freeconv.transforms import cauchy, voiculescu

SEMI = idlaws.semicircle()
NON_FINITE = pytest.mark.parametrize(
    "z", [complex(0.0, float("nan")), complex(0.0, float("inf")),
          complex(float("nan"), 1.0)], ids=["nan_imag", "inf_imag", "nan_real"])


def delta(x):
    return make_atomic([(x, 1.0)])


def pair_at(m1, m2, z):
    """(Z1, Z2) of the pair solver at z, with Z2 = z - Z1 + F1(Z1)."""
    Z1, g1 = solve_pair_grid(m1, m2, z)
    return Z1, z - Z1 + 1.0 / g1


def semicircle_power_G(n, z):
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z - 2 * np.sqrt(n)) * np.sqrt(z + 2 * np.sqrt(n))
    return (z - s) / (2 * n)


class TestSolveZn:
    def test_n1_is_identity(self):
        for z in (1j, 2 + 0.5j):
            assert solve_Zn_grid(bernoulli_measure(), 1, z)[0] == z

    def test_dirac_is_identity(self):
        for n in (2, 7):
            Zn, _, _ = solve_Zn_grid(delta(0.0), n, 1 + 2j)
            assert Zn == pytest.approx(1 + 2j, abs=1e-10)

    def test_semicircle_n2_at_i(self):
        Zn, _, g = solve_Zn_grid(SEMI, 2, 1j)
        assert Zn == pytest.approx(1.5j, abs=1e-10)
        assert abs(1j - 2 * Zn + 1.0 / g) < 1e-10

    def test_result_invariants(self):
        for z in (0.3 + 0.2j, -2 + 1j, 5j):
            for n in (2, 10):
                Zn, _, g = solve_Zn_grid(bernoulli_measure(), n, z)
                assert Zn.imag >= z.imag - 1e-10
                assert abs(z - n * Zn + (n - 1) / g) < 1e-10 * max(1, abs(Zn))

    def test_divergence_reports_last_iterate(self, monkeypatch):
        monkeypatch.setattr(subordination, "MAX_ITER", 3)
        with pytest.raises(FixedPointDiverged) as exc:
            solve_Zn_grid(bernoulli_measure(), 50, 1j)
        assert exc.value.last_iterate is not None

    def test_leaving_the_half_plane_is_reported(self):
        # 1/(z - 5i) is no Cauchy transform: F(z) = z - 5i lies below z
        pole = transforms.Evaluator(lambda z: 1.0 / (z - 5j),
                                    lambda z: (1.0 / (z - 5j), -1.0 / (z - 5j) ** 2))
        z = np.linspace(-1.0, 1.0, 6).reshape(2, 3) + 1j
        with pytest.raises(FixedPointDiverged,
                           match="^iterate left the guaranteed half plane$") as exc:
            solve_Zn_grid(pole, 4, z)
        assert exc.value.last_iterate.shape == z.shape

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NotUpperHalfPlane):
            solve_Zn_grid(bernoulli_measure(), 2, 1 - 1j)

    @NON_FINITE
    def test_rejects_non_finite(self, z):
        with pytest.raises(NotUpperHalfPlane):
            solve_Zn_grid(bernoulli_measure(), 4, z)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            solve_Zn_grid(bernoulli_measure(), 0, np.array(1j))


def _nan_prime(m):
    """m as an Evaluator whose G' is NaN, so every Newton update is NaN and
    each step is the guarded fallback; the list records the size of every
    G' call."""
    calls = []
    G = transforms.as_evaluator(m).G

    def G_with_prime(z):
        calls.append(np.size(z))
        return G(z), np.full(np.shape(z), np.nan + 0j)

    return transforms.Evaluator(G, G_with_prime), calls


class TestNewton:
    Z = np.linspace(-4, 4, 201) + 0.01j

    @pytest.mark.parametrize("m, n", [(bernoulli_measure().dilate(64), 4096),
                                      (semicircle_measure(101).dilate(2), 4)],
                             ids=["bernoulli4096", "semicircle4"])
    def test_Zn_independent_of_batch(self, m, n):
        Zn, _, _ = solve_Zn_grid(m, n, self.Z, tol=1e-9)
        for i in range(0, self.Z.size, 10):
            alone, _, _ = solve_Zn_grid(m, n, self.Z[i:i + 1], tol=1e-9)
            assert alone[0] == Zn[i]

    def test_pair_independent_of_batch(self):
        m1, m2 = semicircle_measure(201), make_atomic([(-0.5, 0.8), (2.0, 0.2)])
        Z1, g1 = solve_pair_grid(m1, m2, self.Z)
        for i in range(0, self.Z.size, 10):
            a1, b1 = solve_pair_grid(m1, m2, self.Z[i:i + 1])
            assert a1[0] == Z1[i] and b1[0] == g1[i]

    def test_large_n_converges_fast(self):
        # the self-map contracts at rate about 1 - 2/n: ~700 steps here
        m, n = bernoulli_measure().dilate(64), 4096
        z = np.linspace(-4, 4, 2001) + 0.01j
        Zn, its, g = solve_Zn_grid(m, n, z, tol=1e-9)
        assert its <= 12
        assert np.max(np.abs(z - n * Zn + (n - 1) / g)) <= 1e-10

    def test_Zn_fallback_without_derivative(self):
        m = bernoulli_measure()
        source, calls = _nan_prime(m)
        for z in (0.3 + 0.2j, -2 + 1j, 5j):
            want, want_its, _ = solve_Zn_grid(m, 8, z)
            calls.clear()
            got, got_its, _ = solve_Zn_grid(source, 8, z)
            assert got == pytest.approx(want, abs=1e-10)
            # one NaN G' per iterate, and the self-map is slower than Newton
            assert len(calls) == got_its > want_its

    def test_pair_fallback_without_derivative(self):
        m1 = bernoulli_measure()
        m2 = make_atomic([(-0.5, 0.25), (0.0, 0.5), (1.0, 0.25)])
        (s1, calls1), (s2, calls2) = _nan_prime(m1), _nan_prime(m2)
        for z in (0.3 + 0.8j, 1j, -1 + 0.1j):
            w1, w2 = pair_at(m1, m2, z)
            calls1.clear()
            calls2.clear()
            Z1, Z2 = pair_at(s1, s2, z)
            assert Z1 == pytest.approx(w1, abs=1e-10)
            assert Z2 == pytest.approx(w2, abs=1e-10)
            # both NaN derivatives are taken at every iterate
            assert len(calls1) == len(calls2) > 1

    def test_Zn_one_kernel_pass_per_iterate(self, monkeypatch):
        m, n = semicircle_measure(101).dilate(2), 4
        calls = {"measure_cauchy": [], "measure_cauchy_with_prime": []}

        def recorded(fn, seen):
            def call(m, z):
                seen.append(z)
                return fn(m, z)
            return call

        for name, seen in calls.items():
            monkeypatch.setattr(transforms, name, recorded(getattr(transforms, name), seen))
        Zn, its, _ = solve_Zn_grid(m, n, self.Z, tol=1e-9)
        assert its > 1
        assert len(calls["measure_cauchy_with_prime"]) == its
        [final] = calls["measure_cauchy"]
        assert np.array_equal(final, Zn)

    def test_power_transform_one_solve_per_point_array(self, monkeypatch):
        solved = []
        solve = subordination._subordinator

        def counted(G_with_prime, n, z, tol):
            solved.append(np.array(z))
            return solve(G_with_prime, n, z, tol)

        evaluated = {"measure_cauchy": [], "measure_cauchy_with_prime": []}

        def recorded(fn, seen):
            def call(m, z):
                seen.append(np.array(z).tobytes())
                return fn(m, z)
            return call

        monkeypatch.setattr(subordination, "_subordinator", counted)
        for name, seen in evaluated.items():
            monkeypatch.setattr(transforms, name, recorded(getattr(transforms, name), seen))
        voiculescu(power_transform(semicircle_measure(401), 2), 10j)
        assert len(solved) == 3
        assert len({z.tobytes() for z in solved}) == 3
        # G at Z_n comes from the one (G, G') pass there, not a second pass
        assert not set(evaluated["measure_cauchy"]) & set(evaluated["measure_cauchy_with_prime"])

    def test_divergence_reports_full_shape(self, monkeypatch):
        m = bernoulli_measure()
        z = (np.linspace(-3, 3, 12) + 0.01j).reshape(3, 4)
        monkeypatch.setattr(subordination, "MAX_ITER", 2)
        with pytest.raises(FixedPointDiverged) as exc:
            solve_Zn_grid(m, 4096, z)
        assert exc.value.last_iterate.shape == z.shape
        with pytest.raises(FixedPointDiverged) as exc:
            solve_pair_grid(m, m, z)
        Z1, Z2 = exc.value.last_iterate
        assert Z1.shape == z.shape and Z2.shape == z.shape


def _counted(m):
    """m as an Evaluator that records the size of every (G, G') call: one
    per solver iteration."""
    calls = []
    e = transforms.as_evaluator(m)

    def G_with_prime(z):
        calls.append(np.size(z))
        return e.G_with_prime(z)

    return transforms.Evaluator(e.G, G_with_prime), calls


class TestStart:
    """The solvers' start is an initial guess: a start at the solution
    stops at once, and a start does not couple the points."""

    Z = np.linspace(-4, 4, 201) + 0.01j
    POWER = (bernoulli_measure().dilate(8), 64)
    PAIR = (semicircle_measure(201), make_atomic([(-0.5, 0.8), (2.0, 0.2)]))

    def test_Zn_start_at_solution(self):
        m, n = self.POWER
        Zn, cold, _ = solve_Zn_grid(m, n, self.Z, tol=1e-9)
        again, its, _ = solve_Zn_grid(m, n, self.Z, tol=1e-9, start=Zn)
        assert cold > 2 and its <= 2
        assert np.max(np.abs(again - Zn) / np.abs(Zn)) < 1e-9

    def test_pair_start_at_solution(self):
        m1, m2 = self.PAIR
        Z1, _ = solve_pair_grid(m1, m2, self.Z)
        counted, calls = _counted(m1)
        again, _ = solve_pair_grid(counted, m2, self.Z, start=Z1)
        assert len(calls) <= 2
        assert np.max(np.abs(again - Z1) / np.abs(Z1)) < 1e-11

    @pytest.mark.parametrize("bad", [lambda z: z.real + 0j, lambda z: z.conj(),
                                     lambda z: z[:-1], lambda z: z[:, None]],
                             ids=["real", "lower", "short", "column"])
    def test_bad_start_refused(self, bad):
        m, n = self.POWER
        start = bad(self.Z + 1j)
        error = ValueError if np.all(start.imag > 0) else NotUpperHalfPlane
        with pytest.raises(error):
            solve_Zn_grid(m, n, self.Z, start=start)
        with pytest.raises(error):
            solve_pair_grid(*self.PAIR, self.Z, start=start)

    def test_Zn_independent_of_batch(self):
        m, n = self.POWER
        start, _, _ = solve_Zn_grid(m, n, self.Z + 0.01j, tol=1e-9)
        Zn, _, _ = solve_Zn_grid(m, n, self.Z, tol=1e-9, start=start)
        for i in range(0, self.Z.size, 10):
            alone, _, _ = solve_Zn_grid(m, n, self.Z[i:i + 1], tol=1e-9,
                                        start=start[i:i + 1])
            assert alone[0] == Zn[i]

    def test_pair_independent_of_batch(self):
        m1, m2 = self.PAIR
        start, _ = solve_pair_grid(m1, m2, self.Z + 0.01j)
        Z1, g1 = solve_pair_grid(m1, m2, self.Z, start=start)
        for i in range(0, self.Z.size, 10):
            a1, b1 = solve_pair_grid(m1, m2, self.Z[i:i + 1], start=start[i:i + 1])
            assert a1[0] == Z1[i] and b1[0] == g1[i]


class TestMassIdentity:
    @pytest.mark.parametrize("m", [bernoulli_measure(), semicircle_measure(2001)],
                             ids=["bernoulli", "semicircle"])
    @pytest.mark.parametrize("n", [2, 16])
    def test_tau_mass_limit(self, m, n):
        # -Re[iy (Z_n(iy) - iy + (n-1) m1)] approaches (n-1) * variance
        m1, var = m.moment(1), m.variance()
        for y in (1e3, 1e4):
            Zn, _, _ = solve_Zn_grid(m, n, 1j * y)
            got = -np.real(1j * y * (Zn - 1j * y + (n - 1) * m1))
            assert got == pytest.approx((n - 1) * var, rel=10 / y)


class TestPowerCauchy:
    def test_n1_is_cauchy(self):
        m = bernoulli_measure()
        assert cauchy(power_transform(m, 1), 2j) == pytest.approx(cauchy(m, 2j))

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("y", [1.0, 3.0])
    def test_semicircle_power_closed_form(self, n, y):
        got = cauchy(power_transform(SEMI, n), 1j * y)
        assert got == pytest.approx(semicircle_power_G(n, 1j * y), abs=1e-8)

    def test_bernoulli_square_is_arcsine(self):
        got = cauchy(power_transform(bernoulli_measure(), 2), 1j)
        assert got == pytest.approx(-1j / np.sqrt(5), abs=1e-8)

    @pytest.mark.parametrize("n", [2, 8])
    def test_no_mass_beyond_support_radius(self, n):
        # sigma(R) = variance = 1 and support radius R = 1 for Bernoulli
        m = bernoulli_measure()
        x = 4.0 * (n - 1) * (1 + 1) * (1 + 1)
        for sign in (1, -1):
            g = cauchy(power_transform(m, n), sign * x + 1e-6j)
            assert abs(g.imag) < 1e-6


class TestSolvePair:
    def test_symmetric_pair_matches_power(self):
        m = bernoulli_measure()
        for z in (1j, 0.7 + 0.4j):
            Z1, Z2 = pair_at(m, m, z)
            Zn, _, _ = solve_Zn_grid(m, 2, z)
            assert Z1 == pytest.approx(Zn, abs=1e-9)
            assert Z2 == pytest.approx(Zn, abs=1e-9)
            # G' = G1'(Z1) F2'(Z2) / (F1' + F2' - F1' F2') is 1/(2 - F') here
            got = pair_transform(m, m).G_with_prime(z)
            want = power_transform(m, 2).G_with_prime(z)
            assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("pair", ["bernoulli_semicircle401", "two_point_bernoulli",
                                      "two_point_semicircle"])
    def test_voiculescu_additivity(self, pair):
        two_point = make_atomic([(-0.5, 0.8), (2.0, 0.2)])
        a, b = {"bernoulli_semicircle401": (bernoulli_measure(), semicircle_measure(401)),
                "two_point_bernoulli": (two_point, bernoulli_measure()),
                "two_point_semicircle": (two_point, SEMI)}[pair]
        law = pair_transform(a, b)
        for y in (10.0, 20.0, 50.0, 100.0):
            got = voiculescu(law, 1j * y)
            assert abs(got - voiculescu(a, 1j * y) - voiculescu(b, 1j * y)) < 1e-6

    def test_dirac_shifts(self):
        m = semicircle_measure(501)
        a = 0.8
        for z in (2j, 1 + 1j):
            Z1, Z2 = pair_at(delta(a), m, z)
            assert Z2 == pytest.approx(z - a, abs=1e-9)

    def test_two_diracs(self):
        Z1, Z2 = pair_at(delta(0.0), delta(0.0), 0.5 + 2j)
        assert Z1 == pytest.approx(0.5 + 2j, abs=1e-10)
        assert Z2 == pytest.approx(0.5 + 2j, abs=1e-10)

    def test_defining_relations_hold(self):
        from freeconv.transforms import reciprocal_cauchy
        m1 = bernoulli_measure()
        m2 = make_atomic([(-0.5, 0.25), (0.0, 0.5), (1.0, 0.25)])
        z = 0.3 + 0.8j
        Z1, Z2 = pair_at(m1, m2, z)
        F1 = reciprocal_cauchy(m1, Z1)
        F2 = reciprocal_cauchy(m2, Z2)
        assert abs(z - (Z1 + Z2 - F1)) < 1e-9
        assert abs(F1 - F2) < 1e-9
        assert Z1.imag >= z.imag - 1e-10 and Z2.imag >= z.imag - 1e-10

    @NON_FINITE
    def test_rejects_non_finite(self, z):
        with pytest.raises(NotUpperHalfPlane):
            solve_pair_grid(bernoulli_measure(), bernoulli_measure(), z)

    def test_stops_at_the_rounding_floor(self):
        # Z2 = z - Z1 + F1(Z1) cancels terms of size 100 next to the pole of
        # F2 at 1.2, so |F1 - F2| floors near eps |Z1| |F2'(Z2)|, about 1e-10
        b1 = make_atomic([(0.0, 0.7), (1.0, 0.3)])
        b2 = make_atomic([(0.0, 0.6), (2.0, 0.4)])
        Z1, Z2 = pair_at(b1, b2, 1.505 + 5e-3j)
        assert Z1 == pytest.approx(-74.2936001195 + 75.0064001192j, abs=1e-8)
        assert Z2 == pytest.approx(1.2063998805 + 0.0064001195j, abs=1e-8)

    def test_divergence_reports_last_iterate(self, monkeypatch):
        monkeypatch.setattr(subordination, "MAX_ITER", 1)
        with pytest.raises(FixedPointDiverged) as exc:
            solve_pair_grid(bernoulli_measure(), bernoulli_measure(), 1j)
        Z1, Z2 = exc.value.last_iterate
        assert np.ndim(Z1) == 0 and np.ndim(Z2) == 0
        assert Z1.imag > 1.0 and Z2.imag > 1.0

    def test_pair_cauchy_bernoulli_square(self):
        got = cauchy(pair_transform(bernoulli_measure(), bernoulli_measure()), 1j)
        assert got == pytest.approx(-1j / np.sqrt(5), abs=1e-8)


class TestInverseZn:
    def test_dirac(self):
        for n in (2, 5):
            assert inverse_Zn(delta(0.0), n, 1 + 1j) == pytest.approx(1 + 1j)

    def test_bernoulli_closed_form(self):
        for z in (2j, 1 + 1j):
            assert inverse_Zn(bernoulli_measure(), 2, z) == pytest.approx(
                z + 1 / z, abs=1e-12)

    @pytest.mark.parametrize("m", [bernoulli_measure(), semicircle_measure(2001)],
                             ids=["bernoulli", "semicircle"])
    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("z", [1j, 1 + 2j])
    def test_composition(self, m, n, z):
        Zn, _, _ = solve_Zn_grid(m, n, z)
        assert inverse_Zn(m, n, Zn) == pytest.approx(z, abs=1e-8)


class TestBoundaryCurve:
    def test_dirac_is_zero(self):
        assert boundary_curve(delta(0.0), 4, 0.3) == 0.0

    def test_bernoulli_closed_form(self):
        for n in (5, 50):
            for x in np.linspace(-np.sqrt(n - 1) + 1e-3, np.sqrt(n - 1) - 1e-3, 11):
                got = boundary_curve(bernoulli_measure(), n, x)
                assert got == pytest.approx(np.sqrt(n - 1 - x * x), abs=1e-8)

    def test_bernoulli_outside_root(self):
        n = 5
        for x in (2.1, -3.0, 10.0):
            assert boundary_curve(bernoulli_measure(), n, x) == 0.0

    def test_bounded_by_total_sigma_mass(self):
        m = make_atomic([(-1.5, 0.25), (0.0, 0.5), (1.5, 0.25)])
        n = 10
        xs = np.linspace(-4, 4, 21)
        ys = boundary_curve(m, n, xs)
        assert np.all(ys < np.sqrt(m.moment(2) * (n - 1)))

    def test_requires_centered(self):
        with pytest.raises(NotCentered):
            boundary_curve(delta(1.0), 3, 0.0)

    @pytest.mark.parametrize("x", [[0.0, np.nan], [np.inf, 0.0], -np.inf],
                             ids=["nan", "inf", "scalar_inf"])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            boundary_curve(bernoulli_measure(), 5, x)

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_semicircle_grid_matches_closed_form(self, n):
        # reference: the same root, bisected on the closed-form semicircle F
        G, _ = idlaws.family_transform(SEMI)
        xs = np.linspace(-np.sqrt(n) - 1, np.sqrt(n) + 1, 101)
        lo, hi = np.zeros(xs.shape), np.full(xs.shape, np.sqrt(n - 1.0))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            above = (n - 1) * np.imag(1.0 / G(xs + 1j * mid)) > n * mid
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        ref = np.where(lo > 0, 0.5 * (lo + hi), 0.0)
        got = boundary_curve(semicircle_measure(4001), n, xs)
        assert np.max(np.abs(got - ref)) < 1e-5

    @pytest.mark.parametrize("n", [4, 25])
    def test_subordination_image_stays_above_curve(self, n):
        m = bernoulli_measure()
        eps = 1e-6
        xs = np.linspace(-2 * np.sqrt(n), 2 * np.sqrt(n), 41)
        curve = boundary_curve(m, n, xs)
        Zn, _, _ = solve_Zn_grid(m, n, xs + 1j * eps)
        assert np.all(Zn.imag >= curve - 1e-3)
