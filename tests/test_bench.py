import numpy as np
import pytest

from freeconv import bench, idlaws, transforms
from freeconv.bench import (ExperimentConfig, RateReport, fit_loglog_slope,
                            run_rate_experiment)
from freeconv.errors import FixedPointDiverged, NotNormalized, ScheduleTooShort
from freeconv.inversion import stieltjes_cdf
from freeconv.measures import bernoulli_measure, make_atomic, semicircle_measure
from freeconv.subordination import boundary_curve


class TestExperimentConfig:
    def test_n_values_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentConfig(bernoulli_measure(), (8, 4))
        with pytest.raises(ValueError):
            ExperimentConfig(bernoulli_measure(), (4,))
        for ns in ((0, 4, 8), (-2, 4, 8)):       # and must be positive
            with pytest.raises(ValueError):
                ExperimentConfig(bernoulli_measure(), ns)

    def test_grid_validation(self):
        for grid in ((-4, 4, 50), (4, -4, 201), (-4, float("nan"), 201),
                     (float("-inf"), 4, 201)):
            with pytest.raises(ValueError):
                ExperimentConfig(bernoulli_measure(), (2, 4), grid=grid)

    @pytest.mark.parametrize("ns, grid", [((2.5, 4), (-4, 4, 201)),
                                          ((True, 4), (-4, 4, 201)),
                                          ((2, 4), (-4, 4, 201.7))],
                             ids=["n_2.5", "n_true", "points_201.7"])
    def test_non_integers_are_refused(self, ns, grid):
        # int() would run n = 2, n = 1 and 201 points without a word
        with pytest.raises(ValueError, match="not an integer"):
            ExperimentConfig(bernoulli_measure(), ns, grid=grid)

    def test_numpy_integers_are_kept(self):
        cfg = ExperimentConfig(bernoulli_measure(), np.array([2, 4]),
                               grid=(-4, 4, np.int64(201)))
        assert cfg.n_values == (2, 4) and cfg.grid == (-4.0, 4.0, 201)
        assert all(type(v) is int for v in (*cfg.n_values, cfg.grid[2]))

    @pytest.mark.parametrize("eta", [(0.01,), (float("inf"), 0.01),
                                     (0.02, float("nan")), (0.01, 0.02),
                                     (0.02, 0.0)],
                             ids=["one_level", "inf", "nan", "increasing", "zero"])
    def test_eta_schedule_validation(self, eta):
        with pytest.raises(ScheduleTooShort):
            ExperimentConfig(bernoulli_measure(), (2, 4), eta_schedule=eta)


class TestFitSlope:
    def test_recovers_exact_power_law(self):
        ns = [4, 8, 16, 32]
        ds = [3.0 * n**-1.5 for n in ns]
        slope, stderr = fit_loglog_slope(ns, ds)
        assert slope == pytest.approx(-1.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)


class TestRateExperiment:
    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            run_rate_experiment(ExperimentConfig(make_atomic([(0.0, 1.0)]),
                                                 (2, 4)))
        skew = make_atomic([(-1.0, 0.3), (1.0, 0.7)])   # mean 0.4
        with pytest.raises(NotNormalized):
            run_rate_experiment(ExperimentConfig(skew, (2, 4)))

    def test_semicircle_input_stays_semicircle(self):
        # the scaled n-fold power of the semicircle is the semicircle itself,
        # so every row's distance is pure pipeline error
        cfg = ExperimentConfig(semicircle_measure(501), (2, 4),
                               grid=(-4, 4, 501), eta_schedule=(0.04, 0.02))
        report = run_rate_experiment(cfg)
        assert not report.failed
        assert all(d < 2e-2 for _, _, d in report.rows)

    def test_bernoulli_slope_and_report(self, tmp_path):
        out = tmp_path / "rates.csv"
        cfg = ExperimentConfig(bernoulli_measure(), (4, 8, 16, 32))
        report = run_rate_experiment(cfg)
        report.save(out)
        assert -1.3 < report.slope < -0.7
        assert all(0 <= d <= 1 for _, _, d in report.rows)
        assert [r[0] for r in report.rows] == [4, 8, 16, 32]
        # a_n = m3 / sqrt(n) = 0 for the symmetric input
        assert all(a == 0 for _, a, _ in report.rows)
        text = out.read_text()
        assert text.startswith("n,a_n,distance\n")
        assert "# slope = " in text and "# slope_stderr = " in text

    def test_deterministic(self):
        cfg = ExperimentConfig(bernoulli_measure(), (4, 8, 16))
        a = run_rate_experiment(cfg).to_csv()
        b = run_rate_experiment(cfg).to_csv()
        assert a == b

    @pytest.mark.parametrize("m, tables", [(bernoulli_measure(), 1),
                                           (make_atomic([(-2.0, 0.2), (0.5, 0.8)]), 4)],
                             ids=["bernoulli", "two_point"])
    def test_one_reference_per_a_n(self, monkeypatch, m, tables):
        # Bernoulli has m3 = 0, so a_n = 0 for every n: one w_0 table
        built, family_transform = [], idlaws.family_transform

        def counted(spec):
            built.append(spec)
            return family_transform(spec)

        monkeypatch.setattr(idlaws, "family_transform", counted)
        cfg = ExperimentConfig(m, (4, 8, 16, 32), grid=(-4, 4, 201))
        report = run_rate_experiment(cfg)
        assert len(built) == tables
        assert len({a for _, a, _ in report.rows}) == tables

    @pytest.mark.parametrize("ns", [(4, 8, 16), (4, 8)])
    def test_failed_row_is_reported(self, monkeypatch, ns):
        solve = bench.solve_Zn_grid

        def failing(source, n, z, **kwargs):
            if n == 8:
                raise FixedPointDiverged("boom")
            return solve(source, n, z, **kwargs)

        monkeypatch.setattr(bench, "solve_Zn_grid", failing)
        report = run_rate_experiment(
            ExperimentConfig(bernoulli_measure(), ns, grid=(-4, 4, 201)))
        assert report.failed == ((8, "boom"),)
        assert [n for n, _, _ in report.rows] == [n for n in ns if n != 8]
        assert "# failed n=8: boom\n" in report.to_csv()
        # one row left: no slope to fit
        assert np.isnan(report.slope) == np.isnan(report.slope_stderr) == (len(ns) == 2)

    def test_upper_envelope_constant(self):
        # distances stay below c / sqrt(n) with a small fitted constant
        cfg = ExperimentConfig(bernoulli_measure(), (4, 16, 64, 256))
        report = run_rate_experiment(cfg)
        c = max(d * np.sqrt(n) for n, _, d in report.rows)
        assert c < 10


def semicircle_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def kesten_mckay_cdf(x, n):
    """CDF of the n-fold free power of the +-1 Bernoulli law, scaled by
    1/sqrt(n): the Kesten-McKay law, density n sqrt(4(n-1) - y^2) /
    (2 pi (n^2 - y^2)) in y = sqrt(n) x, integrated in y = 2 sqrt(n-1) sin t."""
    t = np.arcsin(np.clip(x * np.sqrt(n) / (2.0 * np.sqrt(n - 1.0)), -1.0, 1.0))
    r = (n - 2.0) / n
    return 0.5 + n / (2.0 * np.pi) * (t - r * np.arctan(r * np.tan(t)))


class TestBernoulliRows:
    """Bernoulli rows against the closed-form Kesten-McKay-vs-semicircle
    distance on the same nodes (a_n = 0, so w_{a_n} is the semicircle)."""

    NS = tuple(2 ** k for k in range(2, 13))

    @pytest.fixture(scope="class")
    def rows(self):
        report = run_rate_experiment(ExperimentConfig(bernoulli_measure(), self.NS))
        assert [n for n, _, _ in report.rows] == list(self.NS)
        return {n: d for n, _, d in report.rows}

    def test_rows_match_kesten_mckay(self, rows):
        # the smoothed tables put every row 2.2% to 7.1% above the exact
        # distance; the bounds sit just above that
        xs = np.linspace(*bench.DEFAULT_GRID)
        for n, d in rows.items():
            exact = np.max(np.abs(kesten_mckay_cdf(xs, n) - semicircle_cdf(xs)))
            assert abs(d - exact) <= (0.075 if n == 4 else 0.05) * exact, n

    def test_one_over_n_constant(self, rows):
        # n d -> |kappa4 - kappa3^2| / (4 pi) = 1 / (4 pi) (Chistyakov and
        # Goetze, PTRF 2013); the rows read +2.8% and +3.7% off
        for n in (1024, 4096):
            assert n * rows[n] == pytest.approx(1.0 / (4.0 * np.pi), rel=0.05)


def wa_cdf(x, a):
    """CDF of w_a for 0 < |a| < 1, in x = a - 2 cos(theta): (2/pi)[sin(theta)/(2a)
    + (1 + a^2) theta/(4a^2) - (1 - a^2)/(2a^2) arctan((1 + a)/(1 - a) tan(theta/2))]."""
    th = np.arccos(np.clip((a - x) / 2.0, -1.0, 1.0))
    r = (1.0 + a) / (1.0 - a)
    return (2.0 / np.pi) * (np.sin(th) / (2.0 * a) + (1.0 + a * a) * th / (4.0 * a * a)
                            - (1.0 - a * a) / (2.0 * a * a) * np.arctan(r * np.tan(th / 2.0)))


def power_on_boundary(nu, n, u):
    """(x(u), F(x(u))) of the n-fold power of the atomic law nu, on the
    boundary curve w = u + i y_n(u): x = Re(n w - (n - 1)/G(w)) and
    F = 1 - [n sum_k w_k Arg(w - x_k) + (n - 1) Arg G(w)]/pi.  Where y_n = 0
    the arguments are taken from above the axis: pi left of an atom, and -pi
    where G < 0."""
    y = boundary_curve(nu, n, u)
    w = u + 1j * y
    with np.errstate(divide="ignore", invalid="ignore"):
        g = transforms.as_evaluator(nu).G(w)
        x = np.real(n * w - (n - 1) / g)
    above = y > 0
    arg_w = np.where(above[:, None], np.angle(w[:, None] - nu.atom_positions),
                     np.where(u[:, None] < nu.atom_positions, np.pi, 0.0))
    arg_g = np.where(above, np.angle(g), np.where(g.real < 0, -np.pi, 0.0))
    return x, 1.0 - (n * arg_w @ nu.atom_weights + (n - 1) * arg_g) / np.pi


def power_on_nodes(nu, n, xs):
    """(F(x-), F(x+)) of the n-fold power of nu at xs: x(u) = xs bisected in u
    to 1e-12 and F read at each end of the bracket, so that an atom at a node
    is read one-sided."""
    lo, hi = np.full(xs.size, -6.0), np.full(xs.size, 6.0)
    while np.max(hi - lo) > 1e-12:
        mid = 0.5 * (lo + hi)
        below = power_on_boundary(nu, n, mid)[0] < xs
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return power_on_boundary(nu, n, lo)[1], power_on_boundary(nu, n, hi)[1]


class TestTwoPointRows:
    """two_point rows against their exact on-node distance: the power's CDF
    read off its boundary curve, with no eta and no solver, against the
    closed-form CDF of w_{a_n}."""

    LAW = make_atomic([(-0.5, 0.8), (2.0, 0.2)])
    # the smoothed tables put the rows +1.83%, +2.04% and +0.32% above the
    # exact distance; the bounds sit just above that
    BOUNDS = {4: 0.02, 16: 0.025, 64: 0.005}

    @pytest.fixture(scope="class")
    def exact(self):
        xs = np.linspace(*bench.DEFAULT_GRID)
        out = {}
        for n in self.BOUNDS:
            left, right = power_on_nodes(self.LAW.dilate(np.sqrt(n)), n, xs)
            ref = wa_cdf(xs, self.LAW.moment(3) / np.sqrt(n))
            out[n] = left, right, max(np.max(np.abs(left - ref)), np.max(np.abs(right - ref)))
        return out

    def test_n4_distance(self, exact):
        # the n = 4 power has an atom of 4 * 0.8 - 3 = 0.2 at 4 * (-0.25) = -1,
        # node 750; the distance is the polynomial method's 0.16511196
        left, right, d = exact[4]
        assert np.flatnonzero(right - left > 1e-9).tolist() == [750]
        assert right[750] - left[750] == pytest.approx(0.2, abs=1e-9)
        assert d == pytest.approx(0.16511196, abs=1e-7)

    def test_rows_match_boundary_route(self, exact):
        report = run_rate_experiment(ExperimentConfig(self.LAW, tuple(self.BOUNDS)))
        assert [n for n, _, _ in report.rows] == list(self.BOUNDS)
        for n, _, d in report.rows:
            assert abs(d - exact[n][2]) <= self.BOUNDS[n] * exact[n][2], n


class TestCdfPipeline:
    """power_cdf and pair_cdf take G at the subordinator from the solver."""

    XS = np.linspace(-3.0, 3.0, 101)

    @staticmethod
    def _record(monkeypatch, solver):
        """Record every point array passed to G and every solved subordinator."""
        points, solved = [], []
        G, solve = transforms.measure_cauchy, getattr(bench, solver)

        def recorded_G(m, z):
            points.append(np.array(z))
            return G(m, z)

        def recorded_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            solved.append(out[0])
            return out

        monkeypatch.setattr(transforms, "measure_cauchy", recorded_G)
        monkeypatch.setattr(bench, solver, recorded_solve)
        return points, solved

    def test_power_cdf_evaluates_Zn_once(self, monkeypatch):
        points, solved = self._record(monkeypatch, "solve_Zn_grid")
        bench.power_cdf(semicircle_measure(101).dilate(2), 4, self.XS)
        assert solved
        for Zn in solved:
            assert sum(np.array_equal(p, Zn) for p in points) == 1

    def test_pair_cdf_evaluates_Z1_once(self, monkeypatch):
        points, solved = self._record(monkeypatch, "solve_pair_grid")
        bench.pair_cdf(semicircle_measure(101),
                       make_atomic([(-0.5, 0.8), (2.0, 0.2)]), self.XS)
        assert solved
        for Z1 in solved:
            assert sum(np.array_equal(p, Z1) for p in points) == 1


def _cold(solve):
    """The g of stieltjes_cdf that solves every eta level from z + i."""
    def g(z):
        return np.array([solve(row) for row in np.atleast_2d(z)]).reshape(np.shape(z))
    return g


def _lattice16():
    """A 16-atom law on [-2, 2]: a jittered lattice with near-equal weights."""
    rng = np.random.default_rng(11)
    x = np.linspace(-1.875, 1.875, 16) + rng.uniform(-0.1, 0.1, 16)
    return make_atomic(list(zip(x, rng.dirichlet(np.full(16, 50.0)))))


def _table_gap(a, b):
    return max(np.max(np.abs(a.values - b.values)),
               np.max(np.abs(a.left_limits - b.left_limits)))


class TestEtaLadder:
    """power_cdf and pair_cdf solve each eta level from the subordinator of
    the level above; the tables match cold per-level solves."""

    XS = np.linspace(-4.0, 4.0, 2001)

    @pytest.mark.parametrize("m", [bernoulli_measure(),
                                   make_atomic([(-0.5, 0.8), (2.0, 0.2)]),
                                   semicircle_measure(101)],
                             ids=["bernoulli", "two_point", "semicircle101"])
    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_power_matches_cold_starts(self, m, n):
        mu = m.dilate(np.sqrt(n))
        ladder = bench.power_cdf(mu, n, self.XS)
        cold = stieltjes_cdf(_cold(lambda z: bench.solve_Zn_grid(mu, n, z, tol=1e-9)[2]),
                             self.XS)
        assert _table_gap(ladder, cold) <= 1e-11

    @pytest.mark.parametrize("m1, m2, xs", [
        (semicircle_measure(201), _lattice16(), np.linspace(-6.0, 6.0, 401)),
        (make_atomic([(0.0, 0.7), (1.0, 0.3)]), make_atomic([(0.0, 0.6), (2.0, 0.4)]),
         np.linspace(-2.0, 5.0, 701))], ids=["semicircle201_atoms16", "b1_b2"])
    def test_pair_matches_cold_starts(self, m1, m2, xs):
        ladder = bench.pair_cdf(m1, m2, xs)
        cold = stieltjes_cdf(_cold(lambda z: bench.solve_pair_grid(m1, m2, z)[1]), xs)
        assert _table_gap(ladder, cold) <= 1e-13

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_coarse_power_matches_cold_starts(self, monkeypatch, n):
        # the rates_grid shape: on 201 nodes cells are refined at every
        # level, so the table's 1-d calls start from the ladder's rows
        warm = []
        solve = bench.solve_Zn_grid

        def recorded(source, n, z, tol, start=None):
            warm.append(start is not None)
            return solve(source, n, z, tol=tol, start=start)

        monkeypatch.setattr(bench, "solve_Zn_grid", recorded)
        mu = semicircle_measure(101).dilate(np.sqrt(n))
        xs = np.linspace(-4.0, 4.0, 201)
        ladder = bench.power_cdf(mu, n, xs)
        # three ladder rows, the first from z + i, then the refinements
        assert len(warm) > 3 and not warm[0] and all(warm[1:])
        cold = stieltjes_cdf(_cold(lambda z: solve(mu, n, z, tol=1e-9)[2]), xs)
        assert _table_gap(ladder, cold) <= 1e-11

    @staticmethod
    def _solve(z, start, mu=semicircle_measure(101).dilate(2.0)):
        Zn, _, g = bench.solve_Zn_grid(mu, 4, z, tol=1e-9, start=start)
        return Zn, g

    def test_other_calls_start_cold(self):
        # bit for bit the cold solve: a call before any row is solved
        solve = self._solve
        one_eta = np.linspace(-2.0, 2.0, 7) + 0.01j
        assert np.array_equal(bench._ladder(solve)(one_eta), solve(one_eta, None)[1])
        g = bench._ladder(solve)
        for eta in (0.04, 0.02, 0.01):
            g(np.linspace(-4.0, 4.0, 201) + 1j * eta)
        # one eta now starts from the row at 0.01, and stops elsewhere
        assert not np.array_equal(g(one_eta), solve(one_eta, None)[1])

    def test_only_rows_are_remembered(self):
        # a window at 2 eta = 0.02, no level of (0.03, 0.01), is not
        # remembered: a second window there starts from the row of the
        # nearest eta, not from the first window
        solve, xs = self._solve, np.linspace(-4.0, 4.0, 201)
        g = bench._ladder(solve)
        g(xs + 0.03j)
        g(xs + 0.01j)
        g(xs[50:60] + 0.02j)
        z = xs[140:150] + 0.02j
        got = g(z)
        rows = {0.03: solve(xs + 0.03j, None)[0]}
        rows[0.01] = solve(xs + 0.01j, rows[0.03])[0]
        Z = rows[min(rows, key=lambda e: abs(e - 0.02))]
        start = np.interp(z.real, xs, Z.real) + 1j * np.interp(z.real, xs, Z.imag)
        assert np.array_equal(got, solve(z, start)[1])

    @staticmethod
    def _kernel_points(monkeypatch, table):
        """The kernel points (measure_cauchy and measure_cauchy_with_prime)
        that table() evaluates; machine-independent."""
        points = []
        for name in ("measure_cauchy", "measure_cauchy_with_prime"):
            def counted(m, z, kernel=getattr(transforms, name)):
                points.append(np.size(z))
                return kernel(m, z)
            monkeypatch.setattr(transforms, name, counted)
        table()
        return sum(points)

    def test_kernel_points_guard(self, monkeypatch):
        # one power table on 2001 nodes; 30032 with the ladder, 36501 with
        # every level solved from z + i
        assert self._kernel_points(monkeypatch, lambda: bench.power_cdf(
            bernoulli_measure().dilate(8), 64, self.XS)) <= 31533

    def test_coarse_power_kernel_points_guard(self, monkeypatch):
        # 5001 with the refinement subgrids started from the ladder's rows,
        # 6781 with them solved from z + i; the bound is 5001 plus 5%
        assert self._kernel_points(monkeypatch, lambda: bench.power_cdf(
            semicircle_measure(101).dilate(2), 4, np.linspace(-4.0, 4.0, 201))) <= 5251

    def test_pair_kernel_points_guard(self, monkeypatch):
        # 12667 with the 1-d calls started from the ladder's rows, 14735 with
        # them solved from z + i; the bound is 12667 plus 5%
        assert self._kernel_points(monkeypatch, lambda: bench.pair_cdf(
            semicircle_measure(201), _lattice16(), np.linspace(-6.0, 6.0, 401))) <= 13300
