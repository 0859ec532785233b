import numpy as np
import pytest

from freeconv import idlaws, inversion
from freeconv.errors import ScheduleTooShort
from freeconv.inversion import (CdfTable, DistanceReport, kolmogorov,
                                load_cdf_csv, measure_to_cdf, stieltjes_cdf,
                                tail_smoothing_check)
from freeconv.measures import bernoulli_measure, make_atomic, semicircle_measure
from freeconv.bench import pair_cdf
from freeconv.subordination import pair_transform
from freeconv.transforms import as_evaluator, cauchy


def delta(x):
    return make_atomic([(x, 1.0)])


def semicircle_cdf(x):
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4 - x * x) / (4 * np.pi) + np.arcsin(x / 2) / np.pi


def arcsine_cdf(x):
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + np.arcsin(x / 2) / np.pi


class TestCdfTable:
    def test_invariants_enforced(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            CdfTable(xs, np.array([0.5, 0.4]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            CdfTable(xs, np.array([0.5, 1.5]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            CdfTable(xs, np.array([0.4, 1.0]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            CdfTable(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                     np.array([0.0, 1.0]))

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            CdfTable(np.array([]), np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes the order checks, so it must be refused on its own
        good = [np.array([0.0, 1.0, 2.0]), np.array([0.2, 0.6, 1.0]),
                np.array([0.0, 0.6, 1.0])]
        for k in range(3):
            arrays = [a.copy() for a in good]
            arrays[k][1] = bad
            with pytest.raises(ValueError, match="finite"):
                CdfTable(*arrays)

    def test_one_sided_evaluation(self):
        t = measure_to_cdf(bernoulli_measure())
        assert t.value_at(-1.0) == pytest.approx(0.5)
        assert t.left_at(-1.0) == pytest.approx(0.0)
        assert t.value_at(0.0) == pytest.approx(0.5)
        assert t.value_at(1.0) == pytest.approx(1.0)
        assert t.left_at(1.0) == pytest.approx(0.5)
        assert t.value_at(-5.0) == 0.0
        assert t.value_at(5.0) == pytest.approx(1.0)

    def test_csv_round_trip(self, tmp_path):
        t = measure_to_cdf(bernoulli_measure())
        path = tmp_path / "cdf.csv"
        t.save_csv(path)
        back = load_cdf_csv(path)
        assert np.allclose(back.xs, t.xs)
        assert np.allclose(back.values, t.values)
        assert np.allclose(back.left_limits, t.left_limits)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,0\n")
        with pytest.raises(ValueError):
            load_cdf_csv(path)


class TestMeasureToCdf:
    def test_dirac_step(self):
        t = measure_to_cdf(delta(0.0))
        assert t.value_at(0.0) == 1.0
        assert t.left_at(0.0) == 0.0

    def test_bernoulli_steps(self):
        t = measure_to_cdf(bernoulli_measure())
        assert t.value_at(-0.5) == pytest.approx(0.5)
        assert t.total_mass() == pytest.approx(1.0)

    def test_semicircle_matches_closed_form(self):
        t = measure_to_cdf(semicircle_measure(4001))
        xs = np.linspace(-2.2, 2.2, 500)
        assert np.max(np.abs(t.value_at(xs) - semicircle_cdf(xs))) < 1e-4


class TestStieltjesCdf:
    def test_dirac_jump(self):
        xs = np.linspace(-1, 1, 41)
        t = stieltjes_cdf(lambda z: 1.0 / z, xs, (0.1, 0.05))
        assert t.value_at(0.5) - t.value_at(-0.5) == pytest.approx(1.0,
                                                                   abs=1e-2)

    def test_semicircle_closed_form(self):
        G, _ = idlaws.family_transform(idlaws.semicircle())
        xs = np.linspace(-2.5, 2.5, 2001)
        t = stieltjes_cdf(G, xs, (0.02, 0.01))
        assert np.max(np.abs(t.values - semicircle_cdf(xs))) < 5e-3

    def test_bernoulli_square_is_arcsine(self):
        m = bernoulli_measure()
        xs = np.linspace(-2.5, 2.5, 2001)
        t = stieltjes_cdf(lambda z: cauchy(pair_transform(m, m), z), xs,
                          (0.004, 0.002, 0.001))
        assert np.max(np.abs(t.values - arcsine_cdf(xs))) < 5e-3

    def test_schedule_validation(self):
        xs = np.linspace(-1, 1, 11)
        with pytest.raises(ScheduleTooShort):
            stieltjes_cdf(lambda z: 1 / z, xs, (0.1,))
        with pytest.raises(ScheduleTooShort):
            stieltjes_cdf(lambda z: 1 / z, xs, (0.05, 0.1))

    @pytest.mark.parametrize("schedule", [(0.02, np.nan), (np.inf, 0.01),
                                          (np.nan, 0.01), (0.04, 0.02, np.nan)],
                             ids=["nan_last", "inf_first", "nan_first", "nan_third"])
    def test_schedule_must_be_finite(self, schedule):
        with pytest.raises(ScheduleTooShort):
            stieltjes_cdf(lambda z: 1 / z, np.linspace(-1, 1, 11), schedule)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            stieltjes_cdf(lambda z: 1 / z, np.array([1.0, 0.0]), (0.1, 0.05))
        for bad in (np.nan, np.inf):
            xs = np.linspace(-1, 1, 11)
            xs[5] = bad
            with pytest.raises(ValueError, match="finite"):
                stieltjes_cdf(lambda z: 1 / z, xs, (0.1, 0.05))

    def test_each_cell_refined_once_per_level(self, monkeypatch):
        # 31 nodes: both refinement rules fire, on cells wider than every eta
        # and on concentrated cells; each level refines their union in one
        # call of g, so no cell is evaluated twice at a level
        G, _ = idlaws.family_transform(idlaws.semicircle())
        points, refined = [], []

        def g(z):
            points.append(np.size(z))
            return G(z)

        def counted(*args):
            before = len(points)
            refine(*args)
            refined.append((args[2], len(points) - before))

        refine = inversion._refine_cells
        monkeypatch.setattr(inversion, "_refine_cells", counted)
        xs = np.linspace(-3.0, 3.0, 31)
        t = stieltjes_cdf(g, xs)
        assert sum(points) == 1965
        assert refined == [(eta, 1) for eta in inversion.DEFAULT_ETA]
        assert np.max(np.abs(t.values - semicircle_cdf(xs))) < 5e-3

    @pytest.mark.parametrize("atom", [False, True], ids=["continuous", "atom"])
    def test_one_g_call_per_row(self, atom, monkeypatch):
        # every call is 1-d and of one eta; the first are the full-grid rows,
        # largest eta first, and no later call goes below the last row's
        # eta; the detected atom's transform is subtracted from the rows in
        # one call, and the table is the one built level by level
        G, _ = idlaws.family_transform(idlaws.semicircle())
        xs = np.linspace(-3.0, 3.0, 601)
        x0 = xs[350]

        def g(z):
            return 0.7 * G(z) + 0.3 / (z - x0) if atom else G(z)

        calls = []

        def counting(z):
            calls.append(np.array(z))
            return g(z)

        def by_level(f):
            def rows(m, z):
                return np.array([f(m, r) for r in np.atleast_2d(z)]).reshape(np.shape(z))
            return rows

        schedule = (0.08, 0.04, 0.02, 0.01)
        t = stieltjes_cdf(counting, xs, schedule)
        assert all(z.ndim == 1 and np.ptp(z.imag) == 0 for z in calls)
        for z, eta in zip(calls, (0.04, 0.02, 0.01)):
            assert np.array_equal(z, xs + 1j * eta)
        # the later calls: at a used level, or at 2 * 0.01, itself a level here
        assert {z.imag[0] for z in calls[3:]} <= {0.04, 0.02, 0.01}
        # the unused first level leaves the table of the last three levels
        three = stieltjes_cdf(g, xs, schedule[1:])
        assert t.values.tobytes() == three.values.tobytes()
        assert t.left_limits.tobytes() == three.left_limits.tobytes()
        monkeypatch.setattr(inversion, "measure_cauchy", by_level(inversion.measure_cauchy))
        ref = stieltjes_cdf(g, xs, schedule)
        assert t.values.tobytes() == ref.values.tobytes()
        assert t.left_limits.tobytes() == ref.left_limits.tobytes()
        jumps = np.flatnonzero(t.values > t.left_limits)
        assert jumps.tolist() == ([350] if atom else [])

    def test_mass_deficit_warns(self):
        G, _ = idlaws.family_transform(idlaws.semicircle())
        xs = np.linspace(-0.5, 0.5, 101)      # misses most of the support
        with pytest.warns(UserWarning, match="mass"):
            stieltjes_cdf(G, xs, (0.02, 0.01))

    def test_mass_excess_warns(self):
        # this pair's table totals 1.0806 before the clip
        a = make_atomic([(-0.7485, 0.3605), (-0.1185, 0.5024), (2.4017, 0.1371)])
        b = make_atomic([(-0.5224, 0.7856), (1.9141, 0.2144)])
        with pytest.warns(UserWarning, match="exceeds 1 total mass by 0.0806"):
            pair_cdf(a, b, np.linspace(-2.2709, 5.3158, 2001))


class TestInversionConsistency:
    def test_semicircle(self):
        sc = semicircle_measure(2001)
        G, _ = as_evaluator(sc)
        xs = np.linspace(-2.5, 2.5, 1001)
        t = stieltjes_cdf(G, xs, (0.02, 0.01))
        assert kolmogorov(t, measure_to_cdf(sc)).distance < 5e-3

    def test_three_atom_measures(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pos = np.sort(rng.uniform(-2, 2, 3))
            while np.any(np.diff(pos) < 0.5):
                pos = np.sort(rng.uniform(-2, 2, 3))
            w = rng.dirichlet(np.ones(3))
            while w.min() < 0.1:
                w = rng.dirichlet(np.ones(3))
            m = make_atomic(list(zip(pos, w)))
            G, _ = as_evaluator(m)
            xs = np.unique(np.concatenate([np.linspace(-3, 3, 601), pos]))
            t = stieltjes_cdf(G, xs, (0.002, 0.001))
            assert kolmogorov(t, measure_to_cdf(m)).distance < 5e-3

    def test_atom_appears_as_jump(self):
        m = make_atomic([(-1.0, 0.4), (0.5, 0.6)])
        G, _ = as_evaluator(m)
        xs = np.unique(np.concatenate([np.linspace(-2, 2, 401),
                                       m.atom_positions]))
        t = stieltjes_cdf(G, xs, (0.002, 0.001))
        assert t.value_at(0.5) - t.left_at(0.5) == pytest.approx(0.6, abs=5e-3)


class TestKolmogorov:
    def test_identical_tables(self):
        t = measure_to_cdf(delta(0.0))
        assert kolmogorov(t, t).distance == 0.0

    def test_separated_diracs(self):
        a = measure_to_cdf(delta(0.0))
        b = measure_to_cdf(delta(1.0))
        assert kolmogorov(a, b).distance == pytest.approx(1.0)

    def test_bernoulli_vs_dirac(self):
        a = measure_to_cdf(bernoulli_measure())
        b = measure_to_cdf(delta(0.0))
        assert kolmogorov(a, b).distance == pytest.approx(0.5)

    def test_atoms_on_other_grid_seen(self):
        # the sup must look at both one-sided values on the merged grid:
        # the two tables agree on each table's own nodes' right values, and
        # the full gap only shows at the other table's atom
        a = measure_to_cdf(delta(0.5))
        b = measure_to_cdf(bernoulli_measure())
        assert kolmogorov(a, b).distance == pytest.approx(0.5)
        assert kolmogorov(measure_to_cdf(delta(0.25)),
                          measure_to_cdf(delta(0.75))).distance == pytest.approx(1.0)


    def test_shared_nodes_read_at_nodes(self):
        # tables on equal but distinct node arrays give the union route's
        # report bit for bit
        xs = np.linspace(-3.0, 3.0, 601)
        a = stieltjes_cdf(lambda z: cauchy(semicircle_measure(201), z), xs, (0.02, 0.01))
        atoms = make_atomic([(-1.0, 0.3), (0.0, 0.2), (1.3, 0.5)])
        b = stieltjes_cdf(lambda z: cauchy(atoms, z), xs.copy(), (0.02, 0.01))
        assert a.xs is not b.xs and np.array_equal(a.xs, b.xs)
        grid = np.union1d(a.xs, b.xs)
        diff = np.maximum(np.abs(a.value_at(grid) - b.value_at(grid)),
                          np.abs(a.left_at(grid) - b.left_at(grid)))
        i = int(np.argmax(diff))
        assert kolmogorov(a, b) == DistanceReport(float(diff[i]), float(grid[i]))
        assert kolmogorov(b, a) == DistanceReport(float(diff[i]), float(grid[i]))


class TestTriangleProperty:
    def test_convolution_is_distance_contracting(self):
        rng = np.random.default_rng(8)
        nu = idlaws.semicircle()
        xs = np.linspace(-5.5, 5.5, 801)
        for _ in range(10):
            p = np.sort(rng.uniform(-2, 2, 2))
            q = np.sort(rng.uniform(-2, 2, 2))
            w1 = rng.uniform(0.2, 0.8)
            w2 = rng.uniform(0.2, 0.8)
            mu = make_atomic([(p[0], w1), (p[1], 1 - w1)])
            mup = make_atomic([(q[0], w2), (q[1], 1 - w2)])
            base = kolmogorov(measure_to_cdf(mu), measure_to_cdf(mup)).distance
            ta = stieltjes_cdf(lambda z: cauchy(pair_transform(mu, nu), z), xs, (0.02, 0.01))
            tb = stieltjes_cdf(lambda z: cauchy(pair_transform(mup, nu), z), xs, (0.02, 0.01))
            assert kolmogorov(ta, tb).distance <= base + 5e-3


class TestTailSmoothing:
    def test_dirac(self):
        lhs, rhs, holds = tail_smoothing_check(delta(0.0), 1.0)
        assert lhs == 0.0
        assert rhs >= -1e-12
        assert holds

    def test_bernoulli_u1(self):
        lhs, rhs, holds = tail_smoothing_check(bernoulli_measure(), 1.0)
        assert lhs == 0.0
        assert rhs == pytest.approx(2 * (1 - np.sin(1)), abs=1e-5)
        assert holds

    def test_bernoulli_u3(self):
        lhs, rhs, holds = tail_smoothing_check(bernoulli_measure(), 3.0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2 * (3 - np.sin(3)) / 3, abs=1e-5)
        assert holds

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            tail_smoothing_check(delta(0.0), 0.0)
