import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeconv

from freeconv.errors import (CauchyVanishes, InversionDiverged, NotCentered,
                             NotUpperHalfPlane, OutOfRange)
from freeconv.measures import (bernoulli_measure, from_density, make_atomic,
                               semicircle_measure)
from freeconv.ncpart import moments_to_cumulants
from freeconv.transforms import (Evaluator, as_evaluator,
                                 c1_index, cauchy, measure_cauchy,
                                 measure_cauchy_with_prime,
                                 nevanlinna_sigma, newton_invert,
                                 reciprocal_cauchy, voiculescu)

GOLDEN = (np.sqrt(5) - 1) / 2          # Im of -G_semicircle(i)


def delta(x):
    return make_atomic([(x, 1.0)])


def semicircle_G(z):
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z - 2) * np.sqrt(z + 2)
    return 2.0 / (z + s)


upper_points = st.builds(complex, st.floats(-5, 5), st.floats(0.05, 10))


class TestCauchy:
    @given(upper_points)
    def test_dirac(self, z):
        assert cauchy(delta(0.0), z) == pytest.approx(1 / z, rel=1e-12)

    def test_bernoulli_at_i(self):
        assert cauchy(bernoulli_measure(), 1j) == pytest.approx(-0.5j)

    def test_semicircle_at_i(self):
        g = cauchy(semicircle_measure(2001), 1j)
        assert g == pytest.approx(1j * (1 - np.sqrt(5)) / 2, abs=1e-4)

    def test_semicircle_against_closed_form_grid(self):
        m = semicircle_measure(4001)
        zs = (np.linspace(-3, 3, 7)[:, None]
              + 1j * np.array([0.1, 0.5, 2.0]))
        assert np.max(np.abs(cauchy(m, zs) - semicircle_G(zs))) < 1e-5

    @given(upper_points)
    def test_half_plane_mapping(self, z):
        g = cauchy(bernoulli_measure(), z)
        assert g.imag < 0
        assert abs(g) <= 1 / z.imag + 1e-12

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NotUpperHalfPlane):
            cauchy(bernoulli_measure(), 1 - 1j)
        with pytest.raises(NotUpperHalfPlane):
            cauchy(bernoulli_measure(), 1.0 + 0j)

    @pytest.mark.parametrize("z", [complex(0.0, float("nan")),
                                   complex(0.0, float("inf")),
                                   complex(float("nan"), 1.0)],
                             ids=["nan_imag", "inf_imag", "nan_real"])
    def test_rejects_non_finite(self, z):
        # NaN fails every comparison, so Im z <= 0 alone lets it through
        with pytest.raises(NotUpperHalfPlane):
            cauchy(bernoulli_measure(), z)
        with pytest.raises(NotUpperHalfPlane):
            cauchy(bernoulli_measure(), np.array([1j, z]))


class TestReciprocalCauchy:
    @given(upper_points)
    def test_dirac(self, z):
        assert reciprocal_cauchy(delta(0.0), z) == pytest.approx(z, rel=1e-12)

    def test_bernoulli_at_i(self):
        assert reciprocal_cauchy(bernoulli_measure(), 1j) == pytest.approx(2j)

    def test_semicircle_at_i(self):
        f = reciprocal_cauchy(semicircle_measure(2001), 1j)
        assert f == pytest.approx(1j * (np.sqrt(5) + 1) / 2, abs=1e-4)

    @given(upper_points)
    def test_imaginary_part_grows(self, z):
        f = reciprocal_cauchy(semicircle_measure(501), z)
        assert f.imag >= z.imag - 1e-10

    @given(upper_points)
    def test_product_round_trip(self, z):
        m = make_atomic([(-2, 0.3), (0.5, 0.7)])
        assert cauchy(m, z) * reciprocal_cauchy(m, z) == pytest.approx(1.0,
                                                                       abs=1e-12)

    @pytest.mark.parametrize("G", [np.zeros_like, lambda z: 2.0 / z],
                             ids=["vanishes", "im_F_below_im_z"])
    def test_refuses_non_probability_source(self, G):
        # G = 2/z is the transform of mass 2 at 0: F = z/2 has Im F < Im z
        with pytest.raises(CauchyVanishes):
            reciprocal_cauchy(Evaluator(G, None), np.array([1j, 0.5 + 2j]))


class TestC1Index:
    def test_dirac_is_zero(self):
        for b in (0.0, 2.5, -1.0):
            assert abs(c1_index(delta(b))) < 1e-10

    def test_bernoulli(self):
        assert c1_index(bernoulli_measure()) == pytest.approx(1.0)

    def test_semicircle(self):
        assert c1_index(semicircle_measure(2001)) == pytest.approx(GOLDEN,
                                                                   abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pos = np.sort(rng.uniform(-3, 3, 3))
            w = rng.dirichlet(np.ones(3))
            assert c1_index(make_atomic(list(zip(pos, w)))) >= -1e-10


class TestVoiculescu:
    def test_dirac_is_constant(self):
        for z in (2j, 1 + 3j, -0.5 + 10j):
            assert voiculescu(delta(0.7), z) == pytest.approx(0.7, abs=1e-10)

    def test_semicircle_is_reciprocal(self):
        phi = voiculescu(semicircle_measure(4001), 3j)
        assert phi == pytest.approx(-1j / 3, abs=1e-6)

    def test_bernoulli_closed_form(self):
        z = 3j
        expected = (np.sqrt(z**2 + 4) - z) / 2
        phi = voiculescu(bernoulli_measure(), z)
        assert phi == pytest.approx(expected, abs=1e-8)
        assert phi == pytest.approx(1j * (np.sqrt(5) - 3) / 2, abs=1e-8)

    def test_tends_to_first_cumulant(self):
        m = make_atomic([(0.0, 0.5), (1.0, 0.5)])
        phi = voiculescu(m, 200j)
        assert phi == pytest.approx(m.moment(1), abs=1e-2)

    def test_divergence_is_reported(self):
        # Bernoulli phi has a branch point at 2i; just above the real axis
        # inside the support Newton cannot land on the Voiculescu branch
        with pytest.raises(InversionDiverged):
            voiculescu(bernoulli_measure(), 0.05j)


def _bounded_pair():
    """Evaluator with F = 1/G = i|w|/(1 + |w|), bounded, and F' taken as 1."""
    def G(w):
        return (1 + abs(w)) / (1j * abs(w))

    return Evaluator(G, lambda w: (G(w), -G(w) ** 2))


class TestNewtonInvert:
    def test_solves_simple(self):
        G, G_with_prime = as_evaluator(delta(1.0))
        w = newton_invert(G_with_prime, 5j, 5j)
        assert 1.0 / G(w) == pytest.approx(5j, abs=1e-9)

    def test_reports_divergence(self):
        with pytest.raises(InversionDiverged):
            newton_invert(as_evaluator(_bounded_pair()).G_with_prime,
                          5j, 1j)                           # 5j is unreachable

    @pytest.mark.parametrize("m", [semicircle_measure(201), bernoulli_measure()],
                             ids=["semicircle201", "bernoulli"])
    def test_batch_equals_scalar_solves(self, m):
        _, G_with_prime = as_evaluator(m)
        targets = np.linspace(-2.0, 2.0, 9) + 3j
        seeds = targets + 0.5
        batch = newton_invert(G_with_prime, targets, seeds)
        assert batch.shape == targets.shape
        for t, s, w in zip(targets, seeds, batch):
            one = newton_invert(G_with_prime, complex(t), complex(s))
            assert type(one) is complex
            assert one == w       # bit for bit

    def test_batch_reports_divergence_once(self):
        G, G_with_prime = as_evaluator(_bounded_pair())
        targets = np.array([0.25j, 5j, 0.5j, 0.1j])
        seeds = np.array([0.5j, 1j, 1j, 0.5j])
        with pytest.raises(InversionDiverged) as info:
            newton_invert(G_with_prime, targets, seeds)
        exc = info.value
        assert exc.failed.tolist() == [False, True, False, False]
        assert exc.last_iterate.shape == targets.shape
        ok = ~exc.failed
        assert np.all(np.abs(1.0 / G(exc.last_iterate[ok]) - targets[ok]) < 1e-10)

    def test_G_evaluated_once_per_point(self):
        # F' is formed from the G and G' kept for each accepted iterate
        m = semicircle_measure(201)
        G, G_with_prime = as_evaluator(m)
        seen = []

        def recorded(w):
            seen.extend(np.asarray(w).tolist())
            return G_with_prime(w)

        targets = np.linspace(-2.0, 2.0, 9) + 3j
        w = newton_invert(recorded, targets, targets + 0.5)
        assert np.all(np.abs(1.0 / G(w) - targets) < 1e-9)
        assert len(seen) > targets.size
        assert len(set(seen)) == len(seen)

    def test_idcheck_makes_one_call_per_depth(self, monkeypatch):
        from freeconv import idlaws

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return newton_invert(*args, **kwargs)

        monkeypatch.setattr(idlaws, "newton_invert", counted)
        assert idlaws.is_free_id_sampled(semicircle_measure(201)).passes
        assert len(calls) == len(idlaws.DEFAULT_DEPTH_GRID) + 1
        assert all(np.shape(t) == (9,) for t in calls[1:])


class TestNevanlinnaSigma:
    def test_dirac_gives_zero_measure(self):
        assert nevanlinna_sigma(delta(0.0)).mass() == 0.0

    def test_bernoulli_gives_point_mass(self):
        sig = nevanlinna_sigma(bernoulli_measure())
        assert sig.atom_positions == pytest.approx([0.0], abs=1e-10)
        assert sig.atom_weights == pytest.approx([1.0], abs=1e-10)

    def test_refuses_density(self):
        mixed = from_density(np.linspace(-1.0, 1.0, 21), np.ones(21),
                             atoms=[(0.0, 0.5)], normalize=True)
        for m in (semicircle_measure(201), mixed):
            with pytest.raises(OutOfRange):
                nevanlinna_sigma(m)

    def test_mass_is_variance(self):
        m = make_atomic([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
        sig = nevanlinna_sigma(m)
        assert sig.mass() == pytest.approx(m.moment(2), abs=1e-9)

    def test_requires_centered(self):
        with pytest.raises(NotCentered):
            nevanlinna_sigma(delta(1.0))

    @staticmethod
    def random_centered_law(k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, k)
        w = rng.dirichlet(np.ones(k))
        return make_atomic(list(zip(x - np.dot(w, x), w)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 500), st.integers(0, 2**32 - 1))
    def test_atomic_mass_is_variance(self, k, seed):
        m = self.random_centered_law(k, seed)
        sig = nevanlinna_sigma(m)
        assert sig.atom_positions.size == m.atom_positions.size - 1
        assert abs(sig.mass() - m.variance()) < 1e-9

    @pytest.mark.parametrize("k", [40, 80, 500])
    def test_atomic_zeros_interlace_atoms(self, k):
        m = self.random_centered_law(k, k)
        sig = nevanlinna_sigma(m)
        pos = m.atom_positions
        assert np.all((pos[:-1] < sig.atom_positions) & (sig.atom_positions < pos[1:]))


def exact_moments(m, kmax):
    """Moments of the measure with the piecewise-linear density integrated
    exactly per segment (m.moment uses the trapezoid rule, which differs at
    grid-resolution order and would pollute high-order asymptotics)."""
    out = []
    for k in range(kmax + 1):
        total = float(np.sum(m.atom_weights * m.atom_positions**k))
        if m.grid.size:
            x0, x1 = m.grid[:-1], m.grid[1:]
            v0, v1 = m.density[:-1], m.density[1:]
            d = (v1 - v0) / (x1 - x0)
            c = v0 - d * x0
            total += float(np.sum(c * (x1**(k + 1) - x0**(k + 1)) / (k + 1)
                                  + d * (x1**(k + 2) - x0**(k + 2)) / (k + 2)))
        out.append(total)
    return out


class TestMomentAsymptotics:
    @pytest.mark.parametrize("m", [bernoulli_measure(), semicircle_measure(2001)],
                             ids=["bernoulli", "semicircle"])
    def test_expansion_error_decreases(self, m):
        moments = exact_moments(m, 5)
        for k in range(1, 5):
            errs = []
            for y in (50.0, 100.0, 200.0):
                z = 1j * y
                tail = cauchy(m, z) - sum(moments[j] / z**(j + 1)
                                          for j in range(k + 1))
                errs.append(abs(z**(k + 1) * tail))
            assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("m", [bernoulli_measure(), semicircle_measure(4001)],
                             ids=["bernoulli", "semicircle"])
    def test_cumulants_from_transform_asymptotics(self, m):
        # least-squares fit of the 1/z expansion of G at several heights,
        # two extra orders absorbing the tail, then convert to cumulants
        ys = np.geomspace(50, 400, 8)
        zs = 1j * ys
        A = np.column_stack([1.0 / zs**(j + 1) for j in range(7)])
        b = cauchy(m, zs)
        A_r = np.vstack([A.real, A.imag])
        b_r = np.concatenate([b.real, b.imag])
        coef, *_ = np.linalg.lstsq(A_r, b_r, rcond=None)
        est = coef[1:5]                     # coef[0] is the total mass
        exact = moments_to_cumulants(exact_moments(m, 4)[1:])
        fitted = moments_to_cumulants(est)
        assert np.max(np.abs(np.subtract(fitted, exact))) < 1e-2


# -- the grid-density kernel against an mpmath reference ---------------------

def _mp_reference(m, zs):
    """G and G' of a measure at zs, per atom and per linear segment, exactly
    in 50-digit arithmetic from the measure's own (binary) grid values."""
    mp = pytest.importorskip("mpmath")
    ctx = mp.mp.clone()
    ctx.dps = 50
    t = [ctx.mpf(float(x)) for x in m.grid]
    v = [ctx.mpf(float(x)) for x in m.density]
    G, Gp = [], []
    for z in zs:
        zm = ctx.mpc(z.real, z.imag)
        g = gp = ctx.mpc(0)
        for x, w in zip(m.atom_positions, m.atom_weights):
            r = 1 / (zm - ctx.mpf(float(x)))
            g += ctx.mpf(float(w)) * r
            gp -= ctx.mpf(float(w)) * r * r
        for k in range(len(t) - 1):
            if v[k] == 0 and v[k + 1] == 0:
                continue
            h = t[k + 1] - t[k]
            d = (v[k + 1] - v[k]) / h
            L = ctx.log((zm - t[k]) / (zm - t[k + 1]))
            p = v[k] + d * (zm - t[k])
            g += p * L - d * h
            gp += d * L + p * (1 / (zm - t[k]) - 1 / (zm - t[k + 1]))
        G.append(complex(g))
        Gp.append(complex(gp))
    return np.array(G), np.array(Gp)


def _kernel_inputs():
    unif = np.linspace(-np.sqrt(3.0), np.sqrt(3.0), 401)
    xs = np.linspace(-3.0, 3.0, 301)
    bumps = np.maximum(0.0, 1.0 - (np.abs(xs) - 2.0) ** 2)   # zero on (-1, 1)
    sc = semicircle_measure(101)
    return {
        "semicircle201": semicircle_measure(201),
        "semicircle2001": semicircle_measure(2001),
        "uniform401": from_density(unif, np.ones(unif.size), normalize=True),
        "two_bumps": from_density(xs, bumps, normalize=True),
        "atoms_and_density": from_density(sc.grid, sc.density,
                                          atoms=[(-2.5, 0.2), (0.3, 0.1)],
                                          normalize=True),
    }


def _kernel_points(m):
    """Points on and near the support down to Im z = 1e-4 R, on both sides of
    the far-field switch |z - c| = 2R, and at Im z = 200."""
    lo, hi = m.grid[0], m.grid[-1]
    c, R = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xs = np.array([lo - 0.1 * R, lo, m.grid[1], c - 0.37 * R, c, hi, hi + 0.1 * R])
    near = (xs[:, None] + 1j * R * np.array([1e-4, 1e-2])).ravel()
    ring = np.concatenate([c + 2.0 * R * (1.0 + s) * np.exp(1j * np.array([0.3, 2.0]))
                           for s in (-1e-3, 1e-3)])
    return np.concatenate([near, ring, [c + 0.5 * R + 200j]])


@pytest.fixture(scope="module", params=list(_kernel_inputs()))
def kernel_case(request):
    m = _kernel_inputs()[request.param]
    zs = _kernel_points(m)
    return m, zs, _mp_reference(m, zs)


class TestDensityKernel:
    def test_cauchy_matches_mpmath(self, kernel_case):
        m, zs, (G, _) = kernel_case
        # where G nearly cancels (inside a zero gap) the error is measured
        # against the size of the integrand, int |dmu(t)| / |z - t|
        scale = (np.sum(m.atom_weights / np.abs(zs[:, None] - m.atom_positions), axis=1)
                 + np.trapezoid(m.density / np.abs(zs[:, None] - m.grid), m.grid, axis=1))
        err = np.abs(measure_cauchy(m, zs) - G) / np.maximum(np.abs(G), scale)
        assert err.max() < 1e-13

    def test_derivative_matches_mpmath(self, kernel_case):
        m, zs, (_, Gp) = kernel_case
        err = np.abs(measure_cauchy_with_prime(m, zs)[1] - Gp) / np.abs(Gp)
        assert err.max() < 1e-13

    def test_pointwise_independent_of_batch(self, kernel_case):
        m, zs, _ = kernel_case
        single = np.array([measure_cauchy(m, z) for z in zs])
        assert np.array_equal(single, measure_cauchy(m, zs))
        assert np.array_equal(measure_cauchy(m, zs.reshape(-1, 1))[:, 0],
                              measure_cauchy(m, zs))


@pytest.mark.parametrize("name", [*_kernel_inputs(), "atoms_and_jumps"])
def test_one_pass_equals_separate_passes(name):
    """G of the (G, G') pass is G alone (measure_cauchy) bit for bit: Laurent
    zone, far and near segments, at atoms, endpoint jumps.  G' is pinned by
    the mpmath tests."""
    if name == "atoms_and_jumps":
        unif = np.linspace(-1.0, 1.0, 201)       # p jumps at both ends
        m = from_density(unif, np.ones(unif.size), normalize=True,
                         atoms=[(-1.5, 0.2), (0.25, 0.1), (1.0, 0.05)])
    else:
        m = _kernel_inputs()[name]
    zs = _kernel_points(m)
    if m.atom_positions.size:
        zs = np.concatenate([zs, (m.atom_positions[:, None]
                                  + np.array([1e-9j, 1e-3j, 0.1 + 1e-2j])).ravel()])
    g, _ = measure_cauchy_with_prime(m, zs)
    assert np.array_equal(g, measure_cauchy(m, zs))
    z = complex(zs[0])
    assert measure_cauchy_with_prime(m, z)[0] == measure_cauchy(m, z)


def test_rates_csv_independent_of_thread_counts(tmp_path):
    """The kernel's dot products must not depend on the BLAS thread count."""
    m = semicircle_measure(101)
    cfg = {"measure": m.to_json_dict(), "n_values": [2, 4, 8],
           "grid": [-4.0, 4.0, 201]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    src = str(Path(freeconv.__file__).resolve().parents[1])
    outputs = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "freeconv.cli", "rates",
                              str(tmp_path / "cfg.json")],
                             env=env, capture_output=True, text=True, check=True)
        outputs.add(out.stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith("n,a_n,distance\n2,")
