import json
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeconv

from freeconv import idlaws
from freeconv.errors import (CauchyVanishes, InversionDiverged, NotCentered,
                             NotUpperHalfPlane, OutOfRange)
from freeconv.measures import (bernoulli_measure, from_density, make_atomic,
                               semicircle_measure)
from freeconv import transforms
from freeconv.ncpart import moments_to_cumulants
from freeconv.subordination import pair_transform, power_transform
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

    def test_failure_reasons(self):
        # G = 1/w, so w = target solves 1/G(w) = target; G' is 0 left of
        # Re w = -1, of the wrong sign on [-1, 1], so that every halving
        # raises the residual, and the true -1/w^2 right of 1
        def G_with_prime(w):
            sign = np.where(w.real > 1.0, -1.0, 1.0)
            return 1.0 / w, np.where(w.real < -1.0, 0.0, sign / (w * w))

        points = []

        def recorded(w):
            points.append(w.size)
            return G_with_prime(w)

        targets = np.array([-2.0, 0.0, 2.0]) + 1j
        with pytest.raises(InversionDiverged) as info:
            newton_invert(recorded, targets, targets + 0.5j)
        exc = info.value
        assert str(exc) == "Newton derivative vanished at 2 of 3 points"
        assert exc.failed.tolist() == [True, True, False]
        assert exc.last_iterate[2] == pytest.approx(targets[2], abs=1e-12)
        # the stalled point leaves after its 60 halvings: 3 + 2 + 59 points
        assert sum(points) == 64
        with pytest.raises(InversionDiverged, match="^Newton step stalled$"):
            newton_invert(G_with_prime, targets[1], targets[1] + 0.5j)

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

    @staticmethod
    def count_passes(monkeypatch):
        """The point count of each _atom_sums call, recorded into a list."""
        calls, atom_sums = [], transforms._atom_sums

        def counted(*args):
            calls.append(args[2].size)
            return atom_sums(*args)

        monkeypatch.setattr(transforms, "_atom_sums", counted)
        return calls

    def test_zero_g_closes_its_gap(self, monkeypatch):
        # G is exactly 0 at the first midpoint, 0: one pass, and the atom
        # sits there, not a float below
        calls = self.count_passes(monkeypatch)
        sig = nevanlinna_sigma(bernoulli_measure())
        assert calls == [1]
        assert sig.atom_positions.tolist() == [0.0]
        assert sig.atom_weights.tolist() == [1.0]

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

    def test_real_point_independent_of_batch(self):
        # a lone real point is summed left to right over the atoms, as a
        # point of a batch is, not pairwise
        m = self.random_centered_law(80, 80)
        pos, wts = m.atom_positions, m.atom_weights
        x = 0.5 * (pos[:-1] + pos[1:])
        single = np.hstack([transforms._atom_sums(pos, wts, x[i:i + 1], True)
                            for i in range(x.size)])
        assert np.array_equal(single, transforms._atom_sums(pos, wts, x, True))

    def test_memory_is_bounded(self):
        # 1500 atoms: summed as (gaps, atoms) arrays this peaks at 34 MiB
        m = self.random_centered_law(1500, 0)
        assert _peak_bytes(nevanlinna_sigma, m) < 8 * 2**20

    @pytest.mark.parametrize("k", [40, 80, 500])
    def test_atomic_zeros_interlace_atoms(self, k):
        m = self.random_centered_law(k, k)
        sig = nevanlinna_sigma(m)
        pos = m.atom_positions
        assert np.all((pos[:-1] < sig.atom_positions) & (sig.atom_positions < pos[1:]))

    @staticmethod
    def bisected_sigma(m):
        """Reference: every gap bisected down to adjacent floats, one pass
        over all gaps per halving."""
        pos, wts = m.atom_positions, m.atom_weights
        lo, hi = pos[:-1], pos[1:]
        mid = 0.5 * (lo + hi)
        while np.any((lo < mid) & (mid < hi)):
            above = transforms._atom_sums(pos, wts, mid, False)[0] > 0
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
            mid = 0.5 * (lo + hi)
        return mid, -1.0 / transforms._atom_sums(pos, wts, mid, True)[1]

    @pytest.mark.parametrize("k", [40, 80, 500])
    def test_zeros_are_bisections(self, k):
        m = self.random_centered_law(k, k)
        sig = nevanlinna_sigma(m)
        pos, wts = self.bisected_sigma(m)
        assert np.array_equal(sig.atom_positions, pos)
        assert np.array_equal(sig.atom_weights, wts)

    def test_passes(self, monkeypatch):
        # bisection takes 55 passes over the gaps here, and about 3 s
        calls = self.count_passes(monkeypatch)
        nevanlinna_sigma(self.random_centered_law(3000, 0))
        assert len(calls) <= 12
        # only the open gaps: 18470 points in 10 passes, 29990 with every
        # gap in every pass; the bound is 18470 plus 5%
        assert sum(calls) <= 19393


def _peak_bytes(fn, *args):
    """Peak memory that fn(*args) allocates, from tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_law(k, seed):
    rng = np.random.default_rng(seed)
    return make_atomic(list(zip(rng.uniform(-2.0, 2.0, k), rng.dirichlet(np.ones(k)))))


class TestAtomSum:
    @pytest.mark.parametrize("atoms", [[(-1.0, 0.5), (1.0, 0.5)],
                                       [(-0.5, 0.8), (0.3, 0.05), (2.0, 0.15)]])
    def test_left_to_right(self, atoms):
        """G and G' of up to 3 atoms are the left-to-right sums bit for bit,
        so the outputs of such laws do not depend on the block layout."""
        m = make_atomic(atoms)
        rng = np.random.default_rng(0)
        z = rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(1e-6, 2.0, 12)
        G = reduce(add, [w / (z - x) for x, w in atoms])
        Gp = -reduce(add, [w / (z - x) ** 2 for x, w in atoms])
        for zz, g, gp in ((z, G, Gp), (z.reshape(3, 4), G.reshape(3, 4), Gp.reshape(3, 4)),
                          (complex(z[5]), G[5], Gp[5])):
            got = measure_cauchy_with_prime(m, zz)
            assert np.array_equal(got[0], g) and np.array_equal(got[1], gp)
            assert np.array_equal(measure_cauchy(m, zz), g)

    # (tile, min points): the default, and budgets that cut small laws into
    # tiles; 3000 atoms in tiles of 2 would take 3000 steps per point
    @pytest.mark.parametrize("k, budget", [
        (k, budget) for k in (1, 2, 3, 8, 16, 3000)
        for budget in ((4096, 64), (64, 8), (16, 4), (2, 1))
        if k < 3000 or budget[0] >= 16])
    def test_tiles_keep_left_to_right_bits(self, monkeypatch, k, budget):
        """Any tile budget gives each point's left-to-right sum over its
        atoms, for complex points, real points and a lone real point."""
        assert (transforms._ATOM_TILE, transforms._ATOM_MIN_POINTS) == (4096, 64)
        monkeypatch.setattr(transforms, "_ATOM_TILE", budget[0])
        monkeypatch.setattr(transforms, "_ATOM_MIN_POINTS", budget[1])
        law = _random_law(k, k)
        pos, wts = law.atom_positions, law.atom_weights
        rng = np.random.default_rng(k)
        zs = [rng.uniform(-3.0, 3.0, 150) + 1j * rng.uniform(1e-6, 2.0, 150),
              rng.uniform(-3.0, 3.0, 77), rng.uniform(-3.0, 3.0, 1)]
        if k == 1:
            # a block of 4096 points leaves room for 4096 // 4096 = 1 row,
            # fewer than the 2 a tile needs
            zs.append(rng.uniform(-3.0, 3.0, 5000) + 1j * rng.uniform(1e-6, 2.0, 5000))
        for z in zs:
            if k == 3000:
                z = z[:37]
            g = reduce(add, [w / (z - x) for x, w in zip(pos, wts)])
            gp = reduce(add, [-w / (z - x) ** 2 for x, w in zip(pos, wts)])
            got = transforms._atom_sums(pos, wts, z, True)
            assert np.array_equal(got[0], g) and np.array_equal(got[1], gp)
            assert np.array_equal(transforms._atom_sums(pos, wts, z, False)[0], g)

    def test_pass_memory_is_tiled(self):
        # one (G, G') pass of 8 atoms at 2001 points; a pass over all points
        # at once would make (8, 2001) temporaries of 256 KiB each
        law = _random_law(8, 0)
        z = np.linspace(-4.0, 4.0, 2001) + 0.01j
        assert _peak_bytes(transforms._atom_sums, law.atom_positions,
                           law.atom_weights, z, True) < 384 * 2**10

    def test_memory_is_bounded(self):
        # an (atoms, points) array would take 2001 * 1e4 * 16 bytes = 305 MiB
        m = _random_law(10_000, 0)
        z = np.linspace(-4.0, 4.0, 2001) + 0.01j
        assert _peak_bytes(measure_cauchy_with_prime, m, z) < 8 * 2**20


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
        # 22 points in tiles of 186 atoms, so each point's sum spans tiles
        "atoms3000": _random_law(3000, 3),
    }


def _panel_points(m):
    """For a law whose kernel has panels: 1e-4 R_p above three inner panel
    edges, where two panels summed by segments meet, and on both sides of
    the switch |z - c_p| = 2 R_p of three panels."""
    kernel = transforms._density_kernel(m)
    if kernel.bounds.size < 3:
        return np.empty(0)
    c, R = kernel.panel_center, kernel.panel_radius
    pick = np.unique(np.linspace(1, R.size - 1, 3).astype(int))
    edges = kernel.t0[kernel.bounds[pick]] + 1e-4j * R[pick]
    ring = [c[p] + 2.0 * R[p] * (1.0 + s) * np.exp(1j * np.array([0.3, 2.0]))
            for p in pick - 1 for s in (-1e-3, 1e-3)]
    return np.concatenate([edges, *ring])


def _kernel_points(m):
    """Points on and near the support down to Im z = 1e-4 R, on both sides of
    the far-field switch |z - c| = 2R, at Im z = 200, and _panel_points.  For
    an atomic law: 1e-4 and 1e-2 above some atoms, midway between
    neighbours, and far out."""
    if not m.grid.size:
        x = m.atom_positions
        pick = np.linspace(0, x.size - 2, 7).astype(int)
        near = (x[pick, None] + np.array([1e-4j, 1e-2j])).ravel()
        mid = 0.5 * (x[pick] + x[pick + 1]) + 1e-6j
        return np.concatenate([near, mid, [x.mean() + 200j]])
    lo, hi = m.grid[0], m.grid[-1]
    c, R = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xs = np.array([lo - 0.1 * R, lo, m.grid[1], c - 0.37 * R, c, hi, hi + 0.1 * R])
    near = (xs[:, None] + 1j * R * np.array([1e-4, 1e-2])).ravel()
    ring = np.concatenate([c + 2.0 * R * (1.0 + s) * np.exp(1j * np.array([0.3, 2.0]))
                           for s in (-1e-3, 1e-3)])
    return np.concatenate([near, ring, [c + 0.5 * R + 200j], _panel_points(m)])


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


def test_long_rows_are_summed_in_chunks(monkeypatch):
    """Next to the support of a 100001-node law (P = 141 panels) a point's
    run of panels holds more than 8192 nodes, so _rowdot sums its rows in
    chunks; G and G' against the closed forms of the uniform law."""
    grid = np.linspace(-1.0, 1.0, 100001)
    m = from_density(grid, np.ones(grid.size), normalize=True)
    kernel = transforms._density_kernel(m)
    z = np.append(kernel.panel_center[40:43], kernel.t0[kernel.bounds[42]]) + 1e-4j
    widths = []

    def recorded(a, w, rowdot=transforms._rowdot):
        widths.append(w.size)
        return rowdot(a, w)

    monkeypatch.setattr(transforms, "_rowdot", recorded)
    G, Gp = measure_cauchy_with_prime(m, z)
    assert max(widths) > transforms._DOT_CHUNK
    assert np.abs(G - 0.5 * np.log((z + 1) / (z - 1))).max() < 1e-14
    assert np.abs(Gp * (z * z - 1) + 1).max() < 1e-13
    for i in range(z.size):
        single = measure_cauchy_with_prime(m, z[i:i + 1])
        assert single[0][0] == G[i] and single[1][0] == Gp[i]


# laws other than a measure: each family, affine ones included, and each
# convolution
_LAWS = {
    "semicircle": lambda: idlaws.semicircle(),
    "semicircle_affine": lambda: idlaws.semicircle(0.3, 2.0),
    "free_poisson_0.5": lambda: idlaws.free_poisson(0.5),
    "free_poisson_2": lambda: idlaws.free_poisson(2.0),
    "w_1.5": lambda: idlaws.meixner_w(1.5),
    "power_grid": lambda: power_transform(semicircle_measure(201), 3),
    "power_atomic": lambda: power_transform(bernoulli_measure(), 4),
    "power_family": lambda: power_transform(idlaws.free_poisson(0.5), 2),
    "pair_grid_atomic": lambda: pair_transform(semicircle_measure(201), bernoulli_measure()),
    "pair_family_atomic": lambda: pair_transform(idlaws.semicircle(0.3, 2.0),
                                                 make_atomic([(-1.0, 0.3), (0.5, 0.7)])),
}


def _one_pass_case(name):
    """(G, G_with_prime, points) of a law of _LAWS or a kernel input."""
    if name in _LAWS:
        zs = (np.linspace(-5.0, 5.0, 11)[:, None] + 1j * np.geomspace(1e-3, 10.0, 4)).ravel()
        return (*as_evaluator(_LAWS[name]()), zs)
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
    return (lambda z: measure_cauchy(m, z), lambda z: measure_cauchy_with_prime(m, z), zs)


@pytest.mark.parametrize("name", [*_kernel_inputs(), "atoms_and_jumps", *_LAWS])
def test_one_pass_equals_separate_passes(name):
    """G of the (G, G') pass is G alone bit for bit, at an array and at a
    scalar z.  For a measure (measure_cauchy): Laurent zone, far and near
    segments, at atoms, endpoint jumps; G' is pinned by the mpmath tests."""
    G, G_with_prime, zs = _one_pass_case(name)
    assert np.array_equal(G_with_prime(zs)[0], G(zs))
    z = complex(zs[0])
    assert G_with_prime(z)[0] == G(z)


class _CountingNumpy:
    """numpy, with the entries that np.einsum and np.log read counted."""

    def __init__(self):
        self.entries = {"complex": 0, "real": 0, "log": 0}

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, a, *args, **kwargs):
        self.entries["complex" if np.iscomplexobj(a) else "real"] += a.size
        return np.einsum(subscripts, a, *args, **kwargs)

    def log(self, x, *args, **kwargs):
        self.entries["log"] += np.size(x)
        return np.log(x, *args, **kwargs)


def _terms_per_point(m, z, monkeypatch):
    """Terms a G pass sums per point: series terms (complex entries of the
    dot products), segment nodes (real entries, each in two dot products,
    for the real and imaginary parts) and closed forms (one log each).  A
    (G, G') pass sums the same terms."""
    counting = _CountingNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(transforms, "np", counting)
        measure_cauchy(m, z)
    n = counting.entries
    return (n["complex"] + n["real"] / 2 + n["log"]) / z.size


def test_terms_per_point_grow_as_root_of_grid(monkeypatch):
    """Next to the support, a point sums the P panels' series and the
    segments of about two panels: about sqrt(S) terms, not 6 S."""
    for points in (101, 201):
        assert transforms._density_kernel(semicircle_measure(points)).bounds.size == 2
    counts = []
    for points in (201, 2001, 20001):
        m = semicircle_measure(points)
        z = np.linspace(m.grid[0], m.grid[-1], 52)[1:-1] + 1e-2j
        counts.append(_terms_per_point(m, z, monkeypatch))
    assert counts[2] / counts[1] <= 3.5
    assert counts[1] < 6 * 2000 / 3


def test_rates_csv_independent_of_thread_counts(tmp_path):
    """The kernel's dot products must not depend on the BLAS thread count:
    the rates CSV of a law summed by segments alone, and G and G' of a
    panelled law in every zone."""
    m = semicircle_measure(101)
    cfg = {"measure": m.to_json_dict(), "n_values": [2, 4, 8],
           "grid": [-4.0, 4.0, 201]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    z = _panelled_zones()
    panelled = ("import sys, numpy as np\n"
                "from freeconv.measures import semicircle_measure\n"
                "from freeconv.transforms import measure_cauchy_with_prime\n"
                f"z = np.array({z.tolist()!r})\n"
                "g, gp = measure_cauchy_with_prime(semicircle_measure(2001), z)\n"
                "sys.stdout.write((g.tobytes() + gp.tobytes()).hex())\n")
    src = str(Path(freeconv.__file__).resolve().parents[1])

    def output(*args):
        outputs = set()
        for blas in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            outputs.add(subprocess.run([sys.executable, *args], env=env, capture_output=True,
                                       text=True, check=True).stdout)
        assert len(outputs) == 1
        return outputs.pop()

    assert output("-m", "freeconv.cli", "rates",
                  str(tmp_path / "cfg.json")).startswith("n,a_n,distance\n2,")
    assert len(output("-c", panelled)) == 2 * 2 * 16 * z.size     # hex of G, G'


def _panelled_zones():
    """Points for semicircle_measure(2001): root series, panel series only,
    and panels summed by segments, with and without edge masses."""
    m = semicircle_measure(2001)
    x = np.linspace(-2.2, 2.2, 12)
    return np.concatenate([x + 3j, x + 0.5j, x + 1e-2j, _panel_points(m)])
