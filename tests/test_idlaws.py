import numpy as np
import pytest

from freeconv import idlaws
from freeconv.errors import NotUpperHalfPlane, OutOfRange
from freeconv.idlaws import (FamilySpec, family_affine, family_measure,
                             family_transform, free_poisson,
                             is_free_id_sampled, meixner_w,
                             semicircle)
from freeconv.inversion import stieltjes_cdf
from freeconv import measures
from freeconv.measures import bernoulli_measure, make_atomic
from freeconv.subordination import power_transform
from freeconv.transforms import Evaluator, cauchy


class TestFamilySpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(OutOfRange):
            FamilySpec("gaussian")

    def test_bad_params_rejected(self):
        with pytest.raises(OutOfRange):
            semicircle(variance=-1.0)
        with pytest.raises(OutOfRange):
            free_poisson(0.0)

    @pytest.mark.parametrize("name, key", [("semicircle", "varaince"),
                                           ("free_poisson", "lambda"),
                                           ("meixner_w", "b")])
    def test_unknown_param_rejected(self, name, key):
        # a misspelt key must not leave the default law in place
        with pytest.raises(OutOfRange, match=key):
            FamilySpec(name, {key: 2.0})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [lambda v: semicircle(variance=v),
                                      lambda v: semicircle(mean=v),
                                      free_poisson, meixner_w],
                             ids=["sc_variance", "sc_mean", "fp", "w"])
    def test_non_finite_param_rejected(self, make, value):
        with pytest.raises(OutOfRange, match="finite"):
            make(value)

    def test_defaults(self):
        assert semicircle().params == {"mean": 0.0, "variance": 1.0}
        assert meixner_w(0.0).params == {"a": 0.0}


class TestMeixnerCauchy:
    def test_a0_is_semicircle(self):
        got = cauchy(meixner_w(0.0), 1j)
        assert got == pytest.approx(1j * (1 - np.sqrt(5)) / 2, abs=1e-12)

    def test_normalization_asymptotics(self):
        for a in (0.0, 1.0, -2.0):
            g = cauchy(meixner_w(a), 100j)
            assert abs(100j * g - 1) < 0.05

    def test_defining_algebraic_identity(self):
        # 2 (1/V - a) - (z - a) must be a square root of (z-a)^2 - 4, and
        # the branch must satisfy Im(1/V) >= Im z
        a, z = 1.0, 2j
        V = cauchy(meixner_w(a), z)
        s = 2 * (1 / V - a) - (z - a)
        assert abs(s * s - ((z - a) ** 2 - 4)) < 1e-12
        assert (1 / V).imag >= z.imag - 1e-12

    def test_branch_condition(self):
        zs = (np.linspace(-3, 3, 10)[:, None]
              + 1j * np.linspace(0.1, 5, 10))
        for a in (0.0, 1.5, -1.0):
            g = cauchy(meixner_w(a), zs)
            f = 1.0 / g
            assert np.all(f.imag >= zs.imag - 1e-10)
            assert np.all(g.imag < 0)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NotUpperHalfPlane):
            cauchy(meixner_w(0.0), -1j)


class TestFamilyCauchy:
    def test_standard_semicircle(self):
        got = cauchy(semicircle(), 1j)
        assert got == pytest.approx(1j * (1 - np.sqrt(5)) / 2, abs=1e-12)

    def test_affine_scaling(self):
        mean, sd = 0.7, 1.6
        spec = semicircle(mean=mean, variance=sd * sd)
        z = mean + 1j * sd
        got = cauchy(spec, z)
        std = cauchy(semicircle(), (z - mean) / sd)
        assert got == pytest.approx(std / sd, abs=1e-12)

    def test_free_poisson_asymptotics(self):
        g = cauchy(free_poisson(1.0), 100j)
        assert abs(100j * g - 1) < 0.05

    def test_meixner_zero_equals_semicircle_on_grid(self):
        zs = (np.linspace(-3, 3, 10)[:, None]
              + 1j * np.linspace(0.1, 5, 10))
        a = cauchy(meixner_w(0.0), zs)
        b = cauchy(semicircle(), zs)
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("spec", [semicircle(), meixner_w(0.0), meixner_w(0.15),
                                      meixner_w(-0.15), meixner_w(1.5),
                                      semicircle(0.3, 2.0), free_poisson(0.5)],
                             ids=["sc", "w0", "w0.15", "w-0.15", "w1.5",
                                  "sc_shifted", "fp0.5"])
    def test_bits_of_the_closed_form(self, spec):
        """G and G' are w_a's closed form at u = (z - c)/s, divided by s and
        s^2, bit for bit; at c = 0, s = 1 the map changes no bit, signed
        zeros included."""
        a, c, s = family_affine(spec)
        rng = np.random.default_rng(4)
        z = np.concatenate([
            (np.linspace(-6.0, 6.0, 49)[:, None]
             + 1j * np.geomspace(1e-6, 200.0, 25)).ravel(),
            rng.uniform(-8.0, 8.0, 200) + 1j * rng.uniform(1e-8, 5.0, 200),
            [complex(-0.0, 1.0), complex(-0.0, 1e-3), a + 2.0 + 1e-12j]])
        u = z if (c, s) == (0.0, 1.0) else (z - c) / s
        w = u - a
        root = np.sqrt(w + 2.0) * np.sqrt(w - 2.0)
        F = a + 0.5 * (w + root)
        want = [1.0 / F, -0.5 * (1.0 + w / root) / (F * F)]
        if (c, s) != (0.0, 1.0):
            want = [want[0] / s, want[1] / (s * s)]
        G, G_with_prime = family_transform(spec)
        got = [G(z), *G_with_prime(z)]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want[:1] + want]


def _mp_family(spec, zs):
    """G and G' of a semicircle or free Poisson spec at zs, in 40-digit
    arithmetic from the textbook form G = 2/(u + S), S = sqrt((z-lo)(z-hi)),
    with u = z - m for the semicircle and u = z + 1 - r for free Poisson."""
    mp = pytest.importorskip("mpmath")
    ctx = mp.mp.clone()
    ctx.dps = 40
    p = spec.params
    if spec.name == "semicircle":
        m, sd = ctx.mpf(p["mean"]), ctx.sqrt(ctx.mpf(p["variance"]))
        lo, hi, shift = m - 2 * sd, m + 2 * sd, -m
    else:
        r = ctx.mpf(p["rate"])
        lo, hi, shift = (1 - ctx.sqrt(r)) ** 2, (1 + ctx.sqrt(r)) ** 2, 1 - r
    G, Gp = [], []
    for z in zs:
        zm = ctx.mpc(z.real, z.imag)
        S = ctx.sqrt(zm - lo) * ctx.sqrt(zm - hi)
        d = zm + shift + S
        G.append(complex(2 / d))
        # S' = (2z - lo - hi) / (2 S)
        Gp.append(complex(-2 * (1 + (2 * zm - lo - hi) / (2 * S)) / (d * d)))
    return np.array(G), np.array(Gp)


class TestAffineClosedForms:
    """semicircle and free_poisson are evaluated as affine images of w_a."""

    @pytest.mark.parametrize("spec", [semicircle(0.7, 2.56), free_poisson(0.01),
                                      free_poisson(0.5), free_poisson(2.0),
                                      free_poisson(50.0)],
                             ids=["sc_shifted", "fp0.01", "fp0.5", "fp2", "fp50"])
    def test_matches_mpmath(self, spec):
        zs = (np.linspace(-6.0, 6.0, 49)[:, None]
              + 1j * np.geomspace(1e-4, 100.0, 25)).ravel()
        G_ref, Gp_ref = _mp_family(spec, zs)
        G, G_with_prime = family_transform(spec)
        g, gp = G_with_prime(zs)
        assert np.array_equal(g, G(zs))
        assert np.max(np.abs(g - G_ref) / np.abs(G_ref)) < 5e-12
        assert np.max(np.abs(gp - Gp_ref) / np.abs(Gp_ref)) < 5e-12


class TestFamilyMeasure:
    @pytest.mark.parametrize("spec", [semicircle(), semicircle(0.5, 2.0),
                                      free_poisson(2.0), free_poisson(0.5),
                                      meixner_w(1.0), meixner_w(-2.0)],
                             ids=["sc", "sc_shifted", "fp2", "fp_half",
                                  "w1", "w_m2"])
    def test_unit_mass(self, spec):
        assert family_measure(spec).mass() == pytest.approx(1.0, abs=1e-9)

    def test_free_poisson_low_rate_atom(self):
        for rate in (0.3, 0.5):
            m = family_measure(free_poisson(rate))
            # exactly at 0, so that a CDF table with its jump at 0 agrees
            assert m.atom_positions.tolist() == [0.0]
            assert m.atom_weights == pytest.approx([1.0 - rate])

    def test_meixner_outer_atom(self):
        m = family_measure(meixner_w(2.0))
        assert m.atom_positions == pytest.approx([-0.5])
        assert m.atom_weights == pytest.approx([0.75])

    def test_same_law_same_measure(self):
        a, b = family_measure(meixner_w(0.0)), family_measure(semicircle())
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.density, b.density)

    # rate 1 has a 1/sqrt(x) edge at 0, which the trapezoid normalization
    # of the grid law misses by 5e-4
    @pytest.mark.parametrize("rate, mp_rtol", [(0.25, 1e-6), (0.5, 1e-6),
                                               (1.0, 1e-3), (2.0, 1e-6)])
    def test_free_poisson_is_image_of_w_a(self, rate, mp_rtol):
        a, c, s = family_affine(free_poisson(rate))
        assert (a, c, s) == (1.0 / np.sqrt(rate), rate, np.sqrt(rate))
        w = idlaws._wa_grid_law(a, 0.0, 1.0, 2001)
        m = family_measure(free_poisson(rate), 2001)
        assert np.array_equal(m.grid, c + s * w.grid)
        assert np.allclose(m.density, w.density / s, rtol=1e-12, atol=0.0)
        assert m.atom_weights.tolist() == w.atom_weights.tolist()
        # c + s (-1/a) is 0 for every rate below 1
        assert m.atom_positions.tolist() == ([0.0] if rate < 1 else [])
        # Marchenko-Pastur density on the support [(1 - sqrt r)^2, (1 + sqrt r)^2]
        lo, hi = (1 - s) ** 2, (1 + s) ** 2
        x = m.grid[1:-1]
        mp = np.sqrt((hi - x) * (x - lo)) / (2 * np.pi * x)
        assert np.allclose(m.density[1:-1], mp, rtol=mp_rtol, atol=0.0)
        if rate < 1:
            assert m.atom_weights == pytest.approx([1.0 - rate], rel=1e-14)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, -1.5, 2.0])
    def test_wa_density_is_boundary_value_of_G(self, a):
        G, _ = family_transform(meixner_w(a))
        y = np.linspace(a - 1.95, a + 1.95, 401)
        want = -G(y + 1e-12j).imag / np.pi
        assert np.allclose(idlaws._wa_density(a, y), want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("spec", [semicircle(0.5, 2.0), free_poisson(1.0),
                                      meixner_w(1.0)],
                             ids=["sc_shifted", "fp1", "w1"])
    def test_cdf_captures_full_mass(self, spec):
        # invert the closed form on [-6 sd - |mean|, 6 sd + |mean|]
        G, _ = family_transform(spec)
        m = family_measure(spec)
        mean, sd = m.moment(1), np.sqrt(m.variance())
        half = 6 * sd + abs(mean)
        xs = np.linspace(-half, half, 1501)
        t = stieltjes_cdf(G, xs, (0.02, 0.01))
        assert t.total_mass() >= 0.995


class TestIdVerdicts:
    def test_depth_grid_validation(self):
        m = bernoulli_measure()
        with pytest.raises(ValueError):
            is_free_id_sampled(m, depth_grid=(1.0, 2.0))
        with pytest.raises(ValueError):
            is_free_id_sampled(m, depth_grid=(1.0, 0.01))
        with pytest.raises(ValueError):
            is_free_id_sampled(m, depth_grid=(1.0,))

    def test_sampling_validation(self):
        m = bernoulli_measure()
        with pytest.raises(ValueError):
            is_free_id_sampled(m, x_samples=0)
        for width in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                is_free_id_sampled(m, width=width)

    @pytest.mark.parametrize("case, z", [
        ("bernoulli", 2.0002655501876174j),
        ("two_point", 1.5 + 2.0002655501876174j),
        # an interior path fails: the paths below it must still finish
        ("bimodal_grid", 3.017546253142025j),
        # path 2 fails shallower than path 0; path 0's failure is reported
        ("ordering", -2 + 2.0002655501876174j),
    ])
    def test_verdict_of_lowest_failing_path(self, case, z):
        xs = np.linspace(-3.0, 3.0, 2001)
        m = {
            "bernoulli": bernoulli_measure,
            "two_point": lambda: make_atomic([(-0.5, 0.8), (2.0, 0.2)]),
            "bimodal_grid": lambda: measures.from_density(
                xs, np.exp(-(xs - 1.5)**2 / 0.1) + np.exp(-(xs + 1.5)**2 / 0.1),
                normalize=True),
            "ordering": lambda: make_atomic(
                [(-2.163, 0.119), (-0.666, 0.245), (2.235, 0.636)]),
        }[case]()
        v = is_free_id_sampled(m)
        assert v.kind == "continuation_broken"
        assert v.detail == "continuation left the smooth branch"
        assert abs(v.z - z) < 1e-12

    @staticmethod
    def _evaluator(G, Gp):
        return Evaluator(G, lambda z: (G(z), Gp(z)))

    @pytest.mark.parametrize("case, verdict", [
        # F = 2z: phi = -z/2 at the top
        ("linear", "FailsAt(z=0+200j) phi grows linearly at the top"),
        # F is constant, so Newton has no derivative to step with
        ("constant", "ContinuationBroken(z=0+200j) no inverse at the top"),
        # F = z down to Im z = 10, constant below: every path diverges at once
        ("cut_off", "ContinuationBroken(z=-2+9.943j) Newton diverged"),
    ])
    def test_verdicts_of_synthetic_transforms(self, case, verdict):
        zero = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
        src = {
            "linear": self._evaluator(lambda z: 0.5 / z, lambda z: -0.5 / z**2),
            "constant": self._evaluator(lambda z: zero(z) - 1j, zero),
            "cut_off": self._evaluator(
                lambda z: np.where(z.imag >= 10, 1.0 / z, -0.1j),
                lambda z: np.where(z.imag >= 10, -1.0 / z**2, 0.0)),
        }[case]
        v = is_free_id_sampled(src)
        assert not v.passes
        assert str(v) == verdict

    def test_semicircle_closed_form_passes(self):
        v = is_free_id_sampled(semicircle())
        assert v.passes
        assert str(v) == "PassesSampledCriterion"

    def test_bernoulli_fails(self):
        v = is_free_id_sampled(bernoulli_measure())
        assert not v.passes
        assert v.kind in ("fails_at", "continuation_broken")
        # the obstruction is the branch point of phi at 2i
        assert abs(v.z - 2j) < 1.0

    def test_power_closure(self):
        # the 2-fold free convolution power of w_1 stays divisible
        grid = tuple(np.geomspace(200.0, 2.5, 80))
        assert is_free_id_sampled(power_transform(meixner_w(1.0), 2),
                                  depth_grid=grid).passes
