"""End-to-end acceptance suite.

Each test exercises one headline requirement at its stated tolerance and
prints a single PASS/FAIL line (visible with pytest -s or -rA; the pytest
verdict carries the same information).  Criteria with runtime budgets assert
wall-clock time measured inside the test.
"""

import json
import time
from collections import Counter

import numpy as np

from freeconv import idlaws
from freeconv.bench import ExperimentConfig, run_rate_experiment
from freeconv.cli import main as cli_main
from freeconv.inversion import stieltjes_cdf
from freeconv.measures import bernoulli_measure, make_atomic, semicircle_measure
from freeconv.ncpart import (catalan, count_nc_blocks, cumulants_to_moments,
                             enumerate_nc, moments_to_cumulants)
from freeconv.subordination import boundary_curve, power_transform, solve_Zn_grid
from freeconv.transforms import c1_index, cauchy, voiculescu


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_noncrossing_block_counts():
    t0 = time.time()
    ok = True
    for n in range(1, 13):
        counts = Counter(len(p) for p in enumerate_nc(n))
        for s in range(1, n + 1):
            if count_nc_blocks(n, s) != counts.get(s, 0):
                ok = False
    for n in range(1, 31):
        if sum(count_nc_blocks(n, s) for s in range(1, n + 1)) != catalan(n):
            ok = False
    elapsed = time.time() - t0
    report(1, ok and elapsed < 30,
           f"block counts match enumeration (n<=12) and Catalan sums (n<=30) "
           f"in {elapsed:.1f}s")


def test_criterion_02_cumulant_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        # entries in [-1, 1]: the round-trip conditioning grows like
        # Catalan(12) * max|alpha|^12, so larger ranges push intrinsic
        # float64 error past the tolerance
        alpha = rng.uniform(-1, 1, 12)
        back = moments_to_cumulants(cumulants_to_moments(alpha))
        scale = np.maximum(1.0, np.abs(alpha))
        worst = max(worst, float(np.max(np.abs(back - alpha) / scale)))
    elapsed = time.time() - t0
    report(2, worst < 1e-9 and elapsed < 5,
           f"100 round trips at order 12, max relative error {worst:.2e} "
           f"in {elapsed:.1f}s")


def test_criterion_03_semicircle_power_oracle():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-3, 3, 25) + 1j * rng.uniform(0.05, 5, 25)
    sc = idlaws.semicircle()
    worst = 0.0
    for n in (2, 4, 16):
        ref = (zs - np.sqrt(zs - 2 * np.sqrt(n))
               * np.sqrt(zs + 2 * np.sqrt(n))) / (2 * n)
        got = cauchy(power_transform(sc, n), zs)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    report(3, worst < 1e-8,
           f"n-fold semicircle power vs closed form, max error {worst:.2e}")


def test_criterion_04_arcsine_oracle():
    m = bernoulli_measure()
    xs = np.linspace(-2.5, 2.5, 2001)
    table = stieltjes_cdf(lambda z: cauchy(power_transform(m, 2), z), xs,
                          (0.004, 0.002, 0.001))
    ref = 0.5 + np.arcsin(np.clip(xs, -2, 2) / 2) / np.pi
    sup = float(np.max(np.abs(table.values - ref)))
    report(4, sup < 5e-3,
           f"Bernoulli square CDF vs arcsine law, sup-norm {sup:.2e}")


def test_criterion_05_rate_reproduction():
    t0 = time.time()
    cfg = ExperimentConfig(bernoulli_measure(), (4, 8, 16, 32, 64, 128, 256))
    rep = run_rate_experiment(cfg)
    elapsed = time.time() - t0
    ok = -1.25 <= rep.slope <= -0.75 and not rep.failed and elapsed < 300
    report(5, ok,
           f"Bernoulli rate slope {rep.slope:.3f} (stderr {rep.slope_stderr:.3f}) "
           f"single-threaded in {elapsed:.1f}s")


def test_criterion_06_subordination_lower_bound():
    rng = np.random.default_rng(11)
    zs = rng.uniform(-10, 10, 1000) + 1j * rng.uniform(0.1, 10, 1000)
    violations = 0
    for m in (bernoulli_measure(), idlaws.semicircle()):
        c1 = c1_index(m)
        for n in (50, 200, 1000):
            Zn, _, _ = solve_Zn_grid(m, n, zs)
            bound = 0.25 * np.sqrt(c1 * (n - 1)) - 1e-8
            violations += int(np.sum(np.abs(Zn) < bound))
    report(6, violations == 0,
           f"|Z_n| lower bound, {violations} violations over 6000 samples")


def test_criterion_07_voiculescu_additivity():
    worst = 0.0
    for m in (bernoulli_measure(), semicircle_measure(4001)):
        m2 = power_transform(m, 2)
        for y in (10.0, 20.0, 50.0, 100.0):
            phi1 = voiculescu(m, 1j * y)
            phi2 = voiculescu(m2, 1j * y)
            worst = max(worst, abs(phi2 - 2 * phi1))
    report(7, worst < 1e-6,
           f"phi additivity under self-convolution, max error {worst:.2e}")


def test_criterion_08_mass_identity():
    y = 1e4
    worst = 0.0
    for m in (bernoulli_measure(), semicircle_measure(2001)):
        m1, var = m.moment(1), m.variance()
        for n in (2, 16):
            Zn, _, _ = solve_Zn_grid(m, n, np.asarray(1j * y))
            got = -np.real(1j * y * (Zn - 1j * y + (n - 1) * m1))
            worst = max(worst, abs(got - (n - 1) * var) / ((n - 1) * var))
    report(8, worst < 0.01,
           f"subordination mass identity at y=1e4, max relative error {worst:.2e}")


def test_criterion_09_tail_smoothing_inequality():
    from freeconv.inversion import tail_smoothing_check
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(20):
        k = rng.integers(2, 6)
        pos = np.sort(rng.uniform(-5, 5, k))
        w = rng.dirichlet(np.ones(k))
        m = make_atomic(list(zip(pos, w)))
        for u in (0.1, 0.5, 1.0, 2.0, 5.0):
            _, _, holds = tail_smoothing_check(m, u)
            violations += int(not holds)
    report(9, violations == 0,
           f"tail/characteristic-function inequality, {violations} violations "
           "over 100 checks")


def test_criterion_10_id_verdicts():
    verdicts = {}
    for name, spec in (("semicircle", idlaws.semicircle()),
                       ("free_poisson", idlaws.free_poisson(2.0)),
                       ("meixner_w1", idlaws.meixner_w(1.0))):
        verdicts[name] = idlaws.is_free_id_sampled(idlaws.family_measure(spec))
    verdicts["bernoulli"] = idlaws.is_free_id_sampled(bernoulli_measure())
    ok = (verdicts["semicircle"].passes and verdicts["free_poisson"].passes
          and verdicts["meixner_w1"].passes
          and verdicts["bernoulli"].kind in ("fails_at", "continuation_broken"))
    summary = ", ".join(f"{k}={str(v).split('(')[0]}"
                        for k, v in verdicts.items())
    report(10, ok, f"divisibility verdicts: {summary}")


def test_criterion_11_boundary_curve():
    m = bernoulli_measure()
    worst = 0.0
    for n in (5, 50):
        xs = np.linspace(-np.sqrt(n - 1) - 0.5, np.sqrt(n - 1) + 0.5, 101)
        ref = np.sqrt(np.maximum(n - 1 - xs**2, 0.0))
        got = boundary_curve(m, n, xs)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    report(11, worst < 1e-8,
           f"Bernoulli boundary curve vs closed form, max error {worst:.2e}")


def test_criterion_12_rates_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rates_{tag}.csv"
        cfg = tmp_path / f"cfg_{tag}.json"
        cfg.write_text(json.dumps({
            "measure": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
            "n_values": [4, 8, 16, 32],
            "output_path": str(out),
        }))
        assert cli_main(["rates", str(cfg)]) == 0
        blobs.append(out.read_bytes())
    report(12, blobs[0] == blobs[1],
           f"rates output byte-identical across runs ({len(blobs[0])} bytes)")
