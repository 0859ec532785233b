"""The benchmark's workloads: seeded inputs, the timed job, its oracle and checks.

Every workload is a closed-loop batch job against the public freeconv API, run
one at a time from one process.  Inputs are generated with numpy from the run's
seed and written down as constructor specs; the program receives only the
measures built from them.  A spec's digest depends on the benchmark alone, so
two commits given the same seed can be shown to have used identical inputs.

An operation is one rate row, one CDF or one verdict.  It fails when it raises
a FreeconvError, is listed in ``RateReport.failed`` or fails its output check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from freeconv import bench, idlaws, inversion, measures, subordination, transforms
from freeconv.errors import FreeconvError

RATE_NS = tuple(4 * 2**k for k in range(11))      # 4 .. 4096
SLOPE_BAND = (-1.25, -0.75)                        # acceptance criterion 5
KESTEN_TOL = 5e-3        # eta_min = 0.01 limits CDF accuracy at sqrt edges
GRID_MAX_DISTANCE = 2e-2                           # tests/test_bench.py bound
PAIR_TOL = 2e-5          # grid vs closed-form semicircle route; 3e-6 at the seed
ATOM_TOL = 5e-3          # detected jump vs exact atom weight
PAIR_ATOMS = ((0.0, 0.3), (2.0, 0.1))   # exact atoms of (b), by the atom theorem


# -- inputs -------------------------------------------------------------------

def _atoms(x, w) -> tuple:
    return ("make_atomic", {"atoms": [[float(a), float(b)] for a, b in zip(x, w)]})


def build(spec):
    """The measure a spec names, built through the public constructors."""
    name, kw = spec
    if name == "make_atomic":
        return measures.make_atomic([tuple(a) for a in kw["atoms"]])
    if name == "semicircle_measure":
        return measures.semicircle_measure(kw["points"])
    if name == "bernoulli_measure":
        return measures.bernoulli_measure()
    if name == "family_measure":
        return idlaws.family_measure(idlaws.FamilySpec(kw["name"]), kw["points"])
    raise ValueError(f"unknown input constructor {name!r}")


def digest(spec) -> str:
    """sha256 of a spec; floats are written in their round-trip form."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


def clustered_law(rng, k: int = 8):
    """Random centred unit-variance k-atom law, atoms clustered near -1 and +1.

    Keeping the free kurtosis near that of the Bernoulli law (about -0.9)
    keeps the 1/n term of the distance away from zero, so the fitted slope
    stays inside SLOPE_BAND; laws with free kurtosis near 0 decay faster and
    fit slopes as steep as -1.5 over these n.
    """
    x = np.repeat([-1.0, 1.0], k // 2) * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, k))
    w = rng.dirichlet(np.full(k, 20.0))
    x = x - w @ x
    return x / np.sqrt(w @ x**2), w


def lattice_law(rng, k: int = 16):
    """Random k-atom law on [-2, 2]: a jittered lattice with near-equal weights.

    The pair solver's iteration count depends on where the atoms sit; keeping
    them near a lattice keeps the work of a job nearly the same for every seed.
    """
    step = 4.0 / k
    x = np.linspace(-2.0 + step / 2, 2.0 - step / 2, k) + rng.uniform(-0.4, 0.4, k) * step
    return x, rng.dirichlet(np.full(k, 50.0))


# -- oracles --------------------------------------------------------------------

def semicircle_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(0.5 * x) / np.pi


def kesten_cdf(x, n: int):
    """CDF of the n-fold free power of the +-1 Bernoulli law, rescaled by sqrt(n).

    The power is the Kesten-McKay law with density
    n sqrt(4(n-1) - y^2) / (2 pi (n^2 - y^2)); with y = 2 sqrt(n-1) sin(t) its
    CDF integrates in closed form.
    """
    t = np.arcsin(np.clip(x * np.sqrt(n) / (2.0 * np.sqrt(n - 1.0)), -1.0, 1.0))
    r = (n - 2.0) / n
    F = n / (2 * np.pi) * (t + np.pi / 2 - r * (np.arctan(r * np.tan(t)) + np.pi / 2))
    return np.clip(F, 0.0, 1.0)


# -- outcome of one job ---------------------------------------------------------

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    oracle_err: float = 0.0
    problems: list = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.oracle_err = max(self.oracle_err, other.oracle_err)
        self.problems += other.problems


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable       # rng -> {input name: spec}
    parts: Callable        # {input name: measure} -> {part name: thunk}
    oracle: Callable       # {input name: measure} -> oracle data, computed untimed
    check: Callable        # (result, oracle data) -> Outcome

    def job(self, ms):
        """Run every part; the result maps each part to its value."""
        return {key: run() for key, run in self.parts(ms).items()}


def _attempt(f, *args, **kwargs):
    """One part of a job: f's value, or the FreeconvError it raised."""
    def run():
        try:
            return f(*args, **kwargs)
        except FreeconvError as exc:
            return exc
    return run


def _rate_report(mu, ns, **settings):
    return bench.run_rate_experiment(bench.ExperimentConfig(mu, ns, **settings))


def _rates_parts(ms, ns, **settings):
    return {name: _attempt(_rate_report, mu, ns, **settings) for name, mu in ms.items()}


def _check_rates(result, ns, row_check, slope_band=None):
    out = Outcome()
    for name, rep in result.items():
        out.attempted += len(ns)
        if isinstance(rep, FreeconvError):
            out.fail(len(ns), f"{name}: {rep}")
            continue
        bad = {n for n, _ in rep.failed}
        out.problems += [f"{name} n={n}: {msg}" for n, msg in rep.failed]
        if slope_band and not slope_band[0] <= rep.slope <= slope_band[1]:
            bad.update(ns)
            out.problems.append(f"{name}: slope {rep.slope:.4f} outside {slope_band}")
        for n, _, d in rep.rows:
            msg = row_check(name, n, d, out)
            if msg:
                bad.add(n)
                out.problems.append(f"{name} n={n}: {msg}")
        out.failed += len(bad)
    return out


# rates_atomic ---------------------------------------------------------------

def _rates_atomic_inputs(rng):
    return {"bernoulli": ("bernoulli_measure", {}),
            "two_point": _atoms([-0.5, 2.0], [0.8, 0.2]),
            "clustered8": _atoms(*clustered_law(rng))}


def _rates_atomic_oracle(ms):
    xs = np.linspace(*bench.DEFAULT_GRID)
    sc = semicircle_cdf(xs)
    return {n: float(np.max(np.abs(kesten_cdf(xs, n) - sc))) for n in RATE_NS}


def _rates_atomic_check(result, exact):
    def row(name, n, d, outcome):
        if name != "bernoulli":
            return None
        err = abs(d - exact[n])
        outcome.oracle_err = max(outcome.oracle_err, err)
        return f"off the Kesten-McKay distance by {err:.3g}" if err > KESTEN_TOL else None

    return _check_rates(result, RATE_NS, row, SLOPE_BAND)


# rates_grid -------------------------------------------------------------------

# smaller than the 151-node, 301-point, n <= 16 run ROADMAP item 1 times,
# so that several jobs fit in one run and their median is steady
GRID_NS = (2, 4, 8)
GRID_SETTINGS = {"grid": (-4.0, 4.0, 201)}


def _rates_grid_check(result, _):
    def row(name, n, d, outcome):
        # the semicircle is its own limit, so each distance is pipeline error
        outcome.oracle_err = max(outcome.oracle_err, d)
        return f"distance {d:.3g} >= {GRID_MAX_DISTANCE}" if d >= GRID_MAX_DISTANCE else None

    return _check_rates(result, GRID_NS, row)


# pair_mixed -------------------------------------------------------------------

PAIR_A_GRID = (-6.0, 6.0, 401)
PAIR_B_GRID = (-2.0, 5.0, 701)


def pair_cdf(m1, m2, grid):
    """CDF of m1 boxplus m2 by the pair solver, as ``freeconv convolve`` builds it."""
    G1, _ = transforms.as_evaluator(m1)

    def g(z):
        Z1, _ = subordination.solve_pair_grid(m1, m2, z)
        return G1(Z1)

    return inversion.stieltjes_cdf(g, np.linspace(*grid))


def _pair_inputs(rng):
    return {"semicircle201": ("semicircle_measure", {"points": 201}),
            "atoms16": _atoms(*lattice_law(rng)),
            "b1": _atoms([0.0, 1.0], [0.7, 0.3]),
            "b2": _atoms([0.0, 2.0], [0.6, 0.4])}


def _pair_parts(ms):
    return {"a": _attempt(pair_cdf, ms["semicircle201"], ms["atoms16"], PAIR_A_GRID),
            "b": _attempt(pair_cdf, ms["b1"], ms["b2"], PAIR_B_GRID)}


def _pair_oracle(ms):
    # the same pair through the closed-form semicircle transform
    return pair_cdf(idlaws.semicircle(), ms["atoms16"], PAIR_A_GRID)


def _pair_check(result, closed_form):
    out = Outcome(attempted=2)
    a, b = result["a"], result["b"]
    if isinstance(a, FreeconvError):
        out.fail(1, f"a: {a}")
    else:
        err = inversion.kolmogorov(a, closed_form).distance
        out.oracle_err = err
        if err > PAIR_TOL:
            out.fail(1, f"a: {err:.3g} from the closed-form route")
    if isinstance(b, FreeconvError):
        out.fail(1, f"b: {b}")
        return out
    jumps = b.values - b.left_limits
    nodes = [int(np.argmin(np.abs(b.xs - x))) for x, _ in PAIR_ATOMS]
    errs = [abs(jumps[i] - w) for i, (_, w) in zip(nodes, PAIR_ATOMS)]
    out.oracle_err = max(out.oracle_err, *errs)
    found = np.nonzero(jumps > 0)[0].tolist()
    if found != nodes or max(errs) > ATOM_TOL:
        out.fail(1, f"b: jumps {jumps[found]} at {b.xs[found]}, expected {PAIR_ATOMS}")
    return out


# idcheck_grid -----------------------------------------------------------------

ID_EXPECTED = {"semicircle2001": True, "bernoulli": False}


def _idcheck_inputs(rng):
    # 2001 nodes, not the 4001 of family_measure's default (the CLI route), so
    # that several jobs fit in one run; the code path is the same
    return {"semicircle2001": ("family_measure", {"name": "semicircle", "points": 2001}),
            "bernoulli": ("bernoulli_measure", {})}


def _idcheck_parts(ms):
    return {name: _attempt(idlaws.is_free_id_sampled, m) for name, m in ms.items()}


def _idcheck_oracle(ms):
    # the check continues phi = F^-1(z) - z down the strip by Newton; for the
    # semicircle phi(z) = 1/z, checked at the strip's lowest sampled level
    m = ms["semicircle2001"]
    zs = np.linspace(-2.0, 2.0, 9) + 1j * idlaws.DEFAULT_DEPTH_GRID[-1]
    return max(abs(transforms.voiculescu(m, z) - 1.0 / z) for z in zs)


def _idcheck_check(result, phi_err):
    out = Outcome(attempted=len(result), oracle_err=float(phi_err))
    for name, verdict in result.items():
        if isinstance(verdict, FreeconvError):
            out.fail(1, f"{name}: {verdict}")
        elif verdict.passes != ID_EXPECTED[name]:
            out.fail(1, f"{name}: verdict {verdict}")
    return out


# Why each workload is in the set is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("rates_atomic", _rates_atomic_inputs, partial(_rates_parts, ns=RATE_NS),
             _rates_atomic_oracle, _rates_atomic_check),
    Workload("rates_grid",
             lambda rng: {"semicircle101": ("semicircle_measure", {"points": 101})},
             partial(_rates_parts, ns=GRID_NS, **GRID_SETTINGS),
             lambda ms: None, _rates_grid_check),
    Workload("pair_mixed", _pair_inputs, _pair_parts, _pair_oracle, _pair_check),
    Workload("idcheck_grid", _idcheck_inputs, _idcheck_parts, _idcheck_oracle,
             _idcheck_check),
)}


def warm_up() -> None:
    """One small call through every traced layer, so first-call costs land in set-up."""
    bern = measures.bernoulli_measure()
    transforms.cauchy(measures.semicircle_measure(21), np.linspace(-3.0, 3.0, 7) + 0.1j)
    bench.run_rate_experiment(bench.ExperimentConfig(
        bern, (2, 4), grid=(-3.0, 3.0, 101), eta_schedule=(0.04, 0.02)))
    pair_cdf(bern, measures.make_atomic([(0.0, 0.5), (1.0, 0.5)]), (-4.0, 4.0, 41))
    idlaws.is_free_id_sampled(bern, depth_grid=(200.0, 100.0), x_samples=1)
