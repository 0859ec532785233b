"""Reference free infinitely divisible laws and a sampled divisibility check.

The one-parameter family w_a has the closed-form Cauchy transform

    G(z) = 1 / (a + (z - a + sqrt((z - a)^2 - 4)) / 2)

with the square-root branch fixed by Im z > 0  =>  Im(1/G) >= Im z.  Its
Voiculescu transform is 1/(z - a), so its free cumulants are a^(k-2): w_a is
the standardized free Poisson law of rate 1/a^2, and w_0 the standard
semicircle law.  Every family is therefore the law of c + s W with W ~ w_a
(family_affine), and its transform and grid measure are built from w_a's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import measures
from .errors import InversionDiverged, OutOfRange
from .measures import Measure
from .transforms import as_evaluator, newton_invert

FAMILY_NAMES = ("semicircle", "free_poisson", "meixner_w")


@dataclass(frozen=True)
class FamilySpec:
    """Closed-form law tag: usable directly as a transform source."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise OutOfRange(f"unknown family {self.name!r}")
        p = dict(self.params)
        if self.name == "semicircle":
            p.setdefault("mean", 0.0)
            p.setdefault("variance", 1.0)
            if p["variance"] <= 0:
                raise OutOfRange("semicircle variance must be positive")
        elif self.name == "free_poisson":
            p.setdefault("rate", 1.0)
            if p["rate"] <= 0:
                raise OutOfRange("free Poisson rate must be positive")
        else:
            p.setdefault("a", 0.0)
        object.__setattr__(self, "params", p)


def semicircle(mean: float = 0.0, variance: float = 1.0) -> FamilySpec:
    return FamilySpec("semicircle", {"mean": mean, "variance": variance})


def free_poisson(rate: float) -> FamilySpec:
    return FamilySpec("free_poisson", {"rate": rate})


def meixner_w(a: float) -> FamilySpec:
    return FamilySpec("meixner_w", {"a": a})


def _edge_sqrt(z, lo, hi):
    """sqrt((z-lo)(z-hi)) with branch cut [lo, hi], asymptotic to z at infinity."""
    return np.sqrt(z - lo) * np.sqrt(z - hi)


def _meixner_pair(a: float):
    """(G, G_with_prime) of w_a; G_with_prime shares G's square root, with
    G' = -(1 + w/S)/(2 F^2) for w = z - a, S = sqrt(w^2 - 4) and F = 1/G."""
    def G_with_prime(z):
        z = np.asarray(z, dtype=complex)
        w = z - a
        s = _edge_sqrt(w, -2.0, 2.0)
        F = a + 0.5 * (w + s)
        g = 1.0 / F
        _assert_branch(z, g)
        return g, -0.5 * (1.0 + w / s) / (F * F)

    def G(z):
        z = np.asarray(z, dtype=complex)
        w = z - a
        g = 1.0 / (a + 0.5 * (w + _edge_sqrt(w, -2.0, 2.0)))
        _assert_branch(z, g)
        return g

    return G, G_with_prime


def _assert_branch(z, g):
    up = z.imag > 0
    if np.any(up):
        f = 1.0 / np.asarray(g)
        bad = up & (f.imag < np.asarray(z).imag - 1e-10)
        if np.any(bad):
            raise AssertionError("square-root branch violated Im(1/G) >= Im z")


def family_affine(spec: FamilySpec) -> tuple[float, float, float]:
    """(a, c, s) such that the family law is the law of c + s W, W ~ w_a.

    semicircle(m, v) is a = 0, c = m, s = sqrt(v); free_poisson(r) is
    a = 1/sqrt(r), c = r, s = sqrt(r); meixner_w(a) is w_a itself.
    """
    p = spec.params
    if spec.name == "semicircle":
        return 0.0, p["mean"], float(np.sqrt(p["variance"]))
    if spec.name == "free_poisson":
        s = float(np.sqrt(p["rate"]))
        return 1.0 / s, p["rate"], s
    return p["a"], 0.0, 1.0


def family_transform(spec: FamilySpec):
    """(G, G_with_prime) closed-form evaluators for a family spec, from
    G(z) = G_W((z - c)/s)/s and G'(z) = G_W'((z - c)/s)/s^2; G_with_prime
    returns (G, G') from one pass."""
    a, c, s = family_affine(spec)
    G_W, G_with_prime_W = _meixner_pair(a)
    # w_a itself skips the identity map, 17% of the rate reference tables' G time
    if (c, s) == (0.0, 1.0):
        return G_W, G_with_prime_W

    def G_with_prime(z):
        g, gp = G_with_prime_W((np.asarray(z, dtype=complex) - c) / s)
        return g / s, gp / (s * s)

    return (lambda z: G_W((np.asarray(z, dtype=complex) - c) / s) / s,
            G_with_prime)


def family_measure(spec: FamilySpec, points: int = 4001) -> Measure:
    """Grid Measure realizing a family law: the (c, s) image of the w_a law
    on cosine-spaced nodes, with w_a's closed-form density and its atom."""
    return measures._wa_grid_law(*family_affine(spec), points)


# -- sampled infinite-divisibility verdict ----------------------------------

@dataclass(frozen=True)
class IdVerdict:
    kind: str                 # "passes" | "fails_at" | "continuation_broken"
    z: complex | None = None
    detail: str = ""

    @property
    def passes(self) -> bool:
        return self.kind == "passes"

    def __str__(self):
        if self.passes:
            return "PassesSampledCriterion"
        tag = "FailsAt" if self.kind == "fails_at" else "ContinuationBroken"
        return f"{tag}(z={self.z:.4g}) {self.detail}".rstrip()


DEFAULT_DEPTH_GRID = tuple(np.geomspace(200.0, 1.5, 120))


def is_free_id_sampled(source, depth_grid=None, width: float = 2.0,
                       x_samples: int = 9) -> IdVerdict:
    """Sampled check of the divisibility criterion: the Voiculescu transform
    must continue analytically down the sampled strip with Im phi <= 0 and
    sublinear growth at the top.  A heuristic, not a proof.

    Continuation failures are reported as verdicts: Newton divergence and
    deviations from smooth continuation mean phi is not single-valued along
    the line (a branch point inside the strip), positive Im phi means the
    continuation exists but leaves the Nevanlinna-negative class.

    The x_samples paths Re z = x in [-width, width] are continued in lockstep,
    one Newton solve over all live paths per depth.  The verdict is that of
    the lowest-index failing path at its first failing depth, as if the paths
    were continued one after the other: when path p fails, the paths after it
    are dropped and those before it continue down the grid.
    """
    if depth_grid is None:
        depth_grid = DEFAULT_DEPTH_GRID
    depth = [float(y) for y in depth_grid]
    if len(depth) < 2 or any(b >= a for a, b in zip(depth, depth[1:])):
        raise ValueError("depth grid must be strictly decreasing")
    if depth[-1] < 0.05:
        raise ValueError("depth grid must stay at Im z >= 0.05")
    if x_samples < 1:
        raise ValueError("x_samples must be at least 1")
    if not (np.isfinite(width) and width >= 0):
        raise ValueError("width must be finite and non-negative")
    G_with_prime = as_evaluator(source).G_with_prime
    y_top = depth[0]
    try:
        w_top = newton_invert(G_with_prime, 1j * y_top, 1j * y_top)
    except InversionDiverged:
        return IdVerdict("continuation_broken", 1j * y_top, "no inverse at the top")
    if abs(w_top - 1j * y_top) / y_top >= 0.01:
        return IdVerdict("fails_at", 1j * y_top, "phi grows linearly at the top")
    x = np.linspace(-width, width, x_samples)
    verdict = IdVerdict("passes")
    phis = []                 # phi of the live paths at the last two depths
    for j, y in enumerate(depth):
        z = x + 1j * y
        seed = z + phis[-1] if phis else z
        try:
            w = newton_invert(G_with_prime, z, seed)
            diverged = np.zeros(x.size, dtype=bool)
        except InversionDiverged as exc:
            w, diverged = exc.last_iterate, exc.failed
        phi = w - z
        # (failing paths, kind, detail) in the order each path is checked
        checks = [(diverged, "continuation_broken", "Newton diverged")]
        if phis:
            checks.append((np.abs(phi - phis[-1]) > 0.5, "continuation_broken",
                           "inter-step jump exceeded 0.5"))
        if len(phis) == 2:
            slope = (phis[-1] - phis[-2]) / (depth[j - 1] - depth[j - 2])
            pred = phis[-1] + slope * (y - depth[j - 1])
            off = np.abs(phi - pred) > 0.05 * np.maximum(1.0, np.abs(phis[-1]))
            checks.append((off, "continuation_broken",
                           "continuation left the smooth branch"))
        checks.append((phi.imag > 1e-6, "fails_at", None))
        bad = np.flatnonzero(np.any([c[0] for c in checks], axis=0))
        if bad.size:
            k = bad[0]
            _, kind, detail = next(c for c in checks if c[0][k])
            verdict = IdVerdict(kind, complex(z[k]),
                                detail or f"Im phi = {phi[k].imag:.3g} > 0")
            if not k:
                break
            x, phi = x[:k], phi[:k]
        phis = [p[:x.size] for p in phis[-1:]] + [phi]
    return verdict
