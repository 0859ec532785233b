"""Reference free infinitely divisible laws and a sampled divisibility check.

The one-parameter family w_a has the closed-form Cauchy transform

    G(z) = 1 / (a + (z - a + sqrt((z - a)^2 - 4)) / 2)

with the square-root branch fixed by Im z > 0  =>  Im(1/G) >= Im z.  Its
Voiculescu transform is 1/(z - a), so its free cumulants are a^(k-2): w_a is
the standardized free Poisson law of rate 1/a^2, and w_0 the standard
semicircle law.  Every family is therefore the law of c + s W with W ~ w_a
(family_affine), and its transform and grid measure are w_a's closed form
and grid law mapped by (a, c, s), which live here alone.  Each family is one
row of _FAMILIES, which also fixes the parameters a FamilySpec may set: each
finite, the variance positive, else OutOfRange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import measures
from .errors import InversionDiverged, OutOfRange
from .measures import Measure
from .transforms import _evaluator, as_evaluator, newton_invert

# name -> (default params, the param that is the variance s^2 and must be
# positive, or None for s = 1, and (params, s) -> (a, c) of family_affine)
_FAMILIES = {
    "semicircle": ({"mean": 0.0, "variance": 1.0}, "variance",
                   lambda p, s: (0.0, p["mean"])),
    "free_poisson": ({"rate": 1.0}, "rate", lambda p, s: (1.0 / s, p["rate"])),
    "meixner_w": ({"a": 0.0}, None, lambda p, s: (p["a"], 0.0)),
}


@dataclass(frozen=True)
class FamilySpec:
    """Closed-form law tag: usable directly as a transform source.  params
    sets some of the family's own parameters, each finite."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise OutOfRange(f"unknown family {self.name!r}")
        defaults, variance, _ = _FAMILIES[self.name]
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise OutOfRange(f"{self.name} has no parameters {unknown}; "
                             f"expected keys from {sorted(defaults)}")
        p = {**defaults, **self.params}
        for key, v in p.items():
            if not np.isfinite(v):
                raise OutOfRange(f"{self.name} {key} must be finite, not {v!r}")
        if variance and p[variance] <= 0:
            raise OutOfRange(f"{self.name} {variance} must be positive")
        object.__setattr__(self, "params", p)


def semicircle(mean: float = 0.0, variance: float = 1.0) -> FamilySpec:
    return FamilySpec("semicircle", {"mean": mean, "variance": variance})


def free_poisson(rate: float) -> FamilySpec:
    return FamilySpec("free_poisson", {"rate": rate})


def meixner_w(a: float) -> FamilySpec:
    return FamilySpec("meixner_w", {"a": a})


def _wa_transform(a: float, c: float, s: float):
    """transform(z, prime) of the law of c + s W, W ~ w_a: [G], with G' when
    prime, from w_a's at u = (z - c)/s, G(z) = G_W(u)/s and
    G'(z) = G_W'(u)/s^2.  G_W' = -(1 + w/S)/(2 F^2) for w = u - a,
    F = 1/G_W and S = sqrt(w + 2) sqrt(w - 2), the root of w^2 - 4 with its
    cut on [-2, 2].  At c = 0 and s = 1 every step of the map is exact."""
    inv_s, inv_s2 = 1.0 / s, 1.0 / (s * s)

    def transform(z, prime):
        u = (np.asarray(z, dtype=complex) - c) * inv_s
        w = u - a
        root = np.sqrt(w + 2.0) * np.sqrt(w - 2.0)
        F = a + 0.5 * (w + root)
        if np.any((u.imag > 0) & (F.imag < u.imag - 1e-10)):
            raise AssertionError("square-root branch violated Im(1/G) >= Im z")
        out = [1.0 / F * inv_s]
        if prime:
            out.append(-0.5 * (1.0 + w / root) / (F * F) * inv_s2)
        return out

    return transform


def family_affine(spec: FamilySpec) -> tuple[float, float, float]:
    """(a, c, s) such that the family law is the law of c + s W, W ~ w_a.

    semicircle(m, v) is a = 0, c = m, s = sqrt(v); free_poisson(r) is
    a = 1/sqrt(r), c = r, s = sqrt(r); meixner_w(a) is w_a itself.
    """
    _, variance, a_c = _FAMILIES[spec.name]
    s = float(np.sqrt(spec.params[variance])) if variance else 1.0
    return (*a_c(spec.params, s), s)


def family_transform(spec: FamilySpec):
    """(G, G_with_prime) closed-form evaluators for a family spec;
    G_with_prime returns (G, G') from one pass."""
    return _evaluator(_wa_transform(*family_affine(spec)))


def _wa_density(a: float, y):
    """Closed-form density sqrt(4 - (y - a)^2) / (2 pi (1 + a y)) of w_a.

    It is 0 off the support.  The pole -1/a lies outside the open support,
    so 1 + a y > 0 inside it; 1 + a y vanishes on the support only at the
    edge y = -1/a for |a| = 1 (free Poisson of rate 1), where the root is 0.
    """
    y = np.asarray(y, dtype=float)
    root = 2.0 / (np.pi * 4.0) * np.sqrt(np.maximum(4.0 - (y - a) ** 2, 0.0))
    return root / np.maximum(1.0 + a * y, np.finfo(float).tiny)


def _wa_grid_law(a: float, c: float, s: float, points: int) -> Measure:
    """Grid measure of the law of c + s W with W ~ w_a.

    W's nodes are y = a - 2 cos(theta) on a uniform theta grid, a cosine
    spacing that clusters points at the square-root edges of the support
    [a - 2, a + 2], where a uniform grid loses most of its trapezoid
    accuracy.  For |a| > 1, w_a also has the atom 1 - 1/a^2 at -1/a.
    """
    theta = np.linspace(0.0, np.pi, points)
    y = a - 2.0 * np.cos(theta)
    atoms = []
    if abs(a) > 1.0:  # its image c - s/a is 0 up to rounding for free Poisson
        x0 = c - s / a
        atoms = [(0.0 if abs(x0) <= 1e-15 * abs(c) else x0, 1.0 - 1.0 / a**2)]
    return measures.from_density(c + s * y, _wa_density(a, y) / s, atoms=atoms,
                                 normalize=True)


def family_measure(spec: FamilySpec, points: int = 4001) -> Measure:
    """Grid Measure realizing a family law: the (c, s) image of the w_a law
    on cosine-spaced nodes, with w_a's closed-form density and its atom."""
    return _wa_grid_law(*family_affine(spec), points)


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
