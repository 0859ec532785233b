"""Reference free infinitely divisible laws and a sampled divisibility check.

The one-parameter family w_a has the closed-form Cauchy transform

    G(z) = 1 / (a + (z - a + sqrt((z - a)^2 - 4)) / 2)

with the square-root branch fixed by Im z > 0  =>  Im(1/G) >= Im z.  Its
Voiculescu transform is 1/(z - a), so its free cumulants are a^(k-2): w_a is
the standardized free Poisson law of rate 1/a^2, and w_0 the standard
semicircle law.  Every family is therefore the law of c + s W with W ~ w_a
(family_affine), and its transform and grid measure are built from w_a's.
Each family is one row of _FAMILIES, which also fixes the parameters a
FamilySpec may set: each finite, the variance positive, else OutOfRange.
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
FAMILY_NAMES = tuple(_FAMILIES)


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


def _wa_transform(a: float):
    """transform(z, prime) of w_a: [G], with G' = -(1 + w/S)/(2 F^2) for
    w = z - a, F = 1/G and S = sqrt(w + 2) sqrt(w - 2), the root of w^2 - 4
    with its cut on [-2, 2], when prime."""
    def transform(z, prime):
        z = np.asarray(z, dtype=complex)
        w = z - a
        s = np.sqrt(w + 2.0) * np.sqrt(w - 2.0)
        F = a + 0.5 * (w + s)
        out = [1.0 / F]
        if np.any((z.imag > 0) & ((1.0 / out[0]).imag < z.imag - 1e-10)):
            raise AssertionError("square-root branch violated Im(1/G) >= Im z")
        if prime:
            out.append(-0.5 * (1.0 + w / s) / (F * F))
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
    """(G, G_with_prime) closed-form evaluators for a family spec, from
    G(z) = G_W((z - c)/s)/s and G'(z) = G_W'((z - c)/s)/s^2; G_with_prime
    returns (G, G') from one pass."""
    a, c, s = family_affine(spec)
    transform = _wa_transform(a)
    # w_a itself skips the identity map, 17% of the rate reference tables' G time
    if (c, s) != (0.0, 1.0):
        wa = transform

        def transform(z, prime):
            vals = wa((np.asarray(z, dtype=complex) - c) / s, prime)
            return [v / d for v, d in zip(vals, (s, s * s))]

    return _evaluator(transform)


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
