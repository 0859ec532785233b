"""Probability measures on the real line.

A measure is a finite list of atoms plus a piecewise-linear density on an
explicit grid (zero outside the grid).  Instances are immutable; every
transformer returns a new object.  Mass is conserved to 1e-9 by all public
constructors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MassNotOne, NonPositiveWeight, OrderTooLarge

MAX_MOMENT_ORDER = 64
MASS_TOL = 1e-9
ATOM_MERGE_TOL = 1e-12


def _merge_atoms(positions, weights):
    """Sort atoms and merge positions closer than ATOM_MERGE_TOL."""
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    weights = weights[order]
    out_pos, out_w = [], []
    for p, w in zip(positions, weights):
        if out_pos and p - out_pos[-1] <= ATOM_MERGE_TOL:
            out_w[-1] += w
        else:
            out_pos.append(p)
            out_w.append(w)
    return np.asarray(out_pos, dtype=float), np.asarray(out_w, dtype=float)


@dataclass(frozen=True)
class Measure:
    """Atoms plus piecewise-linear density; the universal transform input.

    Use :func:`make_atomic` / :func:`from_density` / :func:`from_json` to
    build probability measures (they enforce unit mass).  The constructor
    itself only checks structural invariants, so finite non-probability
    measures (e.g. the Nevanlinna representing measure) can reuse the type.
    """

    atom_positions: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    density: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        pos = np.asarray(self.atom_positions, dtype=float)
        wts = np.asarray(self.atom_weights, dtype=float)
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if pos.shape != wts.shape or pos.ndim != 1:
            raise ValueError("atom positions/weights must be 1-d and aligned")
        if grid.shape != dens.shape or grid.ndim != 1:
            raise ValueError("grid/density must be 1-d and aligned")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(wts)):
            raise ValueError("atoms must be finite")
        if np.any(wts <= 0):
            raise NonPositiveWeight("atom weights must be positive")
        pos, wts = _merge_atoms(pos, wts)
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(dens)):
            raise ValueError("grid and density must be finite")
        if grid.size:
            if grid.size < 2:
                raise ValueError("density grid needs at least 2 nodes")
            if np.any(np.diff(grid) <= 0):
                raise ValueError("grid must be strictly increasing")
            if np.any(dens < 0):
                raise ValueError("density values must be nonnegative")
        for name, val in (("atom_positions", pos), ("atom_weights", wts),
                          ("grid", grid), ("density", dens)):
            arr = np.ascontiguousarray(val)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- elementary functionals -------------------------------------------

    def _integral(self, f):
        """Integral of f: exact over the atoms, trapezoid over the density."""
        total = np.sum(self.atom_weights * f(self.atom_positions))
        if self.grid.size:
            total = total + np.trapezoid(f(self.grid) * self.density, self.grid)
        return total

    def mass(self) -> float:
        return float(self._integral(lambda x: 1.0))

    def is_atomic(self) -> bool:
        return self.grid.size == 0

    def moment(self, k: int) -> float:
        """k-th raw moment."""
        if k < 0 or k > MAX_MOMENT_ORDER:
            raise OrderTooLarge(f"moment order {k} not in [0, {MAX_MOMENT_ORDER}]")
        return float(self._integral(lambda x: x**k))

    def absolute_moment(self, d: float) -> float:
        """beta_d = integral of |x|^d."""
        if d <= 0 or d > MAX_MOMENT_ORDER:
            raise OrderTooLarge(f"absolute moment order {d} not in (0, {MAX_MOMENT_ORDER}]")
        return float(self._integral(lambda x: np.abs(x)**d))

    def variance(self) -> float:
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

    def _split(self, N: float):
        """Atoms and density restricted to [-N, N], and the mass outside it:
        (positions, weights, grid, density, outside)."""
        keep = np.abs(self.atom_positions) <= N
        outside = float(np.sum(self.atom_weights[~keep]))
        grid, dens = self.grid, self.density
        if grid.size:
            dens_mass = float(np.trapezoid(dens, grid))
            grid, dens = _clip_density(grid, dens, N)
            outside += dens_mass - float(np.trapezoid(dens, grid))
        return self.atom_positions[keep], self.atom_weights[keep], grid, dens, outside

    def tail_mass(self, N: float) -> float:
        """Mass outside [-N, N]."""
        if N <= 0:
            raise ValueError("N must be positive")
        return min(max(self._split(N)[-1], 0.0), self.mass())

    def characteristic_function(self, t: float) -> complex:
        return complex(self._integral(lambda x: np.exp(1j * t * x)))

    # -- transformers ------------------------------------------------------

    def dilate(self, s: float) -> "Measure":
        """Pushforward x -> x/s; s = sqrt(n) gives the central-limit scaling."""
        if s <= 0:
            raise ValueError("dilation factor must be positive")
        if s == 1.0:
            return self
        return Measure(self.atom_positions / s, self.atom_weights,
                       self.grid / s, self.density * s)

    def shift(self, c: float) -> "Measure":
        """Pushforward x -> x + c."""
        return Measure(self.atom_positions + c, self.atom_weights,
                       self.grid + c, self.density)

    def truncate(self, N: float) -> "Measure":
        """Move all mass outside [-N, N] to an atom at 0 (no renormalization)."""
        if N <= 0:
            raise ValueError("truncation radius must be positive")
        pos, wts, grid, dens, moved = self._split(N)
        if moved > 0:
            pos = np.append(pos, 0.0)
            wts = np.append(wts, moved)
        return Measure(pos, wts, grid, dens)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"atoms": [[float(x), float(w)] for x, w in
                         zip(self.atom_positions, self.atom_weights)]}
        if self.grid.size:
            out["density"] = {"grid": self.grid.tolist(),
                              "values": self.density.tolist()}
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)


def _clip_density(grid, density, N):
    """Restrict a piecewise-linear density to [-N, N], interpolating at the cut.

    Returns (grid, values), both empty when the support misses [-N, N].
    """
    lo, hi = -float(N), float(N)
    if grid[-1] <= lo or grid[0] >= hi:
        return np.empty(0), np.empty(0)
    xs = [max(lo, float(grid[0])), *[x for x in grid if lo < x < hi],
          min(hi, float(grid[-1]))]
    xs = np.unique(np.asarray(xs, dtype=float))
    return xs, np.interp(xs, grid, density)


def _check_probability(m: Measure) -> Measure:
    total = m.mass()
    if not abs(total - 1.0) <= MASS_TOL:
        raise MassNotOne(f"total mass {total!r} is not 1 within {MASS_TOL}")
    return m


def make_atomic(atoms) -> Measure:
    """Purely atomic probability measure from (position, weight) pairs."""
    if not atoms:
        raise ValueError("need at least one atom")
    pos = np.asarray([a[0] for a in atoms], dtype=float)
    wts = np.asarray([a[1] for a in atoms], dtype=float)
    if np.any(wts <= 0):
        raise NonPositiveWeight("atom weights must be positive")
    if abs(wts.sum() - 1.0) > 1e-12:
        raise MassNotOne(f"atom weights sum to {wts.sum()!r}, expected 1")
    return Measure(pos, wts)


def from_density(grid, values, atoms=(), normalize=False) -> Measure:
    """Probability measure with a piecewise-linear density (plus optional atoms).

    With normalize=True the density values are rescaled so that total mass is
    exactly 1 under the trapezoid rule; otherwise the mass must already be 1.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    pos = np.asarray([a[0] for a in atoms], dtype=float)
    wts = np.asarray([a[1] for a in atoms], dtype=float)
    if normalize:
        atom_mass = float(wts.sum()) if wts.size else 0.0
        dens_mass = float(np.trapezoid(values, grid))
        if dens_mass <= 0:
            raise MassNotOne("cannot normalize a zero density")
        values = values * ((1.0 - atom_mass) / dens_mass)
    return _check_probability(Measure(pos, wts, grid, values))


def _is_number(v) -> bool:
    # bool is an int subclass, but JSON true is no number
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_number, v))


def from_json_dict(data: dict) -> Measure:
    """Measure from its JSON form, {"family": {"name": ..., "params": {...}}}
    or {"atoms": [[x, w], ...], "density": {"grid": [...], "values": [...]}}.
    A field of another JSON type raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a measure must be a JSON object")
    family = data.get("family")
    if family:
        params = family.get("params", {}) if isinstance(family, dict) else None
        if not (isinstance(params, dict) and isinstance(family.get("name"), str)
                and all(map(_is_number, params.values()))):
            raise ValueError("measure 'family' must be an object with a string "
                             "'name' and an object 'params' of numbers")
        from . import idlaws  # family resolution lives there

        return idlaws.family_measure(idlaws.FamilySpec(family["name"], dict(params)))
    atoms = data.get("atoms", [])
    if not (isinstance(atoms, (list, tuple))
            and all(_is_numbers(a) and len(a) == 2 for a in atoms)):
        raise ValueError("measure 'atoms' must be a list of [position, weight] numbers")
    dens = data.get("density") or {}
    grid = dens.get("grid", []) if isinstance(dens, dict) else None
    values = dens.get("values", []) if isinstance(dens, dict) else None
    if not (_is_numbers(grid) and _is_numbers(values)):
        raise ValueError("measure 'density' must be an object with number lists "
                         "'grid' and 'values'")
    atoms = [(float(x), float(w)) for x, w in atoms]
    if grid:
        return from_density(grid, values, atoms=atoms)
    return make_atomic(atoms)


def load(path) -> Measure:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


def moment_vector(m: Measure, K: int) -> list[float]:
    """Moments m_1..m_K of a measure, with a Hankel positivity sanity check."""
    if K < 1 or K > MAX_MOMENT_ORDER:
        raise OrderTooLarge(f"order {K} not in [1, {MAX_MOMENT_ORDER}]")
    ms = [m.moment(k) for k in range(0, K + 1)]
    half = K // 2
    hankel = np.array([[ms[i + j] for j in range(half + 1)] for i in range(half + 1)])
    min_eig = float(np.linalg.eigvalsh(hankel)[0])
    scale = max(1.0, float(np.abs(hankel).max()))
    if min_eig < -1e-9 * scale:
        raise ValueError(f"moment Hankel matrix not PSD (min eig {min_eig})")
    return ms[1:]


def semicircle_measure(points: int = 2001) -> Measure:
    """Grid measure for the standard semicircle law w_0 on cosine-spaced
    nodes: idlaws.family_measure(idlaws.semicircle(), points)."""
    from . import idlaws  # the w_a grid law lives there

    return idlaws.family_measure(idlaws.semicircle(), points)


def bernoulli_measure() -> Measure:
    """Symmetric two-point law at +-1."""
    return make_atomic([(-1.0, 0.5), (1.0, 0.5)])
