"""Stieltjes-Perron inversion to CDF tables, and the Kolmogorov distance.

Inversion integrates -Im G(x + i eta)/pi per grid interval at the levels of a
decreasing eta schedule and extrapolates the interval masses to eta = 0 from
the smallest levels (linear for two levels, sqrt(eta)-aware for three).  The
resulting tables are continuous at grid resolution (atoms below grid scale
appear as steep rises, localized by the cell-refinement rule).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleTooShort
from .measures import Measure
from .transforms import measure_cauchy

ATOM_CELL_THRESHOLD = 0.02
REFINE_FACTOR = 16
CELL_VARIATION = 0.25
MASS_DEFICIT_WARN = 2e-2
DEFAULT_ETA = (0.04, 0.02, 0.01)


@dataclass(frozen=True)
class CdfTable:
    """Sampled distribution function with one-sided values at each node."""

    xs: np.ndarray
    values: np.ndarray
    left_limits: np.ndarray

    def __post_init__(self):
        xs = np.ascontiguousarray(self.xs, dtype=float)
        vals = np.ascontiguousarray(self.values, dtype=float)
        left = np.ascontiguousarray(self.left_limits, dtype=float)
        if not (xs.shape == vals.shape == left.shape) or xs.ndim != 1:
            raise ValueError("xs/values/left_limits must be aligned 1-d arrays")
        # NaN passes every order check below, so it is refused first
        if not all(np.isfinite(a).all() for a in (xs, vals, left)):
            raise ValueError("xs/values/left_limits must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError("cdf values must lie in [0, 1]")
        if np.any(left > vals + 1e-12):
            raise ValueError("left limits must not exceed values")
        if np.any(np.diff(vals) < -1e-12) or np.any(left[1:] < vals[:-1] - 1e-12):
            raise ValueError("cdf must be nondecreasing")
        for name, arr in (("xs", xs), ("values", np.clip(vals, 0.0, 1.0)),
                          ("left_limits", np.clip(left, 0.0, 1.0))):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def value_at(self, x):
        """F(x+): right-continuous evaluation, linear between nodes."""
        return self._eval(x, from_left=False)

    def left_at(self, x):
        """F(x-): limit from below."""
        return self._eval(x, from_left=True)

    def _eval(self, x, from_left):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs, vals, left = self.xs, self.values, self.left_limits
        idx = np.searchsorted(xs, x, side="right") - 1
        out = np.empty(x.shape)
        below = idx < 0
        above = idx >= xs.size - 1
        out[below] = 0.0
        out[above] = vals[-1]
        if from_left:
            out[above & (x == xs[-1])] = left[-1]
        mid = ~below & ~above
        i = idx[mid]
        on_node = xs[i] == x[mid]
        # between nodes: interpolate from F(xs[i]+) to F(xs[i+1]-)
        t = (x[mid] - xs[i]) / (xs[i + 1] - xs[i])
        interp = vals[i] + t * (left[i + 1] - vals[i])
        node_val = left[i] if from_left else vals[i]
        out[mid] = np.where(on_node, node_val, interp)
        return float(out[0]) if scalar else out

    def total_mass(self) -> float:
        return float(self.values[-1])

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("x,cdf,cdf_left\n")
            for x, v, l in zip(self.xs, self.values, self.left_limits):
                fh.write(f"{x:.12g},{v:.12g},{l:.12g}\n")


def load_cdf_csv(path) -> CdfTable:
    xs, vals, left = [], [], []
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header[:3]] != ["x", "cdf", "cdf_left"]:
            raise ValueError(f"unexpected CDF CSV header: {header}")
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            vals.append(float(row[1]))
            left.append(float(row[2]))
    return CdfTable(np.array(xs), np.array(vals), np.array(left))


@dataclass(frozen=True)
class DistanceReport:
    distance: float
    argmax_x: float


def _eta_levels(eta_schedule) -> tuple:
    """The schedule as floats: at least two levels, finite, positive and
    strictly decreasing, else ScheduleTooShort."""
    levels = tuple(float(e) for e in eta_schedule)
    if len(levels) < 2:
        raise ScheduleTooShort("eta schedule needs at least two entries")
    if not (all(0 < e < np.inf for e in levels)
            and all(b < a for a, b in zip(levels, levels[1:]))):
        raise ScheduleTooShort("eta schedule must be strictly decreasing, "
                               "positive and finite")
    return levels


def _extrapolation_weights(schedule):
    """Coefficients w with sum(w * m(eta_i)) -> m(0).

    Two levels cancel a linear-in-eta error.  Three levels fit
    m0 + a*sqrt(eta) + b*eta, which also cancels the sqrt(eta) term produced
    by inverse-square-root density edges.
    """
    if len(schedule) >= 3:
        etas = np.asarray(schedule[-3:])
        V = np.column_stack([np.ones_like(etas), np.sqrt(etas), etas])
    else:
        etas = np.asarray(schedule[-2:])
        V = np.column_stack([np.ones_like(etas), etas])
    e0 = np.zeros(etas.size)
    e0[0] = 1.0
    return np.linalg.solve(V.T, e0), len(schedule) - etas.size


def _interval_masses(g, xs, eta, row):
    """Interval masses at one eta level, and the mask of the cells refined;
    row holds g(xs + i eta)."""
    dens = np.maximum(-np.imag(row) / np.pi, 0.0)
    h = np.diff(xs)
    masses = 0.5 * h * (dens[:-1] + dens[1:])
    # On cells no wider than eta the endpoint trapezoid is kept even where it
    # is a poor quadrature of the smoothed density: on a uniform grid its
    # aliasing error largely cancels the smoothing bias itself.  Cells WIDER
    # than eta can hide structure between the nodes (smoothed atoms, density
    # edges), so those are re-integrated when the endpoint densities differ
    # strongly.
    lo = np.minimum(dens[:-1], dens[1:])
    hi = np.maximum(dens[:-1], dens[1:])
    floor = 1e-9 * float(dens.max(initial=0.0))
    flagged = (hi - lo > CELL_VARIATION * lo + floor) & (h > eta)
    _refine_cells(g, xs, eta, masses, np.nonzero(flagged)[0])
    return masses, flagged


def _refine_cells(g, xs, eta, masses, idx):
    """Re-integrate the cells idx at level eta on a subgrid, into masses."""
    if idx.size:
        t = np.linspace(0.0, 1.0, REFINE_FACTOR + 1)
        sub = xs[idx, None] + np.diff(xs)[idx, None] * t
        dsub = np.maximum(-np.imag(g(sub.ravel() + 1j * eta)) / np.pi, 0.0)
        dsub = dsub.reshape(sub.shape)
        masses[idx] = np.trapezoid(dsub, sub, axis=1)


def _detect_atoms(g, xs, eta, row):
    """Locate point masses sitting on grid nodes, before the continuous pass.

    Candidates come from cells concentrating a large share of the total mass
    at the smallest eta.  At a node x0 carrying an atom of weight w the
    quantity A(s) = -s Im g(x0 + i s) equals w + O(s), while any integrable
    density contributes O(s) (O(sqrt(s)) at an inverse-square-root edge), so
    the Richardson value 2 A(eta) - A(2 eta) estimates the weight.  A
    candidate is accepted only when that estimate accounts for at least half
    of the concentrated run's mass; resolved steep densities fail this and
    stay continuous, as do atoms farther than about eta from every node.
    row holds g(xs + i eta).  Returns a list of (node_index, weight).
    """
    dens = np.maximum(-np.imag(row) / np.pi, 0.0)
    h = np.diff(xs)
    cell = 0.5 * h * (dens[:-1] + dens[1:])
    heavy = np.nonzero(cell > ATOM_CELL_THRESHOLD)[0]
    atoms = []
    for grp in np.split(heavy, np.nonzero(np.diff(heavy) > 2)[0] + 1):
        if grp.size == 0:
            continue
        lo = max(grp[0] - 1, 0)
        hi = min(grp[-1] + 2, xs.size - 1)
        cand = xs[lo:hi + 1]
        a1 = -eta * np.imag(g(cand + 1j * eta))
        a2 = -2.0 * eta * np.imag(g(cand + 2j * eta))
        w_est = 2.0 * a1 - a2
        j = int(np.argmax(w_est))
        # the endpoint trapezoid overshoots badly across a spike, so the
        # run's mass is measured on a refined subgrid of the window
        sub = np.linspace(xs[lo], xs[hi], REFINE_FACTOR * (hi - lo) + 1)
        dsub = np.maximum(-np.imag(g(sub + 1j * eta)) / np.pi, 0.0)
        run_mass = float(np.trapezoid(dsub, sub))
        if w_est[j] > 0 and w_est[j] >= 0.5 * run_mass:
            atoms.append((lo + j, float(min(w_est[j], 1.0))))
    return atoms


def stieltjes_cdf(g, xs, eta_schedule=DEFAULT_ETA) -> CdfTable:
    """Recover the CDF table of a probability measure from its Cauchy-transform
    evaluator g.

    g maps complex arrays in the upper half plane to G values with
    -Im G >= 0.  The eta schedule needs at least two levels, finite, positive
    and strictly decreasing (else ScheduleTooShort).  Interval masses at the
    smallest eta levels are extrapolated to eta = 0 (linearly for a two-level
    schedule; with an extra sqrt(eta) term for three, which handles
    square-root density edges), cumulated and clipped to [0, 1].  A mass
    deficit above MASS_DEFICIT_WARN is warned about.

    Only the last three levels (two for a two-level schedule) are evaluated:
    with eta_schedule (0.1, 0.05, 0.02, 0.01), g is never called at 0.1.
    """
    xs = np.asarray(xs, dtype=float)
    if (xs.ndim != 1 or xs.size < 2 or not np.all(np.isfinite(xs))
            or np.any(np.diff(xs) <= 0)):
        raise ValueError("xs must be a strictly increasing finite grid")
    schedule = _eta_levels(eta_schedule)
    jumps = np.zeros(xs.size)
    weights, skip = _extrapolation_weights(schedule)
    used = schedule[skip:]
    # each full-grid row is evaluated once; the smallest level's row also
    # serves atom detection
    z_min = xs + 1j * used[-1]
    row_min = g(z_min)
    atoms = _detect_atoms(g, xs, used[-1], row_min)
    gc = g
    if atoms:
        found = Measure(xs[[j for j, _ in atoms]], [w for _, w in atoms])
        for j, w in atoms:
            jumps[j] += w

        # integrate the continuous remainder; the detected point masses are
        # re-added as jumps below
        def gc(z):
            return g(z) - measure_cauchy(found, z)

        row_min = row_min - measure_cauchy(found, z_min)
    rows = [gc(xs + 1j * eta) for eta in used[:-1]] + [row_min]
    per_eta = [_interval_masses(gc, xs, eta, row) for eta, row in zip(used, rows)]
    masses = sum(w * m for w, (m, _) in zip(weights, per_eta))
    # concentrated cells get a refined re-integration at every used level;
    # the cells a level has refined already keep their masses
    refine = np.nonzero(masses > ATOM_CELL_THRESHOLD)[0]
    if refine.size:
        for eta, (m, refined) in zip(used, per_eta):
            _refine_cells(gc, xs, eta, m, refine[~refined[refine]])
        masses = sum(w * m for w, (m, _) in zip(weights, per_eta))
    masses = np.maximum(masses, 0.0)
    cont = np.concatenate(([0.0], np.cumsum(masses)))   # mass strictly below node k
    values = cont + np.cumsum(jumps)                    # F(x_k+)
    values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    left = np.clip(values - jumps, 0.0, 1.0)            # F(x_k-)
    left = np.maximum(left, np.concatenate(([0.0], values[:-1])))
    deficit = 1.0 - values[-1]
    if deficit > MASS_DEFICIT_WARN:
        warnings.warn(f"inversion grid lost {deficit:.3g} of 1 total mass; "
                      "widen the grid or refine the eta schedule", stacklevel=2)
    return CdfTable(xs, values, left)


def measure_to_cdf(m: Measure) -> CdfTable:
    """Exact CDF table of a measure (atom jumps plus cumulative density)."""
    xs = np.unique(np.concatenate((m.atom_positions, m.grid)))
    if xs.size == 0:
        raise ValueError("empty measure")
    dens_cum = np.zeros(xs.size)
    if m.grid.size:
        h = np.diff(m.grid)
        cum = np.concatenate(([0.0],
                              np.cumsum(0.5 * h * (m.density[:-1] + m.density[1:]))))
        dens_cum = np.interp(xs, m.grid, cum, left=0.0, right=cum[-1])
    atom_right = np.zeros(xs.size)
    atom_left = np.zeros(xs.size)
    if m.atom_positions.size:
        w_cum = np.concatenate(([0.0], np.cumsum(m.atom_weights)))
        atom_right = w_cum[np.searchsorted(m.atom_positions, xs, side="right")]
        atom_left = w_cum[np.searchsorted(m.atom_positions, xs, side="left")]
    values = np.clip(dens_cum + atom_right, 0.0, 1.0)
    left = np.clip(dens_cum + atom_left, 0.0, 1.0)
    return CdfTable(xs, values, left)


def kolmogorov(a: CdfTable, b: CdfTable) -> DistanceReport:
    """sup_x |F_a - F_b| over the union of both grids, using one-sided values."""
    xs = np.union1d(a.xs, b.xs)
    diff_right = np.abs(a.value_at(xs) - b.value_at(xs))
    diff_left = np.abs(a.left_at(xs) - b.left_at(xs))
    diff = np.maximum(diff_right, diff_left)
    i = int(np.argmax(diff))
    return DistanceReport(distance=float(diff[i]), argmax_x=float(xs[i]))


def tail_smoothing_check(m: Measure, u: float):
    """Tail-vs-characteristic-function inequality: returns (lhs, rhs, holds).

    lhs = mass outside [-2/u, 2/u]; rhs = (2/u) int_0^u (1 - Re phi(t)) dt.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    lhs = m.tail_mass(2.0 / u)
    ts = np.linspace(0.0, u, 1000)
    re_phi = np.array([m.characteristic_function(t).real for t in ts])
    rhs = (2.0 / u) * float(np.trapezoid(1.0 - re_phi, ts))
    return lhs, rhs, lhs <= rhs + 1e-9
