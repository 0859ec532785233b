"""Cauchy / reciprocal Cauchy / Voiculescu transforms.

Each law has one transform(z, prime) -> [G(z)], or [G(z), G'(z)] from one
pass when prime: _measure_transform for a :class:`~freeconv.measures.Measure`
(atom sums plus segment-exact integrals of the piecewise-linear density),
w_a's closed form for a family spec of :mod:`freeconv.idlaws`, and one
subordination solve for a power or a pair (:mod:`freeconv.subordination`).
An :class:`Evaluator` makes its two calls, so the G of the one pass is G
alone bit for bit.  All are vectorized over complex arrays in the upper
half plane.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (CauchyVanishes, InversionDiverged, NotCentered,
                     NotUpperHalfPlane, OutOfRange)
from .measures import Measure

# Atoms: _atom_sums puts them on axis 0 and sums each point left to right
# over the float view (numpy sums a lone float column pairwise, so a lone real
# point is summed beside a copy of itself), whatever its batch.  Its
# (atoms, points) tiles hold at most _ATOM_TILE elements, 64 KiB of complex,
# below glibc's mmap threshold (128 KiB), so no temporary of a pass has its
# pages mapped and zeroed afresh.  Points go in blocks of _ATOM_TILE // atoms,
# at least _ATOM_MIN_POINTS, and atoms in tiles of as many rows as fit beside
# a block; each tile adds the sum so far to its first row, so each point still
# adds its atoms in order, and a law of up to 64 atoms is one tile.
# Density, in zones:
#
# * root: far points, |z - c| > _LAURENT_RHO * R about the centre c and
#   half-width R of the density's support, use the Laurent series
#   G(z) = sum_k nu_k R^k / (z - c)^(k+1), with nu_k = int ((t - c)/R)^k p(t) dt
#   the exact moments of the piecewise-linear density;
# * panels: the segments are split into P contiguous panels, each with its own
#   centre c_p, half-width R_p and exact moments.  For the other points, a
#   panel with |z - c_p| > _LAURENT_RHO * R_p is summed by its own series, of
#   the same order; each run of adjacent other panels is summed segment by
#   segment, as follows;
# * a segment is far when its length is below _FAR_RATIO times its midpoint's
#   distance to z.  Far segments are integrated with 6-node Gauss-Legendre,
#   exact to machine precision in that regime, written as one weight vector
#   over all nodes;
# * near segments use the closed-form integral, in real arithmetic.  It is not
#   used for far segments, where it cancels catastrophically.
#
# P = round(sqrt(S/5)) for S segments minimizes the terms a point next to the
# support sums, 60 P series terms plus the 6 S/P nodes of about two panels.
# Below about 320 segments that is more than half of the 6 S nodes of all
# segments, and P = 1: every such point sums all segments.
#
# G' is the Cauchy transform of the distributional derivative of p: the
# piecewise-constant slope plus signed point masses where p jumps at the ends
# of its grid.  This avoids 1/(z - t)^2, whose segment terms at a node nearly
# cancel between the two adjacent segments.  A run of panels summed by
# segments is the restriction of p to the run, which jumps at the run's two
# ends: its G' gets those point masses too.  Inside a run the masses of two
# neighbouring panels would cancel exactly, and are not added.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_FAR_RATIO = 0.1
_LAURENT_RHO = 2.0
_EPS = np.finfo(float).eps


def _laurent_order(rho: float) -> int:
    """Smallest K whose truncation bounds for G and G' are below eps.

    With |nu_k| <= mass and x = 1/rho, the tails after order K are at most
    x^(K+1)/(1 - x) (G, relative to mass/|z - c|) and
    (K+2) x^(K+1)/(1 - x)^2 (G', relative to mass/|z - c|^2).
    """
    x = 1.0 / rho
    k = 0
    while (k + 2) * x ** (k + 1) / (1.0 - x) ** 2 > _EPS:
        k += 1
    return k


_LAURENT_ORDER = _laurent_order(_LAURENT_RHO)


def _panel_count(segments: int) -> int:
    """P, from the terms a point next to the support sums: P series of
    _LAURENT_ORDER + 1 terms and the 6 nodes of the segments of about two
    panels.  P = 1 unless the optimum is at most half of 6 S."""
    terms = _LAURENT_ORDER + 1
    p = max(round((2 * _GL_NODES.size * segments / terms) ** 0.5), 1)
    return p if p * terms + 2 * _GL_NODES.size * segments / p <= 3 * segments else 1


# points per block are chosen so that each temporary array holds about this
# many elements, which bounds memory and keeps the blocks in cache
_BLOCK = 1 << 15
_ATOM_TILE = 1 << 12
_ATOM_MIN_POINTS = 64
_DOT_CHUNK = 8192
# newton_invert stops at |1/G(w) - target| < _NEWTON_TOL * max(1, |target|)
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 200


def require_upper(z):
    z = np.asarray(z, dtype=complex)
    # Im z > 0 alone admits a NaN real part and an infinite imaginary part
    if not np.all(np.isfinite(z) & (z.imag > 0)):
        raise NotUpperHalfPlane("evaluation point must be finite with Im z > 0")
    return z


def _rowdot(a, w):
    """a @ w, with each row's value independent of the other rows.

    BLAS gemv rounds a row differently with its position in the block and
    with the BLAS thread count.  einsum does not, for rows up to its buffer
    size (8192); longer rows are summed in chunks of that length.
    """
    out = np.einsum("ij,j->i", a[:, :_DOT_CHUNK], w[:_DOT_CHUNK])
    for s in range(_DOT_CHUNK, w.size, _DOT_CHUNK):
        out += np.einsum("ij,j->i", a[:, s:s + _DOT_CHUNK], w[s:s + _DOT_CHUNK])
    return out


class _DensityKernel:
    """Set-up of the density part of one measure: segments, nodes, panels and
    their moments."""

    def __init__(self, m: Measure):
        t0, t1 = m.grid[:-1], m.grid[1:]
        v0, v1 = m.density[:-1], m.density[1:]
        keep = (v0 != 0) | (v1 != 0)
        t0, t1, v0, v1 = t0[keep], t1[keep], v0[keep], v1[keep]
        self.size = t0.size
        if not self.size:
            return
        h = t1 - t0
        self.t0, self.t1, self.v0, self.v1, self.dv = t0, t1, v0, v1, v1 - v0
        self.h, self.d = h, (v1 - v0) / h
        self.tm = 0.5 * (t0 + t1)
        self.near_r2 = (h / _FAR_RATIO) ** 2
        u = 0.5 * (1.0 + _GL_NODES)
        half_w = 0.5 * h[:, None] * _GL_WEIGHTS
        self.nodes = (t0[:, None] + h[:, None] * u).ravel()
        self.weights = ((half_w * (v0[:, None] * (1.0 - u) + v1[:, None] * u)).ravel(),
                        (half_w * self.d[:, None]).ravel())
        (self.center,), (self.radius,), self.series = self._series(
            np.array([0, self.size]), np.sum)
        # panel p holds the segments bounds[p] to bounds[p + 1] - 1
        n = _panel_count(self.size)
        self.bounds = np.linspace(0, self.size, n + 1).round().astype(int)
        self.whole = self._run(0, n - 1)
        self.step = _BLOCK // self.nodes.size
        if n > 1:
            self.panel_center, self.panel_radius, self.panel_series = self._series(
                self.bounds, lambda t: np.add.reduceat(t, self.bounds[:-1]))
            self.step = _BLOCK // self.panel_series[0].size

    def _series(self, bounds, total):
        """Centres, half-widths and (G, G') series coefficients of the panels
        whose segments run from bounds[p] to bounds[p + 1] - 1, the series of
        each panel's restriction of p; total sums the segments' terms of each
        panel (np.sum for the one root panel)."""
        a, b = self.t0[bounds[:-1]], self.t1[bounds[1:] - 1]
        center, radius = 0.5 * (a + b), 0.5 * (b - a)
        c, r = (np.repeat(v, np.diff(bounds)) for v in (center, radius))
        nu = self._moments((self.t0 - c) / r, (self.t1 - c) / r, self.h, self.v0,
                           self.v1, total).T
        return center, radius, (nu.astype(complex),
                                (-np.arange(1, _LAURENT_ORDER + 2) * nu).astype(complex))

    @staticmethod
    def _moments(s0, s1, h, v0, v1, total):
        """nu_k for k <= _LAURENT_ORDER, exact for the piecewise-linear density,
        with total summing the segments' terms.

        On a segment, int s^k p = h (v0 P_k + v1 Q_k) / ((k+1)(k+2)), where
        P_k = sum_j (k+1-j) s0^(k-j) s1^j and Q_k = sum_j (j+1) s0^(k-j) s1^j.
        Both follow from e_k = sum_j s0^(k-j) s1^j by one-term recurrences,
        whose terms share a sign away from the centre, so nothing cancels.
        """
        e = np.ones_like(s0)
        P, Q, s1k = e.copy(), e.copy(), e.copy()
        nu = [total(h * (v0 + v1)) / 2.0]
        for k in range(1, _LAURENT_ORDER + 1):
            s1k *= s1
            e = s0 * e + s1k
            P = s0 * P + e
            Q = s1 * Q + e
            nu.append(total(h * (v0 * P + v1 * Q)) / ((k + 1) * (k + 2)))
        return np.array(nu)

    def __call__(self, z, prime):
        """[G] of the density at a 1-d array z, or [G, G'] when prime.

        Each block of points builds its distances, near-segment logarithms
        and Laurent powers once, and both are summed from them.
        """
        out = [np.empty(z.shape, dtype=complex) for _ in range(1 + prime)]
        far = np.abs(z - self.center) > _LAURENT_RHO * self.radius
        for idx, step, fn in ((np.nonzero(far)[0], _BLOCK // (_LAURENT_ORDER + 1),
                               self._laurent),
                              (np.nonzero(~far)[0], self.step, self._panelled)):
            step = max(step, 1)
            for s in range(0, idx.size, step):
                b = idx[s:s + step]
                for o, v in zip(out, fn(z[b], prime)):
                    o[b] = v
        return out

    def _laurent(self, z, prime):
        u = z - self.center
        w = np.empty((u.size, _LAURENT_ORDER + 1), dtype=complex)
        w[:, 0] = 1.0
        w[:, 1:] = (self.radius / u)[:, None]
        np.cumprod(w, axis=1, out=w)
        out = [_rowdot(w, self.series[0]) / u]
        if prime:
            out.append(_rowdot(w, self.series[1]) / (u * u))
        return out

    def _panelled(self, z, prime):
        """Far panels by their series, each run of adjacent other panels by
        _segments."""
        n = self.bounds.size - 1
        if n == 1:
            return self._segments(z, prime, self.whole)
        u = z[:, None] - self.panel_center
        far = np.abs(u) > _LAURENT_RHO * self.panel_radius
        w = np.empty(u.shape + (_LAURENT_ORDER + 1,), dtype=complex)
        w[..., 0] = 1.0
        w[..., 1:] = np.where(far, self.panel_radius / u, 0.0)[..., None]
        np.cumprod(w, axis=2, out=w)
        out = [np.where(far, np.einsum("ipk,pk->ip", w, c) / uk, 0.0).sum(axis=1)
               for c, uk in zip(self.panel_series[:1 + prime], (u, u * u))]
        if far.all():
            return out
        # the runs: at rows[r], panels first[r] to last[r] are summed by
        # segments, and the panels beyond them by series
        direct = np.zeros((z.size, n + 2), dtype=np.int8)
        direct[:, 1:-1] = ~far
        rows, first = np.nonzero(direct[:, 1:] > direct[:, :-1])
        last = np.nonzero(direct[:, 1:] < direct[:, :-1])[1] - 1
        key = first * n + last
        for k in np.unique(key):
            run = self._run(*divmod(int(k), n))
            at = rows[key == k]
            step = max(_BLOCK // run[3].size, 1)
            for s in range(0, at.size, step):
                b = at[s:s + step]
                for o, v in zip(out, self._segments(z[b], prime, run)):
                    o[b] += v
        return out

    def _run(self, first, last):
        """Panels first to last: the index of their first segment, views of
        their segments' midpoints, near radii, nodes and weights, and their
        two ends with the jumps there of p restricted to them."""
        a, b = self.bounds[first], self.bounds[last + 1]
        k = slice(_GL_NODES.size * a, _GL_NODES.size * b)
        return (a, self.tm[a:b], self.near_r2[a:b], self.nodes[k],
                [w[k] for w in self.weights],
                ((self.t0[a], self.v0[a]), (self.t1[b - 1], -self.v1[b - 1])))

    def _segments(self, z, prime, run):
        """[G], or [G, G'] when prime, of the segments of a _run, with the
        jumps at its ends in G'."""
        start, tm, near_r2, tau, weights, ends = run
        x, y = z.real, z.imag
        y2 = (y * y)[:, None]
        dm = x[:, None] - tm
        i, j = np.nonzero(dm * dm + y2 <= near_r2)
        # far segments: sum_k W_k / (z - tau_k) with the near ones zeroed.
        # dx and r share one allocation: glibc's trim threshold grows to twice
        # the largest block it has freed, so two such arrays freed together
        # can exceed it and have the heap trimmed and page-faulted anew at
        # every block, while one array of twice the size cannot
        dx, r = np.empty((2, z.size, tau.size))
        np.subtract(x[:, None], tau, out=dx)
        np.multiply(dx, dx, out=r)
        r += y2
        np.reciprocal(r, out=r)
        r.reshape(z.size, -1, _GL_NODES.size)[i, j] = 0.0
        dx *= r
        # near segments: L = log((z - t0)/(z - t1)), exactly
        j += start
        xi, yi, h = x[i], y[i], self.h[j]
        dx0, dx1 = xi - self.t0[j], xi - self.t1[j]
        yy = yi * yi
        Lr = 0.5 * np.log((dx0 * dx0 + yy) / (dx1 * dx1 + yy))
        Li = np.arctan2(-yi * h, dx0 * dx1 + yy)
        d = self.d[j]
        # int (v0 + d (t - t0))/(z - t) dt = (v0 + d (z - t0)) L - (v1 - v0)
        a, b = self.v0[j] + d * dx0, d * yi
        near = [(a * Lr - b * Li - self.dv[j], a * Li + b * Lr)]
        if prime:
            near.append((d * Lr, d * Li))
        out = []
        for wts, (near_re, near_im) in zip(weights, near):
            re = _rowdot(dx, wts) + np.bincount(i, near_re, minlength=z.size)
            im = -y * _rowdot(r, wts) + np.bincount(i, near_im, minlength=z.size)
            out.append(re + 1j * im)
        if prime:
            for t, s in ends:
                if s:
                    out[1] += s / (z - t)
        return out


def _density_kernel(m: Measure) -> _DensityKernel:
    """The measure's kernel set-up, built on first use and kept on it."""
    kernel = m.__dict__.get("_density_kernel")
    if kernel is None:
        kernel = _DensityKernel(m)
        object.__setattr__(m, "_density_kernel", kernel)
    return kernel


def _atom_sums(pos, wts, z, prime):
    """[sum w/(z - x)], with -sum w/(z - x)^2 when prime, at a 1-d z."""
    out = np.empty((1 + prime, z.size), dtype=z.dtype)
    step = max(_ATOM_TILE // pos.size, _ATOM_MIN_POINTS)
    # tiles of rows atoms; each adds the sum so far to its first row
    rows = max(_ATOM_TILE // max(min(step, z.size), 1), 1)
    tiles = [(pos[lo:lo + rows, None], wts[lo:lo + rows, None])
             for lo in range(0, pos.size, rows)]
    for s in range(0, z.size, step):
        zb = z[s:s + step]
        k = zb.size
        if k == 1 and zb.dtype == float:
            zb = np.repeat(zb, 2)
        g = gp = None
        for x, w in tiles:
            dz = zb - x
            g = _carried_sum(w / dz, g)
            if prime:
                gp = _carried_sum(-w / dz ** 2, gp)
        out[0, s:s + k] = g.view(z.dtype)[:k]
        if prime:
            out[1, s:s + k] = gp.view(z.dtype)[:k]
    return out


def _carried_sum(terms, carry):
    """Column sums of terms over its float view, left to right, with carry
    added to the first row unless carry is None."""
    terms = terms.view(float)
    if carry is not None:
        terms[0] += carry
    return terms.sum(axis=0)


def _measure_transform(m: Measure, z, prime):
    """[G], or [G, G'] when prime, from one pass: atoms by _atom_sums,
    density by kernel."""
    z = np.asarray(z, dtype=complex)
    vals = [np.zeros(z.shape, dtype=complex) for _ in range(1 + prime)]
    if m.atom_positions.size:
        for val, part in zip(vals, _atom_sums(m.atom_positions, m.atom_weights,
                                              z.ravel(), prime)):
            val += part.reshape(z.shape)
    if m.grid.size:
        kernel = _density_kernel(m)
        if kernel.size:
            for val, part in zip(vals, kernel(z.ravel(), prime)):
                val += part.reshape(z.shape)
    return [val if val.shape else complex(val) for val in vals]


def measure_cauchy(m: Measure, z):
    """G(z) = integral of 1/(z-t), to machine precision per atom and segment."""
    return _measure_transform(m, z, False)[0]


def measure_cauchy_with_prime(m: Measure, z):
    """(G(z), G'(z)) from one pass, G'(z) = -integral of 1/(z-t)^2; its G is
    measure_cauchy bit for bit."""
    return tuple(_measure_transform(m, z, True))


class Evaluator(NamedTuple):
    """A law read through its Cauchy transform.

    G(z) alone, for callers that need G only, and G_with_prime(z) ->
    (G(z), G'(z)) from one pass, for callers that form F = 1/G and
    F' = -G'/G^2 at the same points.
    """

    G: Callable
    G_with_prime: Callable


def _evaluator(transform) -> Evaluator:
    """The Evaluator of transform(z, prime) -> [G], or [G, G'] when prime."""
    return Evaluator(lambda z: transform(z, False)[0],
                     lambda z: tuple(transform(z, True)))


def as_evaluator(source) -> Evaluator:
    """Normalize a transform source to an Evaluator.

    Accepts an Evaluator, a Measure or an idlaws.FamilySpec, whose
    closed-form (G, G_with_prime) pair it wraps.
    """
    if isinstance(source, Evaluator):
        return source
    if isinstance(source, Measure):
        return Evaluator(lambda z: measure_cauchy(source, z),
                         lambda z: measure_cauchy_with_prime(source, z))
    from . import idlaws

    if isinstance(source, idlaws.FamilySpec):
        return Evaluator(*idlaws.family_transform(source))
    raise TypeError(f"cannot interpret {source!r} as a transform source")


def cauchy(source, z):
    """Cauchy transform at z in the upper half plane."""
    z = require_upper(z)
    G, _ = as_evaluator(source)
    out = G(z)
    return out if np.ndim(out) else complex(out)


def reciprocal_cauchy(source, z):
    """F(z) = 1/G(z); maps the upper half plane into itself with Im F >= Im z."""
    z = require_upper(z)
    G, _ = as_evaluator(source)
    g = np.asarray(G(z))
    if np.any(g == 0):
        raise CauchyVanishes("Cauchy transform vanished in the upper half plane")
    f = 1.0 / g
    if np.any(f.imag < z.imag - 1e-8):
        raise CauchyVanishes("reciprocal transform left the Nevanlinna class; "
                             "source is not a probability measure")
    return f if f.shape else complex(f)


def c1_index(source) -> float:
    """c1 = Im(1/G(i)) - 1; zero exactly for a single Dirac atom."""
    f = reciprocal_cauchy(source, 1j)
    return float(np.imag(f)) - 1.0


def newton_invert(G_with_prime, target, seed):
    """Solve 1/G(w) = target for w in the upper half plane by damped Newton.

    target and seed are complex scalars or arrays of one broadcast shape;
    G_with_prime is called on 1-d arrays and returns (G, G') there, from one
    pass (an Evaluator's G_with_prime).  F = 1/G and F' = -G'/G^2 are formed
    from the G and G' kept for each iterate, so each point visited is
    evaluated once.  Each point runs its own damped Newton: the step is
    halved (up to 60 times) until it stays in the upper half plane and lowers
    |F(w) - target|.  A point converges when that residual is below
    _NEWTON_TOL * max(1, |target|), and fails after _NEWTON_MAX_ITER steps.
    A point leaves the batch when it converges or fails, so its iterates do
    not depend on the other points.  A scalar call returns a complex, an
    array call an array of the broadcast shape.

    Divergence is reported, never silently replaced by a fallback value: once
    every point has finished, InversionDiverged is raised with last_iterate of
    the broadcast shape (converged points hold their solution) and, for an
    array call, a boolean mask ``failed`` of the points that did not converge.
    """
    t, w = np.broadcast_arrays(np.asarray(target, dtype=complex),
                               np.asarray(seed, dtype=complex))
    shape = t.shape
    t, w = t.ravel(), w.ravel()
    w = np.where(w.imag <= 0, w.real + 1e-3j, w)
    lim = _NEWTON_TOL * np.maximum(1.0, np.abs(t))
    g, gp = (np.array(v, dtype=complex) for v in G_with_prime(w))
    r = 1.0 / g - t
    errors = {}                 # index of a failed point -> reason
    act = np.arange(t.size)
    for _ in range(_NEWTON_MAX_ITER):
        act = act[~(np.abs(r[act]) < lim[act])]
        if not act.size:
            break
        ga = g[act]
        dF = -gp[act] / (ga * ga)
        zero = dF == 0
        errors.update(dict.fromkeys(act[zero].tolist(), "Newton derivative vanished"))
        act, dF = act[~zero], dF[~zero]
        # line search: todo holds the positions in act of the points whose
        # step is not yet accepted, and stalled marks them
        stalled = np.ones(act.size, dtype=bool)
        todo, step, lam = np.arange(act.size), r[act] / dF, 1.0
        for _ in range(60):
            if not todo.size:
                break
            pts = act[todo]
            w_new = w[pts] - lam * step
            up = np.flatnonzero(w_new.imag > 0)
            if up.size:
                g_new, gp_new = G_with_prime(w_new[up])
                r_new = 1.0 / g_new - t[pts[up]]
                ok = np.abs(r_new) < np.abs(r[pts[up]])
                done = up[ok]
                acc = pts[done]
                w[acc], r[acc] = w_new[done], r_new[ok]
                g[acc], gp[acc] = g_new[ok], gp_new[ok]
                stalled[todo[done]] = False
                keep = stalled[todo]
                todo, step = todo[keep], step[keep]
            lam *= 0.5
        errors.update(dict.fromkeys(act[stalled].tolist(), "Newton step stalled"))
        act = act[~stalled]
    act = act[~(np.abs(r[act]) < lim[act])]
    errors.update((i, f"Newton did not converge (residual {abs(r[i]):.3e})")
                  for i in act.tolist())
    last = w.reshape(shape) if shape else complex(w[0])
    if errors:
        failed = np.zeros(t.size, dtype=bool)
        failed[list(errors)] = True
        message = errors[min(errors)]
        if shape:
            message += f" at {len(errors)} of {t.size} points"
        raise InversionDiverged(message, last_iterate=last,
                                failed=failed.reshape(shape) if shape else None)
    return last


def voiculescu(source, z: complex) -> complex:
    """phi(z) = F^(-1)(z) - z by verified Newton inversion of F, seeded at z."""
    z = complex(require_upper(z))
    phi = newton_invert(as_evaluator(source).G_with_prime, z, z) - z
    if phi.imag > 1e-8:
        raise InversionDiverged(
            f"inverse landed off the Voiculescu branch (Im phi = {phi.imag:.3e})",
            last_iterate=phi + z)
    return phi


def nevanlinna_sigma(m: Measure) -> Measure:
    """Representing measure sigma of F(z) = z + int sigma(du)/(u-z), for a
    centered (else NotCentered), purely atomic (else OutOfRange) law.

    Its total mass is the variance m_2.  Its atoms sit at the poles of
    F = 1/G, the zeros of G.  On each gap (a, b) between neighbouring atoms
    G = sum w_i/(z - x_i) falls from +inf to -inf, so it has exactly one zero
    there.  All gaps are solved together, down to adjacent floats, by Newton
    steps on G (x - a)(b - x), which has no pole in the gap, each kept inside
    its bracket: a step that does not land strictly inside it is replaced by
    the bracket's midpoint, except that one rounding back to its start moves
    one float towards the zero instead; a point where G is exactly 0 is the
    zero, and closes its bracket at once.  A pass evaluates only the gaps
    whose bracket still holds a float inside; a point's G has the same bits
    in any batch, so each G is the one a pass of plain bisection computes,
    and the zero found is bisection's.  F has residue 1/G'(r) < 0 at a zero
    r, so the sigma atom at r weighs 1/|G'(r)|.
    """
    if not m.is_atomic():
        raise OutOfRange("nevanlinna_sigma requires a purely atomic measure")
    if abs(m.moment(1)) > 1e-9:
        raise NotCentered("nevanlinna_sigma requires a centered measure")
    pos, wts = m.atom_positions, m.atom_weights
    if pos.size == 1:
        return Measure()
    lo, hi = pos[:-1].copy(), pos[1:].copy()
    gp_lo, gp_hi = np.zeros(lo.size), np.zeros(lo.size)
    k = np.arange(lo.size)      # the open gaps
    x = 0.5 * (lo + hi)
    while True:
        g, gp = _atom_sums(pos, wts, x, True)
        above, below = g > 0, g < 0     # a G of exactly 0 closes its gap
        lo[k[~below]], gp_lo[k[~below]] = x[~below], gp[~below]
        hi[k[~above]], gp_hi[k[~above]] = x[~above], gp[~above]
        lo_k, hi_k = lo[k], hi[k]
        mid = 0.5 * (lo_k + hi_k)
        open_ = (lo_k < mid) & (mid < hi_k)
        if not open_.any():
            break
        new = x - g / (gp + g * (1.0 / (x - pos[k]) + 1.0 / (x - pos[k + 1])))
        new = np.where(new == x, np.nextafter(x, np.where(above, hi_k, lo_k)), new)
        x, k = np.where((lo_k < new) & (new < hi_k), new, mid)[open_], k[open_]
    mid = 0.5 * (lo + hi)
    weights = -1.0 / np.where(mid == lo, gp_lo, gp_hi)
    return Measure(atom_positions=mid, atom_weights=weights)
