"""Cauchy / reciprocal Cauchy / Voiculescu transforms.

Evaluation sources are either a :class:`~freeconv.measures.Measure` (atom sums
plus segment-exact integrals of the piecewise-linear density) or a closed-form
family spec from :mod:`freeconv.idlaws`.  All evaluators are vectorized over
complex arrays with positive imaginary part.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (CauchyVanishes, InversionDiverged, NotCentered,
                     NotUpperHalfPlane, OutOfRange)
from .measures import Measure

# Density part of G and G' (the atoms are summed directly).  Three zones:
#
# * far points, |z - c| > _LAURENT_RHO * R about the centre c and half-width R
#   of the density's support, use the Laurent series
#   G(z) = sum_k nu_k R^k / (z - c)^(k+1), with nu_k = int ((t - c)/R)^k p(t) dt
#   the exact moments of the piecewise-linear density;
# * for the other points, a segment is far when its length is below
#   _FAR_RATIO times its midpoint's distance to z.  Far segments are integrated
#   with 6-node Gauss-Legendre, exact to machine precision in that regime,
#   written as one weight vector over all nodes;
# * near segments use the closed-form integral, in real arithmetic.  It is not
#   used for far segments, where it cancels catastrophically.
#
# G' is the Cauchy transform of the distributional derivative of p: the
# piecewise-constant slope plus signed point masses where p jumps at the ends
# of its grid.  This avoids 1/(z - t)^2, whose segment terms at a node nearly
# cancel between the two adjacent segments.
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
# points per block are chosen so that each temporary array holds about this
# many elements, which bounds memory and keeps the blocks in cache
_BLOCK = 1 << 15
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
    """Set-up of the density part of one measure: segments, nodes, moments."""

    def __init__(self, m: Measure):
        t0, t1 = m.grid[:-1], m.grid[1:]
        v0, v1 = m.density[:-1], m.density[1:]
        keep = (v0 != 0) | (v1 != 0)
        t0, t1, v0, v1 = t0[keep], t1[keep], v0[keep], v1[keep]
        self.size = t0.size
        if not self.size:
            return
        h = t1 - t0
        self.t0, self.t1, self.v0, self.dv = t0, t1, v0, v1 - v0
        self.h, self.d = h, (v1 - v0) / h
        self.tm = 0.5 * (t0 + t1)
        self.near_r2 = (h / _FAR_RATIO) ** 2
        u = 0.5 * (1.0 + _GL_NODES)
        half_w = 0.5 * h[:, None] * _GL_WEIGHTS
        self.nodes = (t0[:, None] + h[:, None] * u).ravel()
        self.weights = ((half_w * (v0[:, None] * (1.0 - u) + v1[:, None] * u)).ravel(),
                        (half_w * self.d[:, None]).ravel())
        # jumps of p at the ends of its support, point masses of p'
        self.jumps = [(t, s) for t, s in ((t0[0], v0[0]), (t1[-1], -v1[-1])) if s]
        lo, hi = float(t0[0]), float(t1[-1])
        self.center, self.radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nu = self._moments((t0 - self.center) / self.radius,
                           (t1 - self.center) / self.radius, h, v0, v1)
        self.series = (nu.astype(complex),
                       (-np.arange(1, nu.size + 1) * nu).astype(complex))

    @staticmethod
    def _moments(s0, s1, h, v0, v1):
        """nu_k for k <= _LAURENT_ORDER, exact for the piecewise-linear density.

        On a segment, int s^k p = h (v0 P_k + v1 Q_k) / ((k+1)(k+2)), where
        P_k = sum_j (k+1-j) s0^(k-j) s1^j and Q_k = sum_j (j+1) s0^(k-j) s1^j.
        Both follow from e_k = sum_j s0^(k-j) s1^j by one-term recurrences,
        whose terms share a sign away from the centre, so nothing cancels.
        """
        e = np.ones_like(s0)
        P, Q, s1k = e.copy(), e.copy(), e.copy()
        nu = np.empty(_LAURENT_ORDER + 1)
        nu[0] = np.sum(h * (v0 + v1)) / 2.0
        for k in range(1, _LAURENT_ORDER + 1):
            s1k *= s1
            e = s0 * e + s1k
            P = s0 * P + e
            Q = s1 * Q + e
            nu[k] = np.sum(h * (v0 * P + v1 * Q)) / ((k + 1) * (k + 2))
        return nu

    def __call__(self, z, prime):
        """[G] of the density at a 1-d array z, or [G, G'] when prime.

        Each block of points builds its distances, near-segment logarithms
        and Laurent powers once, and both are summed from them.
        """
        out = [np.empty(z.shape, dtype=complex) for _ in range(1 + prime)]
        far = np.abs(z - self.center) > _LAURENT_RHO * self.radius
        for idx, step, fn in ((np.nonzero(far)[0], _BLOCK // (_LAURENT_ORDER + 1),
                               self._laurent),
                              (np.nonzero(~far)[0], _BLOCK // self.nodes.size,
                               self._direct)):
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

    def _direct(self, z, prime):
        x, y = z.real, z.imag
        y2 = (y * y)[:, None]
        dm = x[:, None] - self.tm
        i, j = np.nonzero(dm * dm + y2 <= self.near_r2)
        # far segments: sum_k W_k / (z - tau_k) with the near ones zeroed.
        # dx and r share one allocation: glibc's trim threshold grows to twice
        # the largest block it has freed, so two such arrays freed together
        # can exceed it and have the heap trimmed and page-faulted anew at
        # every block, while one array of twice the size cannot
        dx, r = np.empty((2, z.size, self.nodes.size))
        np.subtract(x[:, None], self.nodes, out=dx)
        np.multiply(dx, dx, out=r)
        r += y2
        np.reciprocal(r, out=r)
        r.reshape(z.size, self.size, _GL_NODES.size)[i, j] = 0.0
        dx *= r
        # near segments: L = log((z - t0)/(z - t1)), exactly
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
        for wts, (near_re, near_im) in zip(self.weights, near):
            re = _rowdot(dx, wts) + np.bincount(i, near_re, minlength=z.size)
            im = -y * _rowdot(r, wts) + np.bincount(i, near_im, minlength=z.size)
            out.append(re + 1j * im)
        if prime:
            for t, s in self.jumps:
                out[1] += s / (z - t)
        return out


def _density_kernel(m: Measure) -> _DensityKernel:
    """The measure's kernel set-up, built on first use and kept on it."""
    kernel = m.__dict__.get("_density_kernel")
    if kernel is None:
        kernel = _DensityKernel(m)
        object.__setattr__(m, "_density_kernel", kernel)
    return kernel


def _measure_transform(m: Measure, z, prime):
    """[G], or [G, G'] when prime, from one pass: atoms summed directly,
    density by kernel."""
    z = np.asarray(z, dtype=complex)
    vals = [np.zeros(z.shape, dtype=complex) for _ in range(1 + prime)]
    if m.atom_positions.size:
        dz = z[..., None] - m.atom_positions
        vals[0] += np.sum(m.atom_weights / dz, axis=-1)
        if prime:
            vals[1] -= np.sum(m.atom_weights / dz ** 2, axis=-1)
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
        # line search over the points whose step is not yet accepted
        todo, step, lam = act, r[act] / dF, 1.0
        for _ in range(60):
            if not todo.size:
                break
            w_new = w[todo] - lam * step
            up = np.flatnonzero(w_new.imag > 0)
            if up.size:
                g_new, gp_new = G_with_prime(w_new[up])
                r_new = 1.0 / g_new - t[todo[up]]
                ok = np.abs(r_new) < np.abs(r[todo[up]])
                done = up[ok]
                acc = todo[done]
                w[acc], r[acc] = w_new[done], r_new[ok]
                g[acc], gp[acc] = g_new[ok], gp_new[ok]
                keep = np.ones(todo.size, dtype=bool)
                keep[done] = False
                todo, step = todo[keep], step[keep]
            lam *= 0.5
        errors.update(dict.fromkeys(todo.tolist(), "Newton step stalled"))
        act = np.setdiff1d(act, todo)
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
    F = 1/G, the zeros of G.  On each gap between neighbouring atoms
    G = sum w_i/(z - x_i) falls from +inf to -inf, so it has exactly one zero
    there; all gaps are bisected together, down to adjacent floats.  F has
    residue 1/G'(r) < 0 at a zero r, so the sigma atom at r weighs 1/|G'(r)|.
    """
    if not m.is_atomic():
        raise OutOfRange("nevanlinna_sigma requires a purely atomic measure")
    if abs(m.moment(1)) > 1e-9:
        raise NotCentered("nevanlinna_sigma requires a centered measure")
    pos, wts = m.atom_positions, m.atom_weights
    if pos.size == 1:
        return Measure()
    lo, hi = pos[:-1], pos[1:]
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        above = np.sum(wts / (mid[:, None] - pos), axis=1) > 0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        mid = 0.5 * (lo + hi)
    weights = 1.0 / np.sum(wts / (mid[:, None] - pos) ** 2, axis=1)
    return Measure(atom_positions=mid, atom_weights=weights)
