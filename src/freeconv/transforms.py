"""Cauchy / reciprocal Cauchy / Voiculescu transforms.

Evaluation sources are either a :class:`~freeconv.measures.Measure` (atom sums
plus segment-exact integrals of the piecewise-linear density) or a closed-form
family spec from :mod:`freeconv.idlaws`.  All evaluators are vectorized over
complex arrays with positive imaginary part.
"""

from __future__ import annotations

import numpy as np

from .errors import (CauchyVanishes, InversionDiverged, NotCentered,
                     NotUpperHalfPlane)
from .measures import Measure

HALF_PLANE_TOL = 1e-10

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


def require_upper(z):
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise NotUpperHalfPlane("evaluation point must have Im z > 0")
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

    def __call__(self, z, order: int):
        """G (order 0) or G' (order 1) of the density at a 1-d array z."""
        out = np.empty(z.shape, dtype=complex)
        far = np.abs(z - self.center) > _LAURENT_RHO * self.radius
        for idx, step, fn in ((np.nonzero(far)[0], _BLOCK // (_LAURENT_ORDER + 1),
                               self._laurent),
                              (np.nonzero(~far)[0], _BLOCK // self.nodes.size,
                               self._direct)):
            step = max(step, 1)
            for s in range(0, idx.size, step):
                b = idx[s:s + step]
                out[b] = fn(z[b], order)
        return out

    def _laurent(self, z, order):
        u = z - self.center
        w = np.empty((u.size, _LAURENT_ORDER + 1), dtype=complex)
        w[:, 0] = 1.0
        w[:, 1:] = (self.radius / u)[:, None]
        np.cumprod(w, axis=1, out=w)
        s = _rowdot(w, self.series[order])
        return s / u if order == 0 else s / (u * u)

    def _direct(self, z, order):
        x, y = z.real, z.imag
        y2 = (y * y)[:, None]
        dm = x[:, None] - self.tm
        i, j = np.nonzero(dm * dm + y2 <= self.near_r2)
        # far segments: sum_k W_k / (z - tau_k) with the near ones zeroed
        dx = x[:, None] - self.nodes
        r = dx * dx
        r += y2
        np.reciprocal(r, out=r)
        r.reshape(z.size, self.size, _GL_NODES.size)[i, j] = 0.0
        dx *= r
        wts = self.weights[order]
        re = _rowdot(dx, wts)
        im = -y * _rowdot(r, wts)
        # near segments: L = log((z - t0)/(z - t1)), exactly
        xi, yi, h = x[i], y[i], self.h[j]
        dx0, dx1 = xi - self.t0[j], xi - self.t1[j]
        yy = yi * yi
        Lr = 0.5 * np.log((dx0 * dx0 + yy) / (dx1 * dx1 + yy))
        Li = np.arctan2(-yi * h, dx0 * dx1 + yy)
        d = self.d[j]
        if order == 0:
            # int (v0 + d (t - t0))/(z - t) dt = (v0 + d (z - t0)) L - (v1 - v0)
            a, b = self.v0[j] + d * dx0, d * yi
            near_re, near_im = a * Lr - b * Li - self.dv[j], a * Li + b * Lr
        else:
            near_re, near_im = d * Lr, d * Li
        re += np.bincount(i, near_re, minlength=z.size)
        im += np.bincount(i, near_im, minlength=z.size)
        out = re + 1j * im
        if order == 1:
            for t, s in self.jumps:
                out += s / (z - t)
        return out


def _density_kernel(m: Measure) -> _DensityKernel:
    """The measure's kernel set-up, built on first use and kept on it."""
    kernel = m.__dict__.get("_density_kernel")
    if kernel is None:
        kernel = _DensityKernel(m)
        object.__setattr__(m, "_density_kernel", kernel)
    return kernel


def _measure_transform(m: Measure, z, order: int):
    """G (order 0) or G' (order 1): atoms summed directly, density by kernel."""
    z = np.asarray(z, dtype=complex)
    val = np.zeros(z.shape, dtype=complex)
    if m.atom_positions.size:
        zz = z[..., None]
        if order == 0:
            val += np.sum(m.atom_weights / (zz - m.atom_positions), axis=-1)
        else:
            val -= np.sum(m.atom_weights / (zz - m.atom_positions) ** 2, axis=-1)
    if m.grid.size:
        kernel = _density_kernel(m)
        if kernel.size:
            val += kernel(z.ravel(), order).reshape(z.shape)
    return val if val.shape else complex(val)


def measure_cauchy(m: Measure, z):
    """G(z) = integral of 1/(z-t), to machine precision per atom and segment."""
    return _measure_transform(m, z, 0)


def measure_cauchy_prime(m: Measure, z):
    """G'(z) = -integral of 1/(z-t)^2."""
    return _measure_transform(m, z, 1)


def as_evaluator(source):
    """Normalize a transform source to a (G, G') pair of callables.

    Accepts a Measure, an idlaws.FamilySpec, or an explicit (G, G') pair.
    """
    if isinstance(source, Measure):
        return (lambda z: measure_cauchy(source, z),
                lambda z: measure_cauchy_prime(source, z))
    if isinstance(source, tuple) and len(source) == 2 and callable(source[0]):
        return source
    from . import idlaws

    if isinstance(source, idlaws.FamilySpec):
        return idlaws.family_transform(source)
    raise TypeError(f"cannot interpret {source!r} as a transform source")


def cauchy(source, z):
    """Cauchy transform at z in the upper half plane."""
    z = require_upper(z)
    G, _ = as_evaluator(source)
    return G(z)


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


def reciprocal_pair(source):
    """(F, F') callables for a source, built from (G, G')."""
    G, Gp = as_evaluator(source)

    def F(z):
        return 1.0 / G(z)

    def Fp(z):
        g = G(z)
        return -Gp(z) / (g * g)

    return F, Fp


def c1_index(source) -> float:
    """c1 = Im(1/G(i)) - 1; zero exactly for a single Dirac atom."""
    f = reciprocal_cauchy(source, 1j)
    return float(np.imag(f)) - 1.0


def newton_invert(F, Fp, target: complex, seed: complex,
                  tol: float = 1e-10, max_iter: int = 200) -> complex:
    """Solve F(w) = target for w in the upper half plane by damped Newton.

    Divergence is reported, never silently replaced by a fallback value.
    """
    w = complex(seed)
    if w.imag <= 0:
        w = complex(w.real, 1e-3)
    scale = max(1.0, abs(target))
    r = F(w) - target
    for _ in range(max_iter):
        if abs(r) < tol * scale:
            return w
        dF = Fp(w)
        if dF == 0:
            raise InversionDiverged("Newton derivative vanished", last_iterate=w)
        step = r / dF
        lam = 1.0
        for _ in range(60):
            w_new = w - lam * step
            if w_new.imag > 0:
                r_new = F(w_new) - target
                if abs(r_new) < abs(r):
                    break
            lam *= 0.5
        else:
            raise InversionDiverged("Newton step stalled", last_iterate=w)
        w, r = w_new, r_new
    if abs(r) < tol * scale:
        return w
    raise InversionDiverged(f"Newton did not converge (residual {abs(r):.3e})",
                            last_iterate=w)


def voiculescu_from(F, Fp, z: complex, seed=None) -> complex:
    """phi(z) = F^(-1)(z) - z via verified Newton inversion of F."""
    z = complex(z)
    if z.imag <= 0:
        raise NotUpperHalfPlane("evaluation point must have Im z > 0")
    w = newton_invert(F, Fp, z, z if seed is None else seed)
    return w - z


def voiculescu(source, z: complex) -> complex:
    """Voiculescu transform of a measure at an admissible point z."""
    F, Fp = reciprocal_pair(source)
    phi = voiculescu_from(F, Fp, z)
    if phi.imag > 1e-8:
        raise InversionDiverged(
            f"inverse landed off the Voiculescu branch (Im phi = {phi.imag:.3e})",
            last_iterate=phi + z)
    return phi


def nevanlinna_sigma(m: Measure, grid_points: int = 2001,
                     eta_schedule=(0.04, 0.02, 0.01)) -> Measure:
    """Representing measure sigma of F(z) = z + int sigma(du)/(u-z).

    Total mass equals the variance m_2 (the input must be centered).  For
    purely atomic inputs sigma is computed exactly from the partial-fraction
    structure of F; otherwise by Stieltjes inversion of z - F(z).
    """
    if abs(m.moment(1)) > 1e-9:
        raise NotCentered("nevanlinna_sigma requires a centered measure")
    if m.is_atomic():
        return _atomic_sigma(m)
    lo = float(m.grid[0]) if m.grid.size else 0.0
    hi = float(m.grid[-1]) if m.grid.size else 0.0
    if m.atom_positions.size:
        lo = min(lo, float(m.atom_positions.min()))
        hi = max(hi, float(m.atom_positions.max()))
    xs = np.linspace(lo - 1.0, hi + 1.0, grid_points)
    eta1, eta2 = eta_schedule[-2], eta_schedule[-1]
    F, _ = reciprocal_pair(m)

    def dens_at(eta):
        z = xs + 1j * eta
        g = z - F(z)          # Cauchy transform of sigma
        return np.maximum(-g.imag / np.pi, 0.0)

    d1, d2 = dens_at(eta1), dens_at(eta2)
    dens = np.maximum((eta1 * d2 - eta2 * d1) / (eta1 - eta2), 0.0)
    return Measure(grid=xs, density=dens)


def _atomic_sigma(m: Measure) -> Measure:
    """sigma of an atomic law: atoms at the poles of F = 1/G, the zeros of G.

    On each gap between neighbouring atoms G = sum w_i/(z - x_i) falls from
    +inf to -inf, so it has exactly one zero there; all gaps are bisected
    together, down to adjacent floats.  F has residue 1/G'(r) < 0 at a zero
    r, so the sigma atom at r weighs 1/|G'(r)|.
    """
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
