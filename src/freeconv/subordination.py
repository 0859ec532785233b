"""Subordination solvers for n-fold and pairwise free additive convolution.

The n-fold equation H(w) = n w - (n-1) F(w) - z = 0 is solved by Newton's
method, guarded by the self-map w <- z/n + (1 - 1/n) F(w), which keeps
iterates in the upper half plane but converges only linearly (rate roughly
1 - 2/n).  A point takes the self-map step wherever its Newton update is not
finite, falls below Im z / n, or its residual did not fall.  The self-map is
a holomorphic self-map of the half plane and not an automorphism, so it has
at most one fixed point there, and any root Newton finds is the right one.
Converged points leave the active set and are not evaluated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FixedPointDiverged, NotCentered
from .measures import Measure
from .transforms import (as_evaluator, nevanlinna_sigma, reciprocal_pair,
                         require_upper)

MAX_ITER = 10_000


@dataclass(frozen=True)
class SubordinationResult:
    z: complex
    Zn: complex
    iterations: int
    residual: float


def _residual(F, n, z, w):
    return np.abs(z - n * w + (n - 1) * F(w))


def _guarded_newton(step, z, w, floor, tol, max_iter, what):
    """Active-set guarded Newton loop shared by both solvers.

    step(w, z) evaluates the active points once and returns (fixed, newton,
    r, done): the self-map image, the Newton update, the residual and the
    stopping mask.  A point moves to its Newton update where that is finite,
    lies above its floor and its residual fell since the previous iteration,
    and to the self-map image otherwise.  A converged point is stored, with
    its last update, and never evaluated again, so each point's trajectory
    depends on that point alone.  Returns (iterate of z's shape, iterations).
    """
    shape = z.shape
    z, w, floor = z.ravel(), w.ravel(), floor.ravel()
    out = w.copy()
    idx = np.arange(z.size)
    r_prev = np.full(z.size, np.inf)
    for it in range(1, max_iter + 1):
        fixed, newton, r, done = step(w, z[idx])
        if np.any(fixed.imag < floor[idx] - 1e-12):
            out[idx] = fixed
            raise FixedPointDiverged("iterate left the guaranteed half plane",
                                     last_iterate=out.reshape(shape))
        ok = np.isfinite(newton) & (newton.imag > floor[idx])
        out[idx[done]] = np.where(ok, newton, fixed)[done]
        keep = ~done
        if not np.any(keep):
            return out.reshape(shape), it
        w = np.where(ok & (r < r_prev), newton, fixed)[keep]
        idx, r_prev = idx[keep], r[keep]
    out[idx] = w
    raise FixedPointDiverged(
        f"{what} did not reach tol={tol} in {max_iter} iterations",
        last_iterate=out.reshape(shape))


def solve_Zn_grid(source, n: int, z, tol: float = 1e-12,
                  max_iter: int = MAX_ITER):
    """Vectorized subordination solve; returns (Zn, iterations, residual)."""
    z = require_upper(z)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        zz = np.array(z, dtype=complex)
        return zz, 0, np.zeros(zz.shape)
    G, Gp = as_evaluator(source)
    c = (n - 1.0) / n
    eps = np.finfo(float).eps

    def step(w, z):
        g = G(w)
        f, fp = 1.0 / g, -Gp(w) / (g * g)
        fixed = z / n + c * f
        d = fixed - w                     # n * d = -H(w)
        size = np.abs(d)
        scale = np.maximum(1.0, np.abs(fixed))
        # the error of a contraction with rate 1-2/n is about step * n/2, so
        # the step criterion carries a factor n; steps at the rounding floor
        # mean the iterate sits in the attainable noise ball, which is as
        # close as finite precision ever gets
        done = (n * size <= 0.5 * tol * scale) | (size <= 8 * eps * scale)
        return fixed, w + n * d / (n - (n - 1) * fp), n * size, done

    Zn, it = _guarded_newton(step, z, z + 1j, z.imag / n, tol, max_iter,
                             "subordination fixed point")
    F, _ = reciprocal_pair(source)
    return Zn, it, _residual(F, n, z, Zn)


def solve_Zn(source, n: int, z: complex, tol: float = 1e-12,
             max_iter: int = MAX_ITER) -> SubordinationResult:
    """Solve z = n Z - (n-1) F(Z) for the unique Z with Im Z >= Im z."""
    zz = np.asarray(complex(z), dtype=complex)
    Zn, its, res = solve_Zn_grid(source, n, zz, tol=tol, max_iter=max_iter)
    return SubordinationResult(z=complex(z), Zn=complex(Zn),
                               iterations=its, residual=float(res))


def power_cauchy(source, n: int, z):
    """Cauchy transform of the n-fold free convolution power at z."""
    z_arr = require_upper(z)
    Zn, _, _ = solve_Zn_grid(source, n, z_arr)
    G, _ = as_evaluator(source)
    out = G(Zn)
    return out if np.ndim(z) else complex(out)


def power_reciprocal(source, n: int):
    """(F, F') callables of the n-fold convolution power, via subordination.

    F_n = F o Z_n and F_n' = F'(Z_n) / (n - (n-1) F'(Z_n)) by implicit
    differentiation of the subordination equation.
    """
    F, Fp = reciprocal_pair(source)

    def Fn(z):
        Zn, _, _ = solve_Zn_grid(source, n, np.asarray(z, dtype=complex))
        return F(Zn)

    def Fnp(z):
        Zn, _, _ = solve_Zn_grid(source, n, np.asarray(z, dtype=complex))
        fp = Fp(Zn)
        return fp / (n - (n - 1) * fp)

    return Fn, Fnp


def inverse_Zn(source, n: int, z):
    """Explicit inverse of the subordination function: n z - (n-1) F(z)."""
    z = require_upper(z)
    F, _ = reciprocal_pair(source)
    out = n * z - (n - 1) * F(z)
    return out if np.ndim(out) else complex(out)


def solve_pair_grid(m1, m2, z, tol: float = 1e-12, max_iter: int = MAX_ITER):
    """Vectorized two-function subordination:
    z = Z1 + Z2 - F1(Z1) and F1(Z1) = F2(Z2).

    Z1 is the unknown and Z2 = z - Z1 + F1(Z1), so the first relation holds
    exactly and Im Z2 >= Im z, because Im F1(w) >= Im w.  Newton's method in
    Z1 solves F1(Z1) - F2(Z2) = 0, with the sweep Z1 <- z - Z2 + F2(Z2) as
    the guarded fallback step; |F2(Z2) - F1(Z1)|, the residual of the second
    relation, is the convergence criterion.
    """
    z = require_upper(z)
    G1, G1p = as_evaluator(m1)
    G2, G2p = as_evaluator(m2)

    def step(Z1, z):
        g1 = G1(Z1)
        f1, f1p = 1.0 / g1, -G1p(Z1) / (g1 * g1)
        Z2 = z - Z1 + f1
        g2 = G2(Z2)
        f2, f2p = 1.0 / g2, -G2p(Z2) / (g2 * g2)
        phi = f1 - f2
        r = np.abs(phi)
        scale = np.maximum(1.0, np.maximum(np.abs(Z1), np.abs(Z2)))
        return (z - Z2 + f2, Z1 - phi / (f1p - f2p * (f1p - 1.0)), r,
                r <= tol * scale)

    try:
        Z1, _ = _guarded_newton(step, z, z + 1j, np.zeros(z.shape), tol,
                                max_iter, "pair subordination")
    except FixedPointDiverged as exc:
        Z1 = exc.last_iterate
        exc.last_iterate = (Z1, z - Z1 + 1.0 / G1(Z1))
        raise
    return Z1, z - Z1 + 1.0 / G1(Z1)


def solve_pair(m1, m2, z: complex, tol: float = 1e-12,
               max_iter: int = MAX_ITER) -> tuple[complex, complex]:
    """Two-function subordination at a single point; returns (Z1, Z2)."""
    zz = np.asarray(complex(z), dtype=complex)
    Z1, Z2 = solve_pair_grid(m1, m2, zz, tol=tol, max_iter=max_iter)
    return complex(Z1), complex(Z2)


def pair_cauchy(m1, m2, z, tol: float = 1e-12):
    """Cauchy transform of m1 boxplus m2 at z (scalar or array)."""
    G1, _ = as_evaluator(m1)
    z_arr = np.asarray(z, dtype=complex)
    Z1, _ = solve_pair_grid(m1, m2, z_arr, tol=tol)
    out = G1(Z1)
    return out if np.ndim(z) else complex(out)


BISECT_TOL = 1e-10


def _poisson_integral(sigma: Measure, x, y):
    """int sigma(du) / ((u-x)^2 + y^2) for equal-length arrays x and y."""
    x, y = x[:, None], y[:, None]
    total = np.zeros(x.shape[0])
    if sigma.atom_positions.size:
        total += np.sum(sigma.atom_weights / ((sigma.atom_positions - x) ** 2 + y ** 2),
                        axis=1)
    if sigma.grid.size:
        total += np.trapezoid(sigma.density / ((sigma.grid - x) ** 2 + y ** 2),
                              sigma.grid, axis=1)
    return total


def boundary_curve(m: Measure, n: int, x):
    """y_n(x): positive root of (n-1) * int sigma(du)/((u-x)^2 + y^2) = 1.

    Returns 0 where no positive root exists.  The root is unique because the
    integral is strictly decreasing in y, and it is bounded by
    sqrt(sigma(R) (n-1)).  All x are bisected together.
    """
    if n < 2:
        raise ValueError("boundary curve needs n >= 2")
    if abs(m.moment(1)) > 1e-9:
        raise NotCentered("boundary_curve requires a centered measure")
    sigma = nevanlinna_sigma(m)
    total = sigma.mass()
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    out = np.zeros(xs.shape)
    if total > 0:
        with np.errstate(divide="ignore"):
            I0 = _poisson_integral(sigma, xs, np.zeros(xs.shape))
        roots = ~((n - 1) * I0 <= 1.0)     # a NaN integral is bisected too
        xr = xs[roots]
        lo = np.zeros(xr.shape)
        hi = np.full(xr.shape, float(np.sqrt(total * (n - 1))))
        while True:
            open_ = hi - lo > BISECT_TOL
            if not np.any(open_):
                break
            mid = 0.5 * (lo + hi)
            above = (n - 1) * _poisson_integral(sigma, xr, mid) > 1.0
            lo = np.where(open_ & above, mid, lo)
            hi = np.where(open_ & ~above, mid, hi)
        out[roots] = 0.5 * (lo + hi)
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])
