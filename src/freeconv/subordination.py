"""Subordination solvers for n-fold and pairwise free additive convolution.

The n-fold equation z = n Z - (n-1) F(Z) is solved by the self-map iteration
w <- z/n + (1 - 1/n) F(w), which keeps iterates in the upper half plane.  The
plain iteration converges only linearly (rate roughly 1 - 2/n), so an Aitken
extrapolation step is interleaved and accepted only when it reduces the
residual of the defining equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FixedPointDiverged, NotCentered
from .measures import Measure
from .transforms import (nevanlinna_sigma, reciprocal_pair, require_upper)

MAX_ITER = 10_000


@dataclass(frozen=True)
class SubordinationResult:
    z: complex
    Zn: complex
    iterations: int
    residual: float


def _residual(F, n, z, w):
    return np.abs(z - n * w + (n - 1) * F(w))


def _aitken(x0, x1, x2, floor):
    """Aitken extrapolation of three successive iterates.

    Returns (candidate, ok): ok marks points where the candidate is finite and
    lies strictly above the floor of the admissible half plane; elsewhere the
    candidate is x2.  Callers accept it only where it lowers their residual.
    """
    d1 = x2 - x1
    denom = d1 - (x1 - x0)
    safe = np.abs(denom) > 1e-300
    cand = np.where(safe, x2 - d1 * d1 / np.where(safe, denom, 1.0), x2)
    return cand, safe & np.isfinite(cand) & (cand.imag > floor)


def solve_Zn_grid(source, n: int, z, tol: float = 1e-12,
                  max_iter: int = MAX_ITER):
    """Vectorized subordination solve; returns (Zn, iterations, residual)."""
    z = require_upper(z)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        zz = np.array(z, dtype=complex)
        return zz, 0, np.zeros(zz.shape)
    F, _ = reciprocal_pair(source)
    c = (n - 1.0) / n
    w = np.array(z, dtype=complex) + 1j
    w_prev = None
    floor = z.imag / n
    for it in range(1, max_iter + 1):
        w_new = z / n + c * F(w)
        if np.any(w_new.imag < floor - 1e-12):
            raise FixedPointDiverged("iterate left the guaranteed half plane",
                                     last_iterate=w_new)
        step = np.abs(w_new - w)
        scale = np.maximum(1.0, np.abs(w_new))
        # the error of a contraction with rate 1-2/n is about step * n/2, so
        # the step criterion carries a factor n; steps at the rounding floor
        # mean the iterate sits in the attainable noise ball, which is as
        # close as finite precision ever gets
        done = (n * step <= 0.5 * tol * scale) | (step <= 8 * np.finfo(float).eps * scale)
        if np.all(done):
            res = _residual(F, n, z, w_new)
            return w_new, it, res
        if w_prev is not None and it % 5 == 0:
            cand, ok = _aitken(w_prev, w, w_new, floor)
            if np.any(ok):
                r_cand = _residual(F, n, z, np.where(ok, cand, w_new))
                r_cur = n * step
                take = ok & (r_cand < r_cur)
                w_new = np.where(take, cand, w_new)
        w_prev = w
        w = w_new
    raise FixedPointDiverged(
        f"subordination fixed point did not reach tol={tol} in {max_iter} iterations",
        last_iterate=w)


def solve_Zn(source, n: int, z: complex, tol: float = 1e-12,
             max_iter: int = MAX_ITER) -> SubordinationResult:
    """Solve z = n Z - (n-1) F(Z) for the unique Z with Im Z >= Im z."""
    zz = np.asarray(complex(z), dtype=complex)
    Zn, its, res = solve_Zn_grid(source, n, zz, tol=tol, max_iter=max_iter)
    return SubordinationResult(z=complex(z), Zn=complex(Zn),
                               iterations=its, residual=float(res))


def power_cauchy(source, n: int, z):
    """Cauchy transform of the n-fold free convolution power at z."""
    from .transforms import as_evaluator

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

    Alternating updates Z1 <- z - Z2 + F2(Z2), Z2 <- z - Z1 + F1(Z1) keep both
    iterates in the upper half plane.  After each sweep the first defining
    relation holds exactly, so the Z1 step size equals the residual of the
    second and serves as the convergence criterion.
    """
    z = require_upper(z)
    F1, _ = reciprocal_pair(m1)
    F2, _ = reciprocal_pair(m2)
    Z1 = np.array(z, dtype=complex) + 1j
    Z2 = Z1.copy()
    hist = []          # the last three Z1 iterates
    for it in range(1, max_iter + 1):
        Z1_new = z - Z2 + F2(Z2)
        Z2 = z - Z1_new + F1(Z1_new)
        step = np.abs(Z1_new - Z1)
        Z1 = Z1_new
        scale = np.maximum(1.0, np.maximum(np.abs(Z1), np.abs(Z2)))
        if np.all(step <= tol * scale):
            return Z1, Z2
        hist = hist[-2:] + [Z1]
        if len(hist) == 3 and it % 5 == 0:
            cand, ok = _aitken(*hist, 0.0)
            if np.any(ok):
                # accept where the defining residual improves
                c1 = np.where(ok, cand, Z1)
                f1c = F1(c1)
                c2 = z - c1 + f1c
                good = ok & (c2.imag > 0)
                r_new = np.abs(f1c - F2(np.where(good, c2, Z2)))
                r_old = step
                take = good & (r_new < r_old)
                Z1 = np.where(take, c1, Z1)
                Z2 = np.where(take, c2, Z2)
    raise FixedPointDiverged(
        f"pair subordination did not reach tol={tol} in {max_iter} iterations",
        last_iterate=(Z1, Z2))


def solve_pair(m1, m2, z: complex, tol: float = 1e-12,
               max_iter: int = MAX_ITER) -> tuple[complex, complex]:
    """Two-function subordination at a single point; returns (Z1, Z2)."""
    zz = np.asarray(complex(z), dtype=complex)
    Z1, Z2 = solve_pair_grid(m1, m2, zz, tol=tol, max_iter=max_iter)
    return complex(Z1), complex(Z2)


def pair_cauchy(m1, m2, z, tol: float = 1e-12):
    """Cauchy transform of m1 boxplus m2 at z (scalar or array)."""
    from .transforms import as_evaluator

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
