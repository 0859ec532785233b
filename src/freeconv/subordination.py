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

import numpy as np

from .errors import FixedPointDiverged, NotCentered
from .measures import Measure
from .transforms import Evaluator, _evaluator, as_evaluator, require_upper

MAX_ITER = 10_000
# relative tolerance of the solvers' stopping tests; bench.power_cdf passes
# a looser one to solve_Zn_grid
TOL = 1e-12


def _guarded_newton(step, z, w, floor, tol, what):
    """Active-set guarded Newton loop shared by both solvers.

    step(w, z) evaluates the active points once and returns (fixed, newton,
    r, done): the self-map image, the Newton update, the residual and the
    stopping mask.  A point moves to its Newton update where that is finite,
    lies above its floor and its residual fell since the previous iteration,
    and to the self-map image otherwise.  A converged point is stored, with
    its last update, and never evaluated again, so each point's trajectory
    depends on that point alone.  At most MAX_ITER iterations are taken.
    Returns (iterate of z's shape, iterations).
    """
    shape = z.shape
    z, w, floor = z.ravel(), w.ravel(), floor.ravel()
    out = w.copy()
    idx = np.arange(z.size)
    r_prev = np.full(z.size, np.inf)
    for it in range(1, MAX_ITER + 1):
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
        f"{what} did not reach tol={tol} in {MAX_ITER} iterations",
        last_iterate=out.reshape(shape))


def _start(z, start):
    """The solvers' first iterate: z + i, or start, which must have z's
    shape and lie in the upper half plane."""
    if start is None:
        return z + 1j
    start = require_upper(start)
    if start.shape != z.shape:
        raise ValueError(f"start has shape {start.shape}, z has {z.shape}")
    return start


def _subordinator(G_with_prime, n: int, z, tol: float, start=None):
    """Z_n at the points z of the upper half plane; returns (Zn, iterations).

    The iteration starts from start (default z + i); any valid start reaches
    the same fixed point to the tolerance."""
    z = require_upper(z)
    if n < 1:
        raise ValueError("n must be a positive integer")
    w = _start(z, start)
    if n == 1:
        return np.array(z, dtype=complex), 0
    c = (n - 1.0) / n
    eps = np.finfo(float).eps

    def step(w, z):
        g, gp = G_with_prime(w)
        f, fp = 1.0 / g, -gp / (g * g)
        fixed = z / n + c * f
        d = fixed - w                     # n * d = -H(w)
        size = np.abs(d)
        scale = np.maximum(1.0, np.abs(fixed))
        # the error of a contraction with rate 1-2/n is about step * n/2, so
        # the step criterion carries a factor n; steps at the rounding floor
        # mean the iterate sits in the attainable noise ball, which is as
        # close as finite precision ever gets
        done = (n * size <= 0.5 * tol * scale) | (size <= 8 * eps * scale)
        # a non-finite update is discarded by _guarded_newton
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = w + n * d / (n - (n - 1) * fp)
        return fixed, newton, n * size, done

    return _guarded_newton(step, z, w, z.imag / n, tol,
                           "subordination fixed point")


def solve_Zn_grid(source, n: int, z, tol: float = TOL, start=None):
    """Vectorized subordination solve; returns (Zn, iterations, G(Zn)).

    start is the first iterate, of z's shape in the upper half plane
    (default z + i), such as Zn at the points just above z."""
    G, G_with_prime = as_evaluator(source)
    Zn, it = _subordinator(G_with_prime, n, z, tol, start)
    return Zn, it, G(Zn)


def power_transform(source, n: int) -> Evaluator:
    """Evaluator of the n-fold convolution power, via subordination.

    G_n = G o Z_n and G_n' = G'(Z_n) Z_n' with
    Z_n' = 1 / (n + (n-1) G'(Z_n)/G(Z_n)^2), by implicit differentiation of
    z = n Z_n - (n-1)/G(Z_n).  Both come from one solve for Z_n and one
    (G, G') pass there.  Usable wherever a transform source is.
    """
    G, G_with_prime = as_evaluator(source)

    def transform(z, prime):
        Zn, _ = _subordinator(G_with_prime, n, np.asarray(z, dtype=complex), TOL)
        if not prime:
            return [G(Zn)]
        g, gp = G_with_prime(Zn)
        return [g, gp / (n + (n - 1) * gp / (g * g))]

    return _evaluator(transform)


def inverse_Zn(source, n: int, z):
    """Explicit inverse of the subordination function: n z - (n-1) F(z)."""
    z = require_upper(z)
    G, _ = as_evaluator(source)
    out = n * z - (n - 1) * (1.0 / G(z))
    return out if np.ndim(out) else complex(out)


def _pair_subordinator(e1: Evaluator, e2: Evaluator, z, start=None):
    """Z1 of the pair subordination at the points z (see solve_pair_grid),
    starting from start (default z + i)."""
    z = require_upper(z)

    def step(Z1, z):
        g1, g1p = e1.G_with_prime(Z1)
        f1, f1p = 1.0 / g1, -g1p / (g1 * g1)
        Z2 = z - Z1 + f1
        g2, g2p = e2.G_with_prime(Z2)
        f2, f2p = 1.0 / g2, -g2p / (g2 * g2)
        phi = f1 - f2
        r = np.abs(phi)
        slope = np.abs(f2p)
        pole = np.where(np.isfinite(slope), 1.0 + slope, 1.0)
        scale = np.maximum(1.0, np.maximum(np.abs(Z1), np.abs(Z2))) * pole
        # a non-finite update is discarded by _guarded_newton
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = Z1 - phi / (f1p - f2p * (f1p - 1.0))
        return z - Z2 + f2, newton, r, r <= TOL * scale

    try:
        Z1, _ = _guarded_newton(step, z, _start(z, start), np.zeros(z.shape), TOL,
                                "pair subordination")
    except FixedPointDiverged as exc:
        Z1 = exc.last_iterate
        exc.last_iterate = (Z1, z - Z1 + 1.0 / e1.G(Z1))
        raise
    return Z1


def solve_pair_grid(m1, m2, z, start=None):
    """Vectorized two-function subordination:
    z = Z1 + Z2 - F1(Z1) and F1(Z1) = F2(Z2); returns (Z1, G1(Z1)).

    Z1 is the unknown and Z2 = z - Z1 + F1(Z1), so the first relation holds
    exactly and Im Z2 >= Im z, because Im F1(w) >= Im w.  Newton's method in
    Z1 solves F1(Z1) - F2(Z2) = 0, with the sweep Z1 <- z - Z2 + F2(Z2) as
    the guarded fallback step.  A point stops when the residual
    |F2(Z2) - F1(Z1)| of the second relation is at most
    TOL * max(1, |Z1|, |Z2|) * (1 + |F2'(Z2)|).  The last factor is the
    rounding floor of that residual near a pole of F2, where a rounding of
    Z2 moves F2 by |F2'(Z2)| times as much; it is taken as 1 where F2' is
    not finite.  The iteration starts from start, of z's shape in the upper
    half plane (default z + i).
    """
    e1 = as_evaluator(m1)
    Z1 = _pair_subordinator(e1, as_evaluator(m2), z, start)
    return Z1, e1.G(Z1)


def pair_transform(m1, m2) -> Evaluator:
    """Evaluator of m1 boxplus m2, via subordination.

    G = G1 o Z1.  Differentiating Z1 + Z2 = z + F and F1(Z1) = F2(Z2) = F
    gives Z1' = F2'(Z2) / (F1' + F2' - F1' F2'), the denominator of the
    pair solver's Newton step, so G' = G1'(Z1) Z1' comes from one solve and
    one (G, G') pass of each law; with m1 = m2 it is power_transform's n = 2.
    """
    e1, e2 = as_evaluator(m1), as_evaluator(m2)

    def transform(z, prime):
        z = np.asarray(z, dtype=complex)
        Z1 = _pair_subordinator(e1, e2, z)
        if not prime:
            return [e1.G(Z1)]
        g1, g1p = e1.G_with_prime(Z1)
        g2, g2p = e2.G_with_prime(z - Z1 + 1.0 / g1)
        f1p, f2p = -g1p / (g1 * g1), -g2p / (g2 * g2)
        return [g1, g1p * f2p / (f1p + f2p - f1p * f2p)]

    return _evaluator(transform)


BISECT_TOL = 1e-10


def boundary_curve(m: Measure, n: int, x):
    """y_n(x): root in y of (n-1) Im F(x + iy) = n y, with F = 1/G.

    Im F(x + iy)/y = 1 + int sigma(du)/((u-x)^2 + y^2) is strictly decreasing
    in y, so the root is unique; it lies below sqrt(m_2 (n-1)) because sigma
    has mass m_2.  All x are bisected together, evaluating only the open
    brackets, and 0 is returned where no positive root exists.  Non-finite
    x raises ValueError.
    """
    if n < 2:
        raise ValueError("boundary curve needs n >= 2")
    if abs(m.moment(1)) > 1e-9:
        raise NotCentered("boundary_curve requires a centered measure")
    G, _ = as_evaluator(m)
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if not np.all(np.isfinite(xs)):
        raise ValueError("boundary curve points must be finite")
    lo = np.zeros(xs.shape)
    hi = np.full(xs.shape, float(np.sqrt(m.moment(2) * (n - 1))))
    while True:
        open_ = np.flatnonzero(hi - lo > BISECT_TOL)
        if not open_.size:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        above = (n - 1) * np.imag(1.0 / G(xs[open_] + 1j * mid)) > n * mid
        lo[open_[above]] = mid[above]
        hi[open_[~above]] = mid[~above]
    out = np.where(lo > 0, 0.5 * (lo + hi), 0.0)
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])
