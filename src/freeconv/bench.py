"""Convergence-rate experiments against the w_a reference family.

For a normalized input law mu (mean 0, variance 1) and each n, the scaled
measure mu_n = mu(. * sqrt(n)) is convolved n-fold via subordination, the CDF
is recovered by Stieltjes inversion, and the Kolmogorov distance to the
matched reference w_{a_n} with a_n = m_3(mu)/sqrt(n) is recorded.  A log-log
slope fit summarizes the empirical decay rate.
"""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import idlaws
from .errors import FreeconvError, NotNormalized
from .inversion import DEFAULT_ETA, _eta_levels, kolmogorov, stieltjes_cdf
from .measures import Measure
from .subordination import solve_pair_grid, solve_Zn_grid

DEFAULT_GRID = (-4.0, 4.0, 2001)


def _integer(v, what: str) -> int:
    """v as an int; ValueError for a bool or a value of no integer type,
    such as 2.5 (or 4.0), which int() would truncate."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{what}: {v!r} is not an integer")


@dataclass(frozen=True)
class ExperimentConfig:
    measure: Measure
    n_values: tuple
    grid: tuple = DEFAULT_GRID
    eta_schedule: tuple = DEFAULT_ETA

    def __post_init__(self):
        ns = tuple(_integer(n, "n_values") for n in self.n_values)
        if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_values must be at least two increasing integers")
        if ns[0] < 1:
            raise ValueError("n_values must be positive")
        lo, hi, points = self.grid
        points = _integer(points, "grid points")
        if points < 101:
            raise ValueError("grid needs at least 101 points")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid bounds must be finite")
        if hi <= lo:
            raise ValueError("grid bounds must be increasing")
        object.__setattr__(self, "n_values", ns)
        object.__setattr__(self, "grid", (float(lo), float(hi), points))
        object.__setattr__(self, "eta_schedule", _eta_levels(self.eta_schedule))


@dataclass(frozen=True)
class RateReport:
    rows: tuple                 # (n, a_n, distance)
    slope: float
    slope_stderr: float
    failed: tuple = ()          # (n, message)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,a_n,distance\n")
        for n, a_n, dist in self.rows:
            buf.write(f"{n},{a_n:.12g},{dist:.12g}\n")
        buf.write(f"# slope = {self.slope:.12g}\n")
        buf.write(f"# slope_stderr = {self.slope_stderr:.12g}\n")
        for n, msg in self.failed:
            buf.write(f"# failed n={n}: {msg}\n")
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _ladder(solve):
    """The g of stieltjes_cdf from solve(z, start=...), a subordinator solve
    from the first iterate start (None: the solver's own) that returns a
    tuple, the subordinator first and G at it last, as solve_Zn_grid and
    solve_pair_grid do; every call is a 1-d z whose points share one eta.

    A call whose eta is below every eta solved so far is the next row (the
    rows of stieltjes_cdf come first, largest eta first).  It starts from
    the Z of the row above as it is (the first row from the solver's own
    start): the subordinator is continuous down to the real axis, so a row's
    Z at the next smaller eta is a close start.  It is remembered as (x, Z),
    its x increasing as stieltjes_cdf's grid is.  Any other call
    (stieltjes_cdf's detection windows and refinement subgrids) starts from
    the remembered row of the nearest eta, its Z interpolated linearly in x
    (real and imaginary parts apart, clamped at the row's ends), and is not
    remembered.  The memory belongs to this g alone, that is to one table.
    """
    solved = {}                 # eta -> (x, Z) of a solved row

    def g(z):
        z = np.asarray(z, dtype=complex)
        eta = z.imag[0]
        if not solved or eta < min(solved):
            out = solve(z, start=solved[min(solved)][1] if solved else None)
            solved[eta] = (z.real, out[0])
            return out[-1]
        x, Z = solved[min(solved, key=lambda e: abs(e - eta))]
        start = np.interp(z.real, x, Z.real) + 1j * np.interp(z.real, x, Z.imag)
        return solve(z, start=start)[-1]

    return g


def power_cdf(source, n: int, xs, eta_schedule=DEFAULT_ETA):
    """CDF table on xs of the n-fold free convolution power of source, its
    eta levels solved as one ladder."""
    # 1e-9 is far below the distances being measured
    return stieltjes_cdf(_ladder(partial(solve_Zn_grid, source, n, tol=1e-9)),
                         xs, eta_schedule)


def pair_cdf(m1, m2, xs, eta_schedule=DEFAULT_ETA):
    """CDF table on xs of the free additive convolution of m1 and m2, its
    eta levels solved as one ladder."""
    return stieltjes_cdf(_ladder(partial(solve_pair_grid, m1, m2)), xs, eta_schedule)


def _rate_row(cfg: ExperimentConfig, xs, m3, n, references):
    """(a_n, distance) of row n; references maps each a_n seen so far in the
    run to its w_{a_n} table, which is built once."""
    mu_n = cfg.measure.dilate(np.sqrt(n))
    table = power_cdf(mu_n, n, xs, cfg.eta_schedule)
    a_n = m3 / np.sqrt(n)
    ref_table = references.get(a_n)
    if ref_table is None:
        G_ref, _ = idlaws.family_transform(idlaws.meixner_w(a_n))
        ref_table = references[a_n] = stieltjes_cdf(G_ref, xs, cfg.eta_schedule)
    return a_n, kolmogorov(table, ref_table).distance


def fit_loglog_slope(ns, distances):
    """OLS slope of log(distance) on log(n), with its standard error."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(distances, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    var = float(resid @ resid) / dof
    cov = var * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


def run_rate_experiment(cfg: ExperimentConfig) -> RateReport:
    mu = cfg.measure
    if abs(mu.moment(1)) > 1e-9 or abs(mu.moment(2) - 1.0) > 1e-9:
        raise NotNormalized("input measure must have mean 0 and variance 1")
    m3 = mu.moment(3)
    lo, hi, points = cfg.grid
    xs = np.linspace(lo, hi, points)
    ordered, failures, references = [], [], {}
    for n in cfg.n_values:
        try:
            ordered.append((n, *_rate_row(cfg, xs, m3, n, references)))
        except FreeconvError as exc:
            failures.append((n, str(exc)))
    if len(ordered) >= 2:
        slope, stderr = fit_loglog_slope([r[0] for r in ordered],
                                         [r[2] for r in ordered])
    else:
        slope, stderr = float("nan"), float("nan")
    return RateReport(rows=tuple(ordered), slope=slope, slope_stderr=stderr,
                      failed=tuple(failures))
