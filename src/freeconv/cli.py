"""Command-line interface.

Exit codes: 0 success, 1 usage/input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, idlaws, measures, ncpart
from .errors import FixedPointDiverged, FreeconvError, InversionDiverged
from .inversion import kolmogorov, load_cdf_csv

NUMERICAL_ERRORS = (FixedPointDiverged, InversionDiverged)
RATES_KEYS = frozenset({"measure", "n_values", "grid", "eta", "output_path"})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_grid(text, default=None):
    if text is None:
        return default
    try:
        lo, hi, pts = text.split(":")
        return float(lo), float(hi), int(pts)
    except ValueError as exc:
        raise _UsageError(f"bad grid spec {text!r}, expected lo:hi:points") from exc


def _parse_eta(text, default=bench.DEFAULT_ETA):
    if text is None:
        return default
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad eta schedule {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="freeconv",
                description="numerical free additive convolution toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moments", help="raw moments of a measure")
    sp.add_argument("measure")
    sp.add_argument("--max-k", type=int, default=8)

    sp = sub.add_parser("cumulants", help="free cumulants of a measure")
    sp.add_argument("measure")
    sp.add_argument("--max-k", type=int, default=8)

    sp = sub.add_parser("power", help="CDF of the n-fold free convolution power")
    sp.add_argument("measure")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--grid")
    sp.add_argument("--out", required=True)
    sp.add_argument("--eta")

    sp = sub.add_parser("convolve", help="CDF of the free convolution of two measures")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--grid")
    sp.add_argument("--out", required=True)
    sp.add_argument("--eta")

    sp = sub.add_parser("distance", help="Kolmogorov distance between two CDF tables")
    sp.add_argument("cdf1")
    sp.add_argument("cdf2")

    sp = sub.add_parser("idcheck", help="sampled free infinite-divisibility verdict")
    sp.add_argument("measure")
    sp.add_argument("--width", type=float, default=2.0)

    sp = sub.add_parser("rates", help="convergence-rate experiment from a config file")
    sp.add_argument("config")
    sp.add_argument("--eta")
    return p


def _cmd_moments(args) -> int:
    m = measures.load(args.measure)
    for k in range(1, args.max_k + 1):
        print(f"m{k} = {m.moment(k):.12g}")
    return 0


def _cmd_cumulants(args) -> int:
    m = measures.load(args.measure)
    mom = [m.moment(k) for k in range(1, args.max_k + 1)]
    for k, a in enumerate(ncpart.moments_to_cumulants(mom), start=1):
        print(f"alpha{k} = {a:.12g}")
    return 0


def _cmd_power(args) -> int:
    m = measures.load(args.measure)
    if args.n < 1:
        raise _UsageError("--n must be a positive integer")
    half = 3.0 * np.sqrt(args.n) + 1.0
    lo, hi, pts = _parse_grid(args.grid, default=(-half, half, 2001))
    eta = _parse_eta(args.eta)
    bench.power_cdf(m, args.n, np.linspace(lo, hi, pts), eta).save_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_convolve(args) -> int:
    ma = measures.load(args.a)
    mb = measures.load(args.b)
    lo, hi, pts = _parse_grid(args.grid, default=(-8.0, 8.0, 2001))
    eta = _parse_eta(args.eta)
    bench.pair_cdf(ma, mb, np.linspace(lo, hi, pts), eta).save_csv(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_distance(args) -> int:
    report = kolmogorov(load_cdf_csv(args.cdf1), load_cdf_csv(args.cdf2))
    print(f"{report.distance:.12g}")
    return 0


def _cmd_idcheck(args) -> int:
    m = measures.load(args.measure)
    print(str(idlaws.is_free_id_sampled(m, width=args.width)))
    return 0


def _cmd_rates(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise _UsageError("rates config must be a JSON object")
    unknown = sorted(set(raw) - RATES_KEYS)
    if unknown:
        raise _UsageError(f"unknown rates config keys {unknown}; "
                          f"expected keys from {sorted(RATES_KEYS)}")
    eta = _parse_eta(args.eta, default=tuple(raw.get("eta", bench.DEFAULT_ETA)))
    cfg = bench.ExperimentConfig(
        measure=measures.from_json_dict(raw["measure"]),
        n_values=tuple(raw["n_values"]),
        grid=tuple(raw.get("grid", bench.DEFAULT_GRID)),
        eta_schedule=eta,
    )
    report = bench.run_rate_experiment(cfg)
    out = raw.get("output_path")
    if not out:
        sys.stdout.write(report.to_csv())
    else:
        report.save(out)
        print(f"wrote {out}")
        print(f"slope = {report.slope:.12g} +- {report.slope_stderr:.12g}")
    return 0


_COMMANDS = {
    "moments": _cmd_moments,
    "cumulants": _cmd_cumulants,
    "power": _cmd_power,
    "convolve": _cmd_convolve,
    "distance": _cmd_distance,
    "idcheck": _cmd_idcheck,
    "rates": _cmd_rates,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except FreeconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
