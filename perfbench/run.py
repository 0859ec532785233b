"""Run a freeconv benchmark workload, or all four, from the sources in ``src/``.

    python3 perfbench/run.py --workload rates_atomic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1              # all four, one process each

Each metric is printed by name with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics with tracing off: the job's time
relative to a fixed reference computation timed in alternation with it (see
reference_s), the largest error against the workload's oracle, the median of
several set-ups (importing freeconv in a fresh interpreter, building the
inputs, warming every layer up) and the process's peak resident memory.  The
median job time in seconds is printed too, as wall_s.

--trace 1 gives the per-layer metrics.  Each pass sets up and runs the job
twice, untraced and then traced (see tracing.py); counts come from one traced
pass and must repeat exactly in every pass, times are medians over passes,
and trace.overhead_s is the traced minus the untraced job time.  The spans of
the last traced pass are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("rates_atomic", "rates_grid", "pair_mixed", "idcheck_grid")
# one thread everywhere: the single-threaded baseline, and a span stack per process
THREAD_ENV = {"FREECONV_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
REF_CALLS = 150          # reference calls per job, about a quarter of the time
END_TO_END_UNITS = {"wall_rel": "s/s", "oracle_err": "1", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


def import_seconds() -> float:
    """Wall time of `import freeconv` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import freeconv"], env=env, check=True,
                   timeout=120)
    return perf_counter() - t


def reference_s(calls: int = REF_CALLS) -> float:
    """Wall time of a fixed computation that uses numpy but no freeconv code.

    It mixes what the jobs spend their time on: a vectorised complex kernel
    like the segment kernel of ``measure_cauchy``, and a scalar complex loop
    like Newton's method.  Timed between the parts of each job, it tracks
    how fast the shared machine runs meanwhile: on a 2-vCPU cloud VM the job
    time drifts by up to 1.5x over minutes, and its ratio to this time by
    less than a tenth.
    """
    import numpy as np

    zz = (np.linspace(-6.0, 6.0, 40) + 0.02j)[:, None]
    t0 = np.linspace(-2.0, 2.0, 201)[:-1]
    t1 = t0 + 0.02
    start = perf_counter()
    for _ in range(calls):
        for _ in range(4):
            ((0.3 + 0.1 * zz) * np.log((zz - t0) / (zz - t1))).sum()
            for k in range(5):
                (0.2 / (zz - t0 - 0.001 * k)).sum()
        w = 0.3 + 0.5j
        for _ in range(2000):
            w -= 0.01 * (w * w - (0.2 + 1j)) / (2.0 * w + 1e-3)
    return perf_counter() - start


def set_up(specs):
    """Build the workload's inputs and warm every layer up; returns the measures."""
    import workloads

    ms = {name: workloads.build(spec) for name, spec in specs.items()}
    workloads.warm_up()
    return ms


def run_end_to_end(wl, specs, seconds):
    import workloads

    setups = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t = perf_counter()
        ms = set_up(specs)
        setups.append(t_import + perf_counter() - t)
    oracle = wl.oracle(ms)
    reference_s(5)    # warm-up
    # a reference block before each part of the job and one after the last,
    # so that the reference samples the machine as densely as the parts allow
    block = REF_CALLS // len(wl.parts(ms))
    total, walls = workloads.Outcome(), []
    start = perf_counter()
    refs = [reference_s(block)]
    while True:
        result, wall = {}, 0.0
        for key, run in wl.parts(ms).items():
            t = perf_counter()
            result[key] = run()
            wall += perf_counter() - t
            refs.append(reference_s(block))
        walls.append(wall)
        total.add(wl.check(result, oracle))
        # start another job only if it is expected to end within the budget
        if perf_counter() - start + walls[-1] + len(result) * refs[-1] > seconds:
            break
    metrics = {
        # mean job time over the mean time of REF_CALLS reference calls
        "wall_rel": statistics.fmean(walls) / (statistics.fmean(refs) * REF_CALLS / block),
        "oracle_err": total.oracle_err,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("jobs " + " ".join(f"{w:.4f}" for w in walls))
    print("refs " + " ".join(f"{r:.4f}" for r in refs))
    print(f"wall_s {statistics.median(walls)} s")
    print(f"setups {SETUP_REPS}")
    return total, metrics, END_TO_END_UNITS


def run_traced(wl, specs, seconds, tag):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    oracle = wl.oracle(set_up(specs))
    total, passes = workloads.Outcome(), []
    job_s = {False: [], True: []}
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        for traced in (False, True):
            tracer.clear()
            with tracer.installed() if traced else nullcontext():
                ms = set_up(specs)
                t = perf_counter()
                result = wl.job(ms)
                job_s[traced].append(perf_counter() - t)
            total.add(wl.check(result, oracle))
        passes.append(tracing.layer_metrics(tracer.spans))
        if perf_counter() - start + (perf_counter() - t_pass) > seconds:
            break
    if any(p[k] != passes[0][k] for p in passes for k in tracing.COUNT_METRICS):
        total.problems.append("per-layer counts differ between passes")
    metrics = {k: passes[0][k] if k in tracing.COUNT_METRICS
               else statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics["trace.overhead_s"] = (statistics.median(job_s[True])
                                   - statistics.median(job_s[False]))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{tag}.json", "w") as fh:
        json.dump([s.to_json() for s in tracer.spans], fh)
    print(f"passes {len(passes)}")
    return total, metrics, tracing.PER_LAYER_UNITS


def run_one(args) -> int:
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    specs = wl.inputs(np.random.default_rng(args.seed))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, spec in specs.items():
        print(f"input {name} {spec[0]} sha256:{workloads.digest(spec)}")
    if args.trace:
        total, metrics, units = run_traced(wl, specs, args.seconds,
                                           f"{wl.name}-seed{args.seed}")
    else:
        total, metrics, units = run_end_to_end(wl, specs, args.seconds)
        print(f"failed_frac {total.failed / total.attempted} 1")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for problem in dict.fromkeys(total.problems):
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": total.failed == 0 and not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freeconv" / "__init__.py").is_file():
        print(f"perfbench: no freeconv sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.workload == "all":
        return run_all(args)
    # workloads.py and tracing.py import numpy and freeconv, so they are
    # imported inside the functions, after the thread settings and this path
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
