"""Self-tests of the benchmark: span arithmetic, oracles, and tracing that changes nothing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from freeconv import bench, measures  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    # the tracer keeps one span stack, so rate rows must not run in threads
    monkeypatch.setenv("FREECONV_THREADS", "1")


def synthetic_spans():
    # one rate row: cdf -> g -> solve -> two G calls, then G(Zn) outside the solve
    return [
        Span("bench.rates", 0.0, 10.0, counts={"rows": 1}),
        Span("inversion.cdf", 1.0, 9.0, 0, {"nodes": 100, "atoms": 1, "mass_warnings": 0}),
        Span("inversion.g", 2.0, 8.0, 1, {"points": 250}),
        Span("subordination.solve", 2.5, 6.5, 2, {"points": 250, "iterations": 7}),
        Span("transforms.G", 3.0, 4.0, 3, {"points": 250, "work": 2500}),
        Span("transforms.G", 5.0, 6.0, 3, {"points": 250, "work": 2500}),
        Span("transforms.G", 7.0, 7.5, 2, {"points": 250, "work": 2500}),
        Span("bench.kolmogorov", 9.0, 9.5, 0),
    ]


def test_self_time_arithmetic():
    spans = synthetic_spans()
    own = tracing.self_times(spans)
    assert own == pytest.approx([1.5, 2.0, 1.5, 2.0, 1.0, 1.0, 0.5, 0.5])
    assert sum(own) == pytest.approx(spans[0].duration)
    m = tracing.layer_metrics(spans)
    assert m["subordination.s"] == 4.0 and m["subordination.self_s"] == 2.0
    assert m["inversion.s"] == 8.0 and m["inversion.self_s"] == 3.5
    assert m["bench.self_s"] == 2.0 and m["bench.kolmogorov_s"] == 0.5
    assert m["transforms.G_s"] == 2.5
    assert m["transforms.G_work"] == 7500
    assert m["subordination.G_calls_per_solve"] == 2.0
    assert m["subordination.iterations"] == 7
    assert m["inversion.g_points_per_node"] == 2.5
    assert m["bench.rows"] == 1 and m["inversion.atoms"] == 1


def test_covered_merges_overlapping_children():
    parent = Span("a.x", 0.0, 10.0)
    kids = [Span("b.y", 1.0, 4.0), Span("b.y", 3.0, 6.0), Span("b.y", 8.0, 12.0)]
    assert tracing.covered(parent, kids) == pytest.approx(7.0)


def test_kesten_cdf_matches_its_density():
    n = 4
    edge = 2.0 * np.sqrt((n - 1) / n)
    x = np.linspace(-edge, edge, 200001)
    y = x * np.sqrt(n)
    dens = np.sqrt(n) * n * np.sqrt(np.maximum(4 * (n - 1) - y * y, 0.0)) \
        / (2 * np.pi * (n * n - y * y))
    cum = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(x) * (dens[1:] + dens[:-1]))))
    assert np.max(np.abs(workloads.kesten_cdf(x, n) - cum)) < 1e-6
    # n = 2 is the arcsine law
    t = np.linspace(-1.9, 1.9, 7)
    ref = 0.5 + np.arcsin(t / 2) / np.pi
    assert np.allclose(workloads.kesten_cdf(t / np.sqrt(2.0), 2), ref)


SHORT_CONFIGS = [
    bench.ExperimentConfig(measures.bernoulli_measure(), (4, 8, 16)),
    bench.ExperimentConfig(measures.semicircle_measure(41), (2, 4),
                           grid=(-3.0, 3.0, 101), eta_schedule=(0.04, 0.02)),
]


@pytest.mark.parametrize("cfg", SHORT_CONFIGS, ids=["bernoulli", "grid"])
def test_tracing_changes_no_result(cfg):
    plain = bench.run_rate_experiment(cfg).to_csv()
    original = bench.solve_Zn_grid
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = bench.run_rate_experiment(cfg).to_csv()
    assert traced == plain
    assert bench.solve_Zn_grid is original
    names = {s.name for s in tracer.spans}
    assert {"bench.rates", "inversion.cdf", "subordination.solve", "transforms.G"} <= names


def traced_counts():
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.warm_up()
        bench.run_rate_experiment(SHORT_CONFIGS[0])
    m = tracing.layer_metrics(tracer.spans)
    return {k: m[k] for k in tracing.COUNT_METRICS if k in m}


def test_counts_repeat_exactly():
    first, second = traced_counts(), traced_counts()
    assert first == second
    for key in ("transforms.G_calls", "transforms.G_points", "transforms.G_work",
                "subordination.iterations", "inversion.g_points",
                "transforms.newton_calls", "idlaws.G_calls"):
        assert first[key] > 0, key


def test_benchmark_json_matches_what_run_prints():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
